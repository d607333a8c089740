// Runtime kernel dispatch: picks the best KernelTable once at startup
// (CPUID on x86, compile-time on aarch64, PROXIMITY_SIMD env override) and
// implements the public kernels.h entry points on top of it. The same
// table serves CompressedStore's quantized scans.
#include <atomic>
#include <cassert>
#include <cstdlib>

#include "vecmath/cpu_features.h"
#include "vecmath/kernel_table.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace detail {

// Fallback definitions for ISA tables whose simd_lanes.cpp instantiation is
// not part of this build (PROXIMITY_NATIVE_SIMD=OFF or foreign architecture).
#if !defined(PROXIMITY_HAVE_AVX2)
const KernelTable* Avx2Table() noexcept { return nullptr; }
#endif
#if !defined(PROXIMITY_HAVE_AVX512)
const KernelTable* Avx512Table() noexcept { return nullptr; }
#endif
#if !defined(PROXIMITY_HAVE_NEON)
const KernelTable* NeonTable() noexcept { return nullptr; }
#endif

namespace {

const KernelTable* CompiledTableFor(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kPortable:
      return &kPortableTable;
    case SimdLevel::kNeon:
      return NeonTable();
    case SimdLevel::kAvx2:
      return Avx2Table();
    case SimdLevel::kAvx512:
      return Avx512Table();
  }
  return nullptr;
}

bool CpuSupports(SimdLevel level) noexcept {
  static const CpuFeatures features = DetectCpuFeatures();
  switch (level) {
    case SimdLevel::kPortable:
      return true;
    case SimdLevel::kNeon:
      return features.neon;
    case SimdLevel::kAvx2:
      return features.avx2 && features.fma;
    case SimdLevel::kAvx512:
      return features.avx512f;
  }
  return false;
}

SimdLevel BestLevel() noexcept {
  for (SimdLevel level :
       {SimdLevel::kAvx512, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelSupported(level)) return level;
  }
  return SimdLevel::kPortable;
}

SimdLevel StartupLevel() noexcept {
  if (const char* env = std::getenv("PROXIMITY_SIMD")) {
    const std::string_view want(env);
    for (SimdLevel level : {SimdLevel::kPortable, SimdLevel::kNeon,
                            SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      if (want == SimdLevelName(level) && SimdLevelSupported(level)) {
        return level;
      }
    }
    // Unknown or unsupported override: fall through to auto-detection.
  }
  return BestLevel();
}

std::atomic<const KernelTable*> g_active{nullptr};

SimdLevel LevelOf(const KernelTable* table) noexcept {
  if (table == Avx512Table()) return SimdLevel::kAvx512;
  if (table == Avx2Table()) return SimdLevel::kAvx2;
  if (table == NeonTable()) return SimdLevel::kNeon;
  return SimdLevel::kPortable;
}

}  // namespace

const KernelTable* ActiveKernelTable() noexcept {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  // Benign race: concurrent first calls resolve to the same table.
  table = CompiledTableFor(StartupLevel());
  g_active.store(table, std::memory_order_release);
  return table;
}

const KernelTable* ExchangeActiveKernelTable(
    const KernelTable* table) noexcept {
  const KernelTable* previous = ActiveKernelTable();
  g_active.store(table, std::memory_order_release);
  return previous;
}

}  // namespace detail

std::string_view SimdLevelName(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kPortable:
      return "portable";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

bool SimdLevelSupported(SimdLevel level) noexcept {
  return detail::CompiledTableFor(level) != nullptr &&
         detail::CpuSupports(level);
}

SimdLevel ActiveSimdLevel() noexcept {
  return detail::LevelOf(detail::ActiveKernelTable());
}

bool SetActiveSimdLevel(SimdLevel level) noexcept {
  if (!SimdLevelSupported(level)) return false;
  detail::ExchangeActiveKernelTable(detail::CompiledTableFor(level));
  return true;
}

float L2SquaredDistance(std::span<const float> a,
                        std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return detail::ActiveKernelTable()->l2(a.data(), b.data(), a.size());
}

float InnerProduct(std::span<const float> a,
                   std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return detail::ActiveKernelTable()->ip(a.data(), b.data(), a.size());
}

float SquaredNorm(std::span<const float> a) noexcept {
  return detail::ActiveKernelTable()->sqnorm(a.data(), a.size());
}

float CosineDistance(std::span<const float> a,
                     std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  const detail::KernelTable* t = detail::ActiveKernelTable();
  const float dot = t->ip(a.data(), b.data(), a.size());
  const float na = t->sqnorm(a.data(), a.size());
  const float nb = t->sqnorm(b.data(), b.size());
  return detail::internal::FinishCosine(dot, detail::internal::SqrtNonNeg(na),
                                        nb);
}

float Distance(Metric metric, std::span<const float> a,
               std::span<const float> b) noexcept {
  switch (metric) {
    case Metric::kL2:
      return L2SquaredDistance(a, b);
    case Metric::kInnerProduct:
      return -InnerProduct(a, b);
    case Metric::kCosine:
      return CosineDistance(a, b);
  }
  return 0.f;
}

void BatchDistance(Metric metric, std::span<const float> query,
                   const float* base, std::size_t count, std::size_t dim,
                   float* out) noexcept {
  assert(query.size() == dim);
  const detail::KernelTable* t = detail::ActiveKernelTable();
  switch (metric) {
    case Metric::kL2:
      t->batch_l2(query.data(), base, count, dim, out);
      return;
    case Metric::kInnerProduct:
      t->batch_ip(query.data(), base, count, dim, out);
      for (std::size_t r = 0; r < count; ++r) out[r] = -out[r];
      return;
    case Metric::kCosine:
      t->batch_cos(query.data(), base, count, dim, out);
      return;
  }
}

void BatchDistanceWithNorms(Metric metric, std::span<const float> query,
                            const float* base, const float* row_norms,
                            std::size_t count, std::size_t dim,
                            float* out) noexcept {
  assert(query.size() == dim);
  if (row_norms == nullptr) {
    BatchDistance(metric, query, base, count, dim, out);
    return;
  }
  const detail::KernelTable* t = detail::ActiveKernelTable();
  switch (metric) {
    case Metric::kL2: {
      // ||q-b||^2 = ||q||^2 + ||b||^2 - 2<q,b>; clamp tiny negatives from
      // cancellation to keep distances in the metric's range.
      t->batch_ip(query.data(), base, count, dim, out);
      const float qn = t->sqnorm(query.data(), dim);
      for (std::size_t r = 0; r < count; ++r) {
        const float d = qn + row_norms[r] - 2.f * out[r];
        out[r] = d > 0.f ? d : 0.f;
      }
      return;
    }
    case Metric::kInnerProduct:
      t->batch_ip(query.data(), base, count, dim, out);
      for (std::size_t r = 0; r < count; ++r) out[r] = -out[r];
      return;
    case Metric::kCosine: {
      // Pre-normalized cosine: one fused inner product per row, norms from
      // the cache. Bit-identical to CosineDistance() because the stored
      // norms come from the same sqnorm kernel.
      t->batch_ip(query.data(), base, count, dim, out);
      const float qnorm =
          detail::internal::SqrtNonNeg(t->sqnorm(query.data(), dim));
      for (std::size_t r = 0; r < count; ++r) {
        out[r] = detail::internal::FinishCosine(out[r], qnorm, row_norms[r]);
      }
      return;
    }
  }
}

void BatchDistanceMulti(Metric metric, const float* queries, std::size_t nq,
                        const float* base, const float* row_norms,
                        std::size_t count, std::size_t dim,
                        float* out) noexcept {
  const detail::KernelTable* t = detail::ActiveKernelTable();
  switch (metric) {
    case Metric::kL2:
      t->multi_l2(queries, nq, base, count, dim, out);
      return;
    case Metric::kInnerProduct:
      t->multi_ip(queries, nq, base, count, dim, out);
      for (std::size_t i = 0; i < nq * count; ++i) out[i] = -out[i];
      return;
    case Metric::kCosine:
      if (row_norms == nullptr) {
        for (std::size_t j = 0; j < nq; ++j) {
          t->batch_cos(queries + j * dim, base, count, dim, out + j * count);
        }
        return;
      }
      // BatchDistanceWithNorms' cosine, one shared ip scan for all queries.
      t->multi_ip(queries, nq, base, count, dim, out);
      for (std::size_t j = 0; j < nq; ++j) {
        const float qnorm = detail::internal::SqrtNonNeg(
            t->sqnorm(queries + j * dim, dim));
        float* row = out + j * count;
        for (std::size_t r = 0; r < count; ++r) {
          row[r] = detail::internal::FinishCosine(row[r], qnorm, row_norms[r]);
        }
      }
      return;
  }
}

void GatherDistance(Metric metric, std::span<const float> query,
                    const float* base, std::size_t dim,
                    const std::uint32_t* ids, std::size_t count,
                    float* out) noexcept {
  assert(query.size() == dim);
  const detail::KernelTable* t = detail::ActiveKernelTable();
  const float* q = query.data();
  // Hoist the query norm for cosine; rows still need their own norm pass.
  float qnorm = 0.f;
  if (metric == Metric::kCosine) {
    qnorm = detail::internal::SqrtNonNeg(t->sqnorm(q, dim));
  }
  for (std::size_t j = 0; j < count; ++j) {
    if (j + 1 < count) {
      const char* next =
          reinterpret_cast<const char*>(base + ids[j + 1] * dim);
      __builtin_prefetch(next, 0, 3);
      __builtin_prefetch(next + 64, 0, 3);
      __builtin_prefetch(next + 128, 0, 3);
    }
    const float* row = base + static_cast<std::size_t>(ids[j]) * dim;
    switch (metric) {
      case Metric::kL2:
        out[j] = t->l2(q, row, dim);
        break;
      case Metric::kInnerProduct:
        out[j] = -t->ip(q, row, dim);
        break;
      case Metric::kCosine:
        out[j] = detail::internal::FinishCosine(t->ip(q, row, dim), qnorm,
                                                t->sqnorm(row, dim));
        break;
    }
  }
}

}  // namespace proximity
