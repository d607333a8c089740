// Portable reference kernels, float and quantized: 4x-unrolled accumulator
// loops that GCC/Clang auto-vectorize at -O3, compiled with the baseline
// flags. They fill kPortableTable, the table every other level is tested
// against; the ISA levels are instantiations of simd_lanes.h, and the
// public entry points live in dispatch.cpp.
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "vecmath/kernel_table.h"

namespace proximity::detail {

namespace {

// Four independent accumulators break the FP dependency chain so the
// compiler can keep multiple vector FMAs in flight.
template <typename Accum>
float UnrolledReduce(const float* a, const float* b, std::size_t n,
                     Accum accum) noexcept {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = accum(acc0, a[i + 0], b[i + 0]);
    acc1 = accum(acc1, a[i + 1], b[i + 1]);
    acc2 = accum(acc2, a[i + 2], b[i + 2]);
    acc3 = accum(acc3, a[i + 3], b[i + 3]);
  }
  for (; i < n; ++i) acc0 = accum(acc0, a[i], b[i]);
  return (acc0 + acc1) + (acc2 + acc3);
}

inline float L2Step(float acc, float x, float y) noexcept {
  const float d = x - y;
  return acc + d * d;
}

inline float IpStep(float acc, float x, float y) noexcept {
  return acc + x * y;
}

float L2One(const float* a, const float* b, std::size_t n) {
  return UnrolledReduce(a, b, n, L2Step);
}

float IpOne(const float* a, const float* b, std::size_t n) {
  return UnrolledReduce(a, b, n, IpStep);
}

float SqNormOne(const float* a, std::size_t n) {
  return UnrolledReduce(a, a, n, IpStep);
}

// The portable batch kernels reuse the exact single-pair functions row by
// row, so batch results are trivially bit-identical to the single-pair
// path (the dispatch-layer contract).
void BatchL2(const float* q, const float* base, std::size_t count,
             std::size_t dim, float* out) {
  for (std::size_t r = 0; r < count; ++r) {
    out[r] = L2One(q, base + r * dim, dim);
  }
}

void BatchIp(const float* q, const float* base, std::size_t count,
             std::size_t dim, float* out) {
  for (std::size_t r = 0; r < count; ++r) {
    out[r] = IpOne(q, base + r * dim, dim);
  }
}

void BatchCos(const float* q, const float* base, std::size_t count,
              std::size_t dim, float* out) {
  const float qn = SqNormOne(q, dim);
  const float qnorm = internal::SqrtNonNeg(qn);
  for (std::size_t r = 0; r < count; ++r) {
    const float* row = base + r * dim;
    const float dot = IpOne(q, row, dim);
    const float rn = SqNormOne(row, dim);
    out[r] = internal::FinishCosine(dot, qnorm, rn);
  }
}

// The portable multi-query kernels run the batch kernel once per query.
void MultiL2(const float* queries, std::size_t nq, const float* base,
             std::size_t count, std::size_t dim, float* out) {
  for (std::size_t j = 0; j < nq; ++j) {
    BatchL2(queries + j * dim, base, count, dim, out + j * count);
  }
}

void MultiIp(const float* queries, std::size_t nq, const float* base,
             std::size_t count, std::size_t dim, float* out) {
  for (std::size_t j = 0; j < nq; ++j) {
    BatchIp(queries + j * dim, base, count, dim, out + j * count);
  }
}

// The portable nearest row: the full scan plus a first-minimum argmin.
NearestRow NearestL2(const float* q, const float* base, std::size_t count,
                     std::size_t dim, float /*radius*/, float* scratch) {
  BatchL2(q, base, count, dim, scratch);
  NearestRow best{0, scratch[0], count * dim};
  for (std::size_t r = 1; r < count; ++r) {
    if (scratch[r] < best.distance) {
      best.row = r;
      best.distance = scratch[r];
    }
  }
  return best;
}

// ------------------------------------------------------ quantized rows ----
// Scalar fmaf loops, 4x unrolled like the float kernels. Dequantization
// stays fused in the accumulation: x̂ = fmaf(scale, c, bias), never a
// decoded buffer.

float L2U8(const float* q, const std::uint8_t* codes, std::size_t n,
           float scale, float bias) {
  float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 =
        q[i] - std::fmaf(scale, static_cast<float>(codes[i]), bias);
    a0 = std::fmaf(d0, d0, a0);
    const float d1 =
        q[i + 1] - std::fmaf(scale, static_cast<float>(codes[i + 1]), bias);
    a1 = std::fmaf(d1, d1, a1);
    const float d2 =
        q[i + 2] - std::fmaf(scale, static_cast<float>(codes[i + 2]), bias);
    a2 = std::fmaf(d2, d2, a2);
    const float d3 =
        q[i + 3] - std::fmaf(scale, static_cast<float>(codes[i + 3]), bias);
    a3 = std::fmaf(d3, d3, a3);
  }
  for (; i < n; ++i) {
    const float d = q[i] - std::fmaf(scale, static_cast<float>(codes[i]), bias);
    a0 = std::fmaf(d, d, a0);
  }
  return (a0 + a1) + (a2 + a3);
}

float IpU8(const float* q, const std::uint8_t* codes, std::size_t n,
           float scale, float bias) {
  float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 = std::fmaf(q[i], std::fmaf(scale, static_cast<float>(codes[i]), bias),
                   a0);
    a1 = std::fmaf(q[i + 1],
                   std::fmaf(scale, static_cast<float>(codes[i + 1]), bias),
                   a1);
    a2 = std::fmaf(q[i + 2],
                   std::fmaf(scale, static_cast<float>(codes[i + 2]), bias),
                   a2);
    a3 = std::fmaf(q[i + 3],
                   std::fmaf(scale, static_cast<float>(codes[i + 3]), bias),
                   a3);
  }
  for (; i < n; ++i) {
    a0 = std::fmaf(q[i], std::fmaf(scale, static_cast<float>(codes[i]), bias),
                   a0);
  }
  return (a0 + a1) + (a2 + a3);
}

// 4-bit kernels walk the half-split nibble plan (kernel_table.h): the
// low-nibble plane covers dims [0, h), the high-nibble plane dims [h, n),
// h = ceil(n/2). Each plane accumulates separately, as the vector
// kernels do.

float L2U4(const float* q, const std::uint8_t* codes, std::size_t n,
           float scale, float bias) {
  const std::size_t h = (n + 1) / 2;
  float lo_acc = 0.f, hi_acc = 0.f;
  for (std::size_t j = 0; j < h; ++j) {
    const float c_lo = static_cast<float>(codes[j] & 0x0F);
    const float d_lo = q[j] - std::fmaf(scale, c_lo, bias);
    lo_acc = std::fmaf(d_lo, d_lo, lo_acc);
    if (j + h < n) {
      const float c_hi = static_cast<float>(codes[j] >> 4);
      const float d_hi = q[j + h] - std::fmaf(scale, c_hi, bias);
      hi_acc = std::fmaf(d_hi, d_hi, hi_acc);
    }
  }
  return lo_acc + hi_acc;
}

float IpU4(const float* q, const std::uint8_t* codes, std::size_t n,
           float scale, float bias) {
  const std::size_t h = (n + 1) / 2;
  float lo_acc = 0.f, hi_acc = 0.f;
  for (std::size_t j = 0; j < h; ++j) {
    const float c_lo = static_cast<float>(codes[j] & 0x0F);
    lo_acc = std::fmaf(q[j], std::fmaf(scale, c_lo, bias), lo_acc);
    if (j + h < n) {
      const float c_hi = static_cast<float>(codes[j] >> 4);
      hi_acc = std::fmaf(q[j + h], std::fmaf(scale, c_hi, bias), hi_acc);
    }
  }
  return lo_acc + hi_acc;
}

}  // namespace

const KernelTable kPortableTable = {
    L2One, IpOne, SqNormOne, BatchL2, BatchIp, BatchCos, MultiL2, MultiIp,
    NearestL2, L2U8, IpU8, L2U4, IpU4,
};

}  // namespace proximity::detail
