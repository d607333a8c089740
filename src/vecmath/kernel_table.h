// Internal contract between the dispatch layer (dispatch.cpp) and the
// kernel tables: the portable reference (kernels.cpp) and one table per
// ISA level, each an instantiation of the lane-width template in
// simd_lanes.h (simd_lanes.cpp, compiled once per ISA).
//
// One table per level carries every kernel: the float slots behind
// kernels.h and the quantized slots behind CompressedStore. Every
// implementation of a slot must be a drop-in numeric replacement:
//  - A table's float batch and multi-query kernels are bit-identical to
//    that table's single-pair kernels; callers rely on it for exact top-k
//    parity between the scan paths. Tables at different levels may differ by
//    summation order (bounded by ~1e-6 relative).
//  - The quantized slots decode scalar-quantized codes and accumulate a
//    distance against a float query in one pass; codes never round-trip
//    through a decoded float buffer. Dequantization is the affine map
//    x̂[j] = bias + scale * c[j] with per-vector scale/bias (LVQ-style;
//    DESIGN.md §11). Levels differ from the portable reference by
//    summation order only.
//  - 4-bit codes use the half-split nibble plan of CompressedStore: byte
//    j of a row's code area holds dim j in its low nibble and dim j+h
//    (h = ceil(n/2)) in its high nibble, so vector kernels run the
//    low-nibble plane against q[0..h) and the high-nibble plane against
//    q[h..n) without lane shuffles.
#pragma once

#include <cstddef>
#include <cstdint>

namespace proximity::detail {

namespace internal {

// Static, so every object, the ISA-flagged ones included, keeps its own
// copy: a shared inline definition would let the linker pick one
// object's copy, encoded for that object's ISA, for every caller.
static inline float SqrtNonNeg(float x) noexcept {
  return x > 0.f ? __builtin_sqrtf(x) : 0.f;
}

/// Shared cosine epilogue so every table finishes with identical math:
/// 1 - dot/(|q||row|), and 1 when either norm is zero.
static inline float FinishCosine(float dot, float query_norm,
                                 float row_sqnorm) noexcept {
  const float denom = query_norm * SqrtNonNeg(row_sqnorm);
  if (denom <= 0.f) return 1.f;
  return 1.f - dot / denom;
}

}  // namespace internal

struct KernelTable {
  /// Single-pair reductions over n floats.
  float (*l2)(const float* a, const float* b, std::size_t n);
  float (*ip)(const float* a, const float* b, std::size_t n);
  float (*sqnorm)(const float* a, std::size_t n);

  /// Fused batch kernels: one query against `count` contiguous row-major
  /// rows of dimension `dim`, results in `out`. Raw values — metric
  /// semantics (inner-product negation) are applied by the dispatch layer.
  void (*batch_l2)(const float* q, const float* base, std::size_t count,
                   std::size_t dim, float* out);
  void (*batch_ip)(const float* q, const float* base, std::size_t count,
                   std::size_t dim, float* out);
  /// Cosine distance 1 - <q,row>/(|q||row|); 1 when either norm is zero.
  void (*batch_cos)(const float* q, const float* base, std::size_t count,
                    std::size_t dim, float* out);
  /// Multi-query batch kernels: `nq` queries (row-major, `dim` floats
  /// apart) against the same rows, out[j * count + r] for query j. Each
  /// query's results are bit-identical to batch_l2/batch_ip for that query
  /// alone; a vector level shares every row load across a block of
  /// queries. Cosine has no slot: it runs multi_ip against stored norms.
  void (*multi_l2)(const float* queries, std::size_t nq, const float* base,
                   std::size_t count, std::size_t dim, float* out);
  void (*multi_ip)(const float* queries, std::size_t nq, const float* base,
                   std::size_t count, std::size_t dim, float* out);

  /// Squared L2 / inner product between a float query and one row of
  /// 8-bit codes (`n` dimensions, one code byte per dimension).
  float (*l2_u8)(const float* q, const std::uint8_t* codes, std::size_t n,
                 float scale, float bias);
  float (*ip_u8)(const float* q, const std::uint8_t* codes, std::size_t n,
                 float scale, float bias);
  /// The same over 4-bit codes (`(n+1)/2` code bytes, half-split nibbles).
  float (*l2_u4)(const float* q, const std::uint8_t* codes, std::size_t n,
                 float scale, float bias);
  float (*ip_u4)(const float* q, const std::uint8_t* codes, std::size_t n,
                 float scale, float bias);
};

/// Portable reference (auto-vectorized unrolled loops); always present.
extern const KernelTable kPortableTable;

/// ISA tables; each returns nullptr when its instantiation was not
/// compiled in (CMake option PROXIMITY_NATIVE_SIMD / wrong architecture).
/// Fallback definitions for absent ISAs live in dispatch.cpp.
const KernelTable* Avx2Table() noexcept;
const KernelTable* Avx512Table() noexcept;
const KernelTable* NeonTable() noexcept;

/// The table every kernels.h entry point and CompressedStore scan runs:
/// the best supported level, unless PROXIMITY_SIMD or SetActiveSimdLevel
/// pinned another.
const KernelTable* ActiveKernelTable() noexcept;

/// Installs `table` (non-null) as the active table and returns the one it
/// replaces. SetActiveSimdLevel is this behind a support check; tests use
/// it directly to run the public entry points over a table no SimdLevel
/// names (ActiveSimdLevel() then reports kPortable). Not thread-safe with
/// concurrent searches, like SetActiveSimdLevel.
const KernelTable* ExchangeActiveKernelTable(const KernelTable* table) noexcept;

}  // namespace proximity::detail
