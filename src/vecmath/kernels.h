// Scalar-product / distance kernels behind a runtime-dispatched SIMD layer.
//
// The original implementation uses Rust Portable-SIMD for vector
// comparisons (§4.1). Here every kernel is written once as a lane-width
// template over GCC/Clang vector extensions (simd_lanes.h), compiled at 8
// lanes for AVX2, 16 for AVX-512 and 4 for NEON, next to a portable
// 4x-unrolled reference; the best level the CPU supports is selected once
// at startup (CPUID / compile-time on aarch64) and all callers upgrade
// transparently through this header.
//
// Guarantees:
//  - The batch kernels are bit-identical to the single-pair kernels of the
//    active level, so routing a scan through BatchDistance/
//    BatchDistanceMulti/GatherDistance never changes top-k results.
//  - Levels differ from each other only by floating-point summation order
//    (~1e-6 relative); the portable table is the reference.
//  - `PROXIMITY_SIMD=portable|avx2|avx512|neon` in the environment pins the
//    startup choice (ignored when the level is unavailable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "vecmath/metric.h"

namespace proximity {

/// Kernel implementation tiers, worst to best.
enum class SimdLevel { kPortable = 0, kNeon, kAvx2, kAvx512 };

/// Name used in logs, benches, and the PROXIMITY_SIMD env override.
std::string_view SimdLevelName(SimdLevel level) noexcept;

/// True when `level` is both compiled in and supported by this CPU.
bool SimdLevelSupported(SimdLevel level) noexcept;

/// The level all kernels below currently dispatch to. Resolved once at
/// first use: the best supported level, unless PROXIMITY_SIMD pins one.
SimdLevel ActiveSimdLevel() noexcept;

/// Forces the active level (tests / benches); returns false and leaves the
/// dispatch untouched when the level is unsupported. Not thread-safe with
/// concurrent searches — switch only at startup or in single-threaded code.
bool SetActiveSimdLevel(SimdLevel level) noexcept;

/// Squared L2 distance between a and b. Sizes must match.
float L2SquaredDistance(std::span<const float> a,
                        std::span<const float> b) noexcept;

/// Inner product <a, b>.
float InnerProduct(std::span<const float> a, std::span<const float> b) noexcept;

/// Cosine distance 1 - <a,b>/(|a||b|). Returns 1 if either vector is zero.
float CosineDistance(std::span<const float> a,
                     std::span<const float> b) noexcept;

/// Squared L2 norm |a|^2.
float SquaredNorm(std::span<const float> a) noexcept;

/// Distance under the given metric, smaller = closer for all metrics
/// (inner product is negated).
float Distance(Metric metric, std::span<const float> a,
               std::span<const float> b) noexcept;

/// Computes distances from `query` to `count` contiguous row-major vectors
/// starting at `base` (each of dimension `dim`), writing into `out`
/// (length `count`). This is the hot loop of both FlatIndex and the
/// Proximity cache's linear key scan; it runs the fused multi-row SIMD
/// kernels of the active level.
void BatchDistance(Metric metric, std::span<const float> query,
                   const float* base, std::size_t count, std::size_t dim,
                   float* out) noexcept;

/// BatchDistance with precomputed per-row squared norms (`row_norms[i]` =
/// SquaredNorm of row i, e.g. from Matrix::RowNorms()). For kCosine this
/// skips the per-row norm pass (pre-normalized cosine: one fused inner
/// product per row). For kL2 it uses the decomposition
/// ||q-b||^2 = ||q||^2 + ||b||^2 - 2<q,b> (clamped at 0) — cheaper but not
/// bit-identical to the direct kernel, so exactness-critical callers keep
/// the plain BatchDistance for L2. kInnerProduct ignores the norms.
void BatchDistanceWithNorms(Metric metric, std::span<const float> query,
                            const float* base, const float* row_norms,
                            std::size_t count, std::size_t dim,
                            float* out) noexcept;

/// BatchDistance for `nq` queries at once (row-major, `dim` floats apart):
/// out[j * count + r] is the distance from query j to row r, bit-identical
/// to BatchDistance for that query alone (BatchDistanceWithNorms for
/// cosine with norms). The vector levels share every row load across a
/// block of queries, so a batch of queries reads each row once. Cosine
/// runs the inner-product kernel against `row_norms` (per-row squared
/// norms, e.g. Matrix::RowNorms()); without them it scans once per query.
/// L2 and inner product ignore `row_norms`.
void BatchDistanceMulti(Metric metric, const float* queries, std::size_t nq,
                        const float* base, const float* row_norms,
                        std::size_t count, std::size_t dim,
                        float* out) noexcept;

/// What NearestL2 found.
struct NearestRow {
  /// The lowest index among the rows at the minimum distance.
  std::size_t row = 0;
  /// Its squared L2 distance: the bits BatchDistance gives that row.
  float distance = 0.f;
  /// Row floats the scan loaded; count * dim when every row was read in full.
  std::size_t floats_read = 0;
};

/// Scratch floats NearestL2 needs per row: a partial sum and the two
/// accumulators of the widest level (16 lanes each).
inline constexpr std::size_t kNearestL2ScratchPerRow = 33;

/// The squared-L2 nearest of `count` (> 0) contiguous rows to `query`: the
/// row and float bits of BatchDistance(kL2, ...) followed by
/// std::min_element, for finite inputs. The vector levels stop reading a
/// row once its partial sum, taken in the kernel's own accumulation
/// order, exceeds the distance of the nearest row so far. Every term is a
/// square, so such a partial sum never exceeds the row's full distance and
/// a dropped row cannot be the nearest. A prepass over the first 64 floats
/// of every row picks the first candidate; when its full distance is
/// farther than `radius` (the caller's widest hit radius: a miss in the
/// making, whose far bound drops little), every row's rest is read in
/// full from where the prepass stopped, so no float is read twice but the
/// candidate's. `scratch` holds count * kNearestL2ScratchPerRow floats.
/// The portable level always reads every row.
NearestRow NearestL2(std::span<const float> query, const float* base,
                     std::size_t count, std::size_t dim, float radius,
                     float* scratch) noexcept;

/// Distances from `query` to the scattered rows base[ids[j]*dim .. +dim)
/// for j in [0, count), with software prefetch of upcoming rows. Results
/// are bit-identical to Distance() at the active level. This is the batch
/// path for HNSW neighbor expansion and filtered flat scans.
void GatherDistance(Metric metric, std::span<const float> query,
                    const float* base, std::size_t dim,
                    const std::uint32_t* ids, std::size_t count,
                    float* out) noexcept;

}  // namespace proximity
