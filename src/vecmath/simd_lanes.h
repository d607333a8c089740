// Every vector kernel, written once as a lane-width template over GCC/Clang
// vector extensions — the C++ counterpart of the paper's Rust
// Portable-SIMD kernels (§4.1). simd_lanes.cpp instantiates it once per
// ISA, in an object compiled with that ISA's flags: W = 8 for AVX2+FMA,
// W = 16 for AVX-512F, W = 4 for aarch64 Advanced SIMD.
//
// Everything here has internal linkage (unnamed namespace). Two objects
// built with different -m flags may instantiate the same template; with
// external linkage the linker would keep one of those copies for every
// caller, possibly one encoded for an ISA the CPU lacks.
//
// Float accumulation order, shared by every width and every kernel, so a
// batch result is bit-identical to the single-pair result of its row:
//  - two vector accumulators per row; the main step consumes 2W floats,
//    W into each;
//  - one mop-up step of W floats into the first accumulator;
//  - the remaining n mod W floats into a scalar accumulator;
//  - the sum of the two accumulators reduced by a halving tree (lanes
//    i and i + W/2, then i and i + W/4, ...), plus the scalar tail.
//
// Quantized kernels decode codes in-register (x̂ = bias + scale * c) and
// run four chains of W codes per step; they are held to the portable
// reference's tolerance, not to bit identity (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "vecmath/kernel_table.h"

namespace proximity::detail {
namespace {

template <int W>
struct Lanes {
  // A class-template typedef, not an alias template: GCC drops the
  // vector_size attribute on a dependent alias template.
  typedef float F __attribute__((vector_size(4 * W)));
  typedef std::int32_t I32 __attribute__((vector_size(4 * W)));
};

template <int W>
typename Lanes<W>::F Load(const float* p) noexcept {
  typename Lanes<W>::F v{};
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

/// x in every lane. x - 0 is exact for every x, -0 included, so this
/// compiles to a plain broadcast (0 + x would need an add).
template <int W>
typename Lanes<W>::F Splat(float x) noexcept {
  return x - typename Lanes<W>::F{};
}

/// Lanes [kFrom, kFrom + W/2) of a W-lane vector; compiles to one lane
/// extract or shuffle.
template <int W, std::size_t kFrom, std::size_t... I>
typename Lanes<W / 2>::F Half(typename Lanes<W>::F v,
                              std::index_sequence<I...>) noexcept {
  return typename Lanes<W / 2>::F{v[kFrom + I]...};
}

/// Halving-tree sum: lanes i and i + W/2, then i and i + W/4, ...
template <int W>
float Reduce(typename Lanes<W>::F v) noexcept {
  if constexpr (W == 2) {
    return v[0] + v[1];
  } else {
    constexpr auto kHalf = std::make_index_sequence<W / 2>();
    return Reduce<W / 2>(Half<W, 0>(v, kHalf) + Half<W, W / 2>(v, kHalf));
  }
}

/// a * b + c. Vectors rely on FP contraction to fuse it (the build's
/// -ffp-contract=fast; GCC and Clang contract it by default too). Scalars,
/// which only sum the tail, call fmaf: always fused, and a call the
/// vectorizer cannot turn into an unfused in-order vector reduction.
template <class V>
V MulAdd(V a, V b, V c) noexcept {
  if constexpr (std::is_same_v<V, float>) {
    return __builtin_fmaf(a, b, c);
  } else {
    return a * b + c;
  }
}

// Per-row accumulation steps. Each works on vectors and, for the scalar
// tail, on plain floats; `acc` holds kAccs accumulators.
struct L2Op {
  static constexpr int kAccs = 1;
  template <class V>
  static void Step(V* acc, V q, V x) noexcept {
    const V d = q - x;
    acc[0] = MulAdd(d, d, acc[0]);
  }
  static float Finish(const float* acc, float /*qnorm*/) noexcept {
    return acc[0];
  }
};

struct IpOp {
  static constexpr int kAccs = 1;
  template <class V>
  static void Step(V* acc, V q, V x) noexcept {
    acc[0] = MulAdd(q, x, acc[0]);
  }
  static float Finish(const float* acc, float /*qnorm*/) noexcept {
    return acc[0];
  }
};

/// The row's own squared norm; the query is ignored, so its loads vanish.
/// Same products and order as IpOp with q = x.
struct NormOp {
  static constexpr int kAccs = 1;
  template <class V>
  static void Step(V* acc, V /*q*/, V x) noexcept {
    acc[0] = MulAdd(x, x, acc[0]);
  }
  static float Finish(const float* acc, float /*qnorm*/) noexcept {
    return acc[0];
  }
};

// Dot product and row norm in one pass; each keeps IpOp's order. The
// norm goes first: in the other order GCC 12 reloads more of the query.
struct CosOp {
  static constexpr int kAccs = 2;
  template <class V>
  static void Step(V* acc, V q, V x) noexcept {
    acc[1] = MulAdd(x, x, acc[1]);
    acc[0] = MulAdd(q, x, acc[0]);
  }
  static float Finish(const float* acc, float qnorm) noexcept {
    return internal::FinishCosine(acc[0], qnorm, acc[1]);
  }
};

/// v, pinned in a vector register. A tile reuses each row load for every
/// query and each query load for every row; left alone, GCC 12 folds the
/// reuses into memory operands and loads the same chunk again for each
/// one. The empty asm emits nothing; it only makes v a register value.
template <class V>
[[gnu::always_inline]] inline V InRegister(V v) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  asm("" : "+v"(v));
#elif defined(__aarch64__)
  asm("" : "+w"(v));
#endif
  return v;
}

// In-loop prefetch distance of the row tiles, in floats (1 KiB). Rows of
// a batch are contiguous, so running past a row's end prefetches the next
// tile's rows; prefetch hints never fault.
constexpr std::size_t kPfAhead = 256;

/// An R-rows x Q-queries register tile: R rows starting at `rows`
/// (`stride` floats apart) against Q queries starting at `q` (`qstride`
/// floats apart), n floats each. Each row load is shared by the Q queries
/// and each query load by the R rows; every (row, query) pair keeps its
/// own accumulators, so it sees the single-pair order. Writes
/// R * Q * Op::kAccs sums to `out`: pair (r, j) at out[(r * Q + j) * K].
/// Always inlined: as a call, per block or per single row, it costs ~10%
/// at 64-d.
template <int W, class Op, int R, int Q>
[[gnu::always_inline]] inline void Tile(const float* q, std::size_t qstride,
                                        const float* rows, std::size_t stride,
                                        std::size_t n, float* out) noexcept {
  using V = typename Lanes<W>::F;
  constexpr int K = Op::kAccs;
  // Zeroed by loop, not by `= {}`: GCC 12 lowers that to a memset and then
  // keeps the accumulators in memory. The unroll pragmas let it keep every
  // accumulator in a register.
  V a0[R][Q][K], a1[R][Q][K];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int j = 0; j < Q; ++j) {
#pragma GCC unroll 16
      for (int k = 0; k < K; ++k) a0[r][j][k] = a1[r][j][k] = V{};
    }
  }
  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) {
    if constexpr (R * Q > 1) {
      for (int r = 0; r < R; ++r) {
        for (std::size_t l = 0; l < 2 * W; l += 16) {
          __builtin_prefetch(rows + r * stride + i + kPfAhead + l, 0, 3);
        }
      }
    }
    // Loads are pinned only where GCC would reload them: in multi-query
    // tiles and under cosine's two sums. A plain single-query tile keeps
    // its query chunks in registers unaided, and pinning its four rows at
    // W = 8 would spill.
    constexpr bool kPin = Q > 1 || K > 1;
    V x0[R], x1[R];
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      x0[r] = Load<W>(rows + r * stride + i);
      x1[r] = Load<W>(rows + r * stride + i + W);
      if constexpr (kPin) {
        x0[r] = InRegister(x0[r]);
        x1[r] = InRegister(x1[r]);
      }
    }
#pragma GCC unroll 16
    for (int j = 0; j < Q; ++j) {
      V q0 = Load<W>(q + j * qstride + i);
      V q1 = Load<W>(q + j * qstride + i + W);
      if constexpr (kPin) {
        q0 = InRegister(q0);
        q1 = InRegister(q1);
      }
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) {
        Op::Step(a0[r][j], q0, x0[r]);
        Op::Step(a1[r][j], q1, x1[r]);
      }
    }
  }
  if (i + W <= n) {
#pragma GCC unroll 16
    for (int j = 0; j < Q; ++j) {
      const V q0 = Load<W>(q + j * qstride + i);
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) {
        Op::Step(a0[r][j], q0, Load<W>(rows + r * stride + i));
      }
    }
    i += W;
  }
  float tail[R][Q][K] = {};
  for (; i < n; ++i) {
#pragma GCC unroll 16
    for (int j = 0; j < Q; ++j) {
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) {
        Op::Step(tail[r][j], q[j * qstride + i], rows[r * stride + i]);
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int j = 0; j < Q; ++j) {
#pragma GCC unroll 16
      for (int k = 0; k < K; ++k) {
        out[(r * Q + j) * K + k] =
            Reduce<W>(a0[r][j][k] + a1[r][j][k]) + tail[r][j][k];
      }
    }
  }
}

template <int W, class Op>
float One(const float* a, const float* b, std::size_t n) noexcept {
  float sum = 0.f;
  Tile<W, Op, 1, 1>(a, 0, b, 0, n, &sum);
  return sum;
}

template <int W>
float SqNorm(const float* a, std::size_t n) noexcept {
  return One<W, NormOp>(a, a, n);
}

// Queries per multi-query block, and rows per tile for a block of Q
// queries. A single query runs 4 rows per tile (2 for cosine, which
// carries two sums per row), as Batch always has. A multi-query tile
// holds kTilePairs (row, query) pairs, two accumulators each: 8 of 16 ymm
// at W = 8 and 16 of 32 zmm at W = 16, leaving room for the row chunks
// and the L2 differences.
constexpr int kBlockQueries = 4;
template <int W, class Op, int Q>
constexpr int TileRows() noexcept {
  constexpr int kTilePairs = W >= 16 ? 8 : 4;
  if constexpr (Q == 1) {
    return 4 / Op::kAccs;
  } else {
    return kTilePairs / Q > 1 ? kTilePairs / Q : 1;
  }
}

/// Q queries (`dim` floats apart) against `count` rows, in tiles of
/// TileRows rows, then single rows; out[j * count + r] is Op::Finish of
/// pair (r, j). Every pair sees the single-pair order.
template <int W, class Op, int Q>
void Block(const float* qs, const float* base, std::size_t count,
           std::size_t dim, float qnorm, float* out) noexcept {
  constexpr int R = TileRows<W, Op, Q>();
  constexpr int K = Op::kAccs;
  float acc[R * Q * K] = {};
  std::size_t r = 0;
  for (; r + R <= count; r += R) {
    if (r + 2 * R <= count) {
      const float* next = base + (r + R) * dim;
      __builtin_prefetch(next, 0, 3);
      __builtin_prefetch(next + 16, 0, 3);
    }
    Tile<W, Op, R, Q>(qs, dim, base + r * dim, dim, dim, acc);
    for (int t = 0; t < R; ++t) {
      for (int j = 0; j < Q; ++j) {
        out[j * count + r + t] = Op::Finish(acc + (t * Q + j) * K, qnorm);
      }
    }
  }
  for (; r < count; ++r) {
    Tile<W, Op, 1, Q>(qs, dim, base + r * dim, dim, dim, acc);
    for (int j = 0; j < Q; ++j) {
      out[j * count + r] = Op::Finish(acc + j * K, qnorm);
    }
  }
}

/// One query against `count` rows: the Q = 1 case of the tile.
template <int W, class Op>
void Batch(const float* q, const float* base, std::size_t count,
           std::size_t dim, float* out) noexcept {
  float qnorm = 0.f;
  if constexpr (std::is_same_v<Op, CosOp>) {
    qnorm = internal::SqrtNonNeg(SqNorm<W>(q, dim));
  }
  Block<W, Op, 1>(q, base, count, dim, qnorm, out);
}

/// Block<W, Op, Q> for the Q in [1, kBlockQueries] that is `nq`.
template <int W, class Op, int... Q>
void BlockOf(std::size_t nq, const float* qs, const float* base,
             std::size_t count, std::size_t dim, float* out,
             std::integer_sequence<int, Q...>) noexcept {
  ((nq == static_cast<std::size_t>(Q + 1)
        ? Block<W, Op, Q + 1>(qs, base, count, dim, 0.f, out)
        : void()),
   ...);
}

/// `nq` queries (`dim` floats apart) against `count` rows; out[j * count +
/// r]. The queries split into ceil(nq / kBlockQueries) blocks whose sizes
/// differ by at most one, so no block is a lone query unless nq is 1.
/// Each result is bit-identical to Batch for query j alone.
template <int W, class Op>
void Multi(const float* qs, std::size_t nq, const float* base,
           std::size_t count, std::size_t dim, float* out) noexcept {
  static_assert(Op::kAccs == 1, "cosine runs the ip scan with stored norms");
  const std::size_t blocks = (nq + kBlockQueries - 1) / kBlockQueries;
  for (std::size_t b = 0, j = 0; b < blocks; ++b) {
    const std::size_t size = (nq - j) / (blocks - b);
    BlockOf<W, Op>(size, qs + j * dim, base, count, dim, out + j * count,
                   std::make_integer_sequence<int, kBlockQueries>());
    j += size;
  }
}

// ------------------------------------------------- nearest row, L2 only ----

/// Floats between two early-abandon checks; also the prepass's head. A
/// multiple of 2W at every width, so each check falls between two steps
/// of the main loop.
constexpr std::size_t kAbandonChunk = 64;

/// R rows (`dim` floats apart) through main-loop floats [from, to) of the
/// single-pair L2 order (Tile<W, L2Op, 1, 1>), each query load shared by
/// the R rows. `park` keeps each row's two accumulators between calls (2W
/// floats per row): they start at zero when `from` is 0 and are read from
/// `park` otherwise. Without kFinish they are parked again and out[r] is
/// the partial sum so far: every step adds a square, and float addition
/// of non-negative terms is monotone, so it never exceeds the row's
/// distance. With kFinish, `to` is the main loop's end; the mop-up step
/// and the scalar tail follow and out[r] is the distance, the bits Batch
/// gives the row.
template <int W, int R, bool kFinish>
[[gnu::always_inline]] inline void L2Rows(const float* q, const float* rows,
                                          std::size_t dim, std::size_t from,
                                          std::size_t to, float* park,
                                          float* out) noexcept {
  using V = typename Lanes<W>::F;
  V a0[R], a1[R];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    if (from == 0) {
      a0[r] = a1[r] = V{};
    } else {
      a0[r] = Load<W>(park + r * 2 * W);
      a1[r] = Load<W>(park + r * 2 * W + W);
    }
  }
  std::size_t i = from;
  for (; i < to; i += 2 * W) {
    if constexpr (kFinish) {
      for (int r = 0; r < R; ++r) {
        for (std::size_t l = 0; l < 2 * W; l += 16) {
          __builtin_prefetch(rows + r * dim + i + kPfAhead + l, 0, 3);
        }
      }
    }
    const V q0 = Load<W>(q + i);
    const V q1 = Load<W>(q + i + W);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      L2Op::Step(&a0[r], q0, Load<W>(rows + r * dim + i));
      L2Op::Step(&a1[r], q1, Load<W>(rows + r * dim + i + W));
    }
  }
  if constexpr (kFinish) {
    if (i + W <= dim) {
      const V q0 = Load<W>(q + i);
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) {
        L2Op::Step(&a0[r], q0, Load<W>(rows + r * dim + i));
      }
      i += W;
    }
    float tail[R] = {};
    for (; i < dim; ++i) {
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) L2Op::Step(&tail[r], q[i], rows[r * dim + i]);
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) out[r] = Reduce<W>(a0[r] + a1[r]) + tail[r];
  } else {
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      __builtin_memcpy(park + r * 2 * W, &a0[r], sizeof(V));
      __builtin_memcpy(park + r * 2 * W + W, &a1[r], sizeof(V));
      out[r] = Reduce<W>(a0[r] + a1[r]);
    }
  }
}

/// The nearest_l2 slot (kernels.h NearestL2). A prepass runs every row's
/// head, parks its accumulators and picks the smallest partial sum as the
/// candidate, whose full distance bounds the rest. When the candidate is
/// farther than `radius` (or its head alone is), the bound would drop
/// little: every row's rest streams four rows at a time from its parked
/// head, so each float is read once (the candidate's rest twice).
/// Otherwise each other row resumes from its head a chunk at a time and
/// is dropped once its partial sum exceeds the nearest distance so far; a
/// row that finishes at a smaller distance, or at an equal one in a lower
/// slot, becomes the nearest.
template <int W>
NearestRow NearestL2(const float* q, const float* base, std::size_t count,
                     std::size_t dim, float radius, float* scratch) noexcept {
  constexpr std::size_t kPark = 2 * W;
  static_assert(kAbandonChunk % (2 * W) == 0);
  static_assert(1 + kPark <= kNearestL2ScratchPerRow);
  const std::size_t main = dim / (2 * W) * (2 * W);
  const std::size_t head = main < kAbandonChunk ? main : kAbandonChunk;
  float* sums = scratch;          // count partial sums, then distances
  float* park = scratch + count;  // kPark floats per row
  // Heads are `dim` floats apart, too far for the hardware prefetcher:
  // each block of four rows asks for the next block's heads.
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    for (std::size_t l = 0; l < head && r + 8 <= count; l += 16) {
      for (std::size_t k = 4; k < 8; ++k) {
        __builtin_prefetch(base + (r + k) * dim + l, 0, 3);
      }
    }
    L2Rows<W, 4, false>(q, base + r * dim, dim, 0, head, park + r * kPark,
                        sums + r);
  }
  for (; r < count; ++r) {
    L2Rows<W, 1, false>(q, base + r * dim, dim, 0, head, park + r * kPark,
                        sums + r);
  }
  std::size_t cand = 0;
  for (r = 1; r < count; ++r) {
    if (sums[r] < sums[cand]) cand = r;
  }
  NearestRow best{cand, sums[cand], count * head};
  bool far = !(sums[cand] <= radius);
  if (!far) {
    L2Rows<W, 1, true>(q, base + cand * dim, dim, head, main,
                       park + cand * kPark, &best.distance);
    best.floats_read += dim - head;
    far = !(best.distance <= radius);
  }
  if (far) {
    for (r = 0; r + 4 <= count; r += 4) {
      L2Rows<W, 4, true>(q, base + r * dim, dim, head, main, park + r * kPark,
                         sums + r);
    }
    for (; r < count; ++r) {
      L2Rows<W, 1, true>(q, base + r * dim, dim, head, main, park + r * kPark,
                         sums + r);
    }
    best.floats_read += count * (dim - head);
    best.row = 0;
    best.distance = sums[0];
    for (r = 1; r < count; ++r) {
      if (sums[r] < best.distance) {
        best.row = r;
        best.distance = sums[r];
      }
    }
    return best;
  }
  for (r = 0; r < count; ++r) {
    float partial = sums[r];
    if (r == cand || partial > best.distance) continue;
    const float* row = base + r * dim;
    std::size_t i = head;
    while (i < main && !(partial > best.distance)) {
      const std::size_t to = i + kAbandonChunk < main ? i + kAbandonChunk : main;
      L2Rows<W, 1, false>(q, row, dim, i, to, park + r * kPark, &partial);
      i = to;
    }
    if (!(partial > best.distance)) {
      float d = 0.f;
      L2Rows<W, 1, true>(q, row, dim, i, main, park + r * kPark, &d);
      i = dim;
      if (d < best.distance || (d == best.distance && r < best.row)) {
        best.row = r;
        best.distance = d;
      }
    }
    best.floats_read += i - head;
  }
  return best;
}

// ------------------------------------------------------ quantized rows ----

/// Which part of each code byte a plane reads: the whole byte (8-bit
/// codes) or one nibble of the half-split 4-bit layout (kernel_table.h).
/// Each part is a mask; the high nibble stays in place (16x its value),
/// and its plane scales by scale / 16 instead, which is exact.
enum class CodePart : std::uint8_t { kByte = 0xFF, kLow = 0x0F, kHigh = 0xF0 };

/// W masked code bytes widened to int32 lanes. A braced list of byte
/// loads compiles to one byte-wide mask and one zero-extend; converting
/// or shifting a byte vector instead is scalarized by GCC 12.
template <int W, CodePart kPart, std::size_t... I>
typename Lanes<W>::I32 Widen(const std::uint8_t* p,
                             std::index_sequence<I...>) noexcept {
  constexpr int kMask = static_cast<int>(kPart);
  return typename Lanes<W>::I32{(p[I] & kMask)...};
}

/// One plane of `len` codes against q[0..len): four chains of W codes per
/// step, then W at a time into the first chain, then a scalar tail.
template <int W, class Op, CodePart kPart>
float Plane(const float* q, const std::uint8_t* codes, std::size_t len,
            float scale, float bias) noexcept {
  using V = typename Lanes<W>::F;
  constexpr int kMask = static_cast<int>(kPart);
  if constexpr (kPart == CodePart::kHigh) scale /= 16;
  const auto code = [codes](std::size_t j) noexcept {
    return __builtin_convertvector(
        Widen<W, kPart>(codes + j, std::make_index_sequence<W>()), V);
  };
  const V vscale = Splat<W>(scale), vbias = Splat<W>(bias);
  V acc[4] = {V{}, V{}, V{}, V{}};
  std::size_t j = 0;
  for (; j + 4 * W <= len; j += 4 * W) {
#pragma GCC unroll 4
    for (int c = 0; c < 4; ++c) {
      Op::Step(&acc[c], Load<W>(q + j + c * W),
               vscale * code(j + c * W) + vbias);
    }
  }
  for (; j + W <= len; j += W) {
    Op::Step(&acc[0], Load<W>(q + j), vscale * code(j) + vbias);
  }
  float tail = 0.f;
  for (; j < len; ++j) {
    Op::Step(&tail, q[j],
             MulAdd(scale, static_cast<float>(codes[j] & kMask), bias));
  }
  return Reduce<W>((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail;
}

template <int W, class Op>
float U8(const float* q, const std::uint8_t* codes, std::size_t n,
         float scale, float bias) noexcept {
  return Plane<W, Op, CodePart::kByte>(q, codes, n, scale, bias);
}

template <int W, class Op>
float U4(const float* q, const std::uint8_t* codes, std::size_t n,
         float scale, float bias) noexcept {
  const std::size_t h = (n + 1) / 2;
  return Plane<W, Op, CodePart::kLow>(q, codes, h, scale, bias) +
         Plane<W, Op, CodePart::kHigh>(q + h, codes, n - h, scale, bias);
}

/// The complete table of one lane width.
template <int W>
constexpr KernelTable MakeKernelTable() noexcept {
  KernelTable t{};
  t.l2 = One<W, L2Op>;
  t.ip = One<W, IpOp>;
  t.sqnorm = SqNorm<W>;
  t.batch_l2 = Batch<W, L2Op>;
  t.batch_ip = Batch<W, IpOp>;
  t.batch_cos = Batch<W, CosOp>;
  t.multi_l2 = Multi<W, L2Op>;
  t.multi_ip = Multi<W, IpOp>;
  t.nearest_l2 = NearestL2<W>;
  t.l2_u8 = U8<W, L2Op>;
  t.ip_u8 = U8<W, IpOp>;
  t.l2_u4 = U4<W, L2Op>;
  t.ip_u4 = U4<W, IpOp>;
  return t;
}

}  // namespace
}  // namespace proximity::detail
