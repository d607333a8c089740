// String-configured index construction for benches and examples.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "index/vector_index.h"
#include "vecmath/matrix.h"

namespace proximity {

/// Every IndexSpec::kind BuildIndex accepts. "mutable" is the Vamana-style
/// live-corpus graph (DESIGN.md §13).
inline constexpr std::array<std::string_view, 4> kIndexKinds = {
    "flat", "hnsw", "ivf_flat", "mutable"};

struct IndexSpec {
  /// One of kIndexKinds.
  std::string kind = "flat";
  Metric metric = Metric::kL2;
  std::uint64_t seed = 42;

  /// Primary storage layout: "float32" (default), "sq8", or "sq4".
  /// Quantized layouts run the compressed two-level scan (DESIGN.md §11)
  /// on flat, ivf_flat and hnsw; mutable accepts float32 only.
  std::string storage = "float32";
  /// Over-fetch multiplier for quantized flat/ivf_flat scans.
  std::size_t rerank_factor = 4;

  // HNSW knobs.
  std::size_t hnsw_m = 16;
  std::size_t hnsw_ef_construction = 200;
  std::size_t hnsw_ef_search = 64;

  // IVF knobs.
  std::size_t ivf_nlist = 64;
  std::size_t ivf_nprobe = 8;

  // Vamana (DiskANN) graph knobs, read by the mutable index.
  std::size_t vamana_degree = 32;
  std::size_t vamana_beam = 64;
  float vamana_alpha = 1.2f;
};

/// Builds an index over `corpus` according to `spec`. Trainable indexes
/// (IVF) are trained on a deterministic subsample of the corpus before
/// insertion. Throws std::invalid_argument on an unknown kind or storage
/// layout, and on a quantized layout for the mutable index.
std::unique_ptr<VectorIndex> BuildIndex(const IndexSpec& spec,
                                        const Matrix& corpus);

/// BuildIndex over rows [lo, hi) of `corpus`, read in place (the index
/// copies each row once; IVF also copies its training sample). Index ids
/// count from 0 at row `lo`. Throws std::invalid_argument when [lo, hi)
/// is not a range of corpus rows, besides the cases above.
std::unique_ptr<VectorIndex> BuildIndex(const IndexSpec& spec,
                                        const Matrix& corpus, std::size_t lo,
                                        std::size_t hi);

}  // namespace proximity
