// Lloyd's k-means with k-means++ seeding.
//
// Training substrate for the IVF coarse quantizer (the quantization-based
// indexing the paper cites in §2.2 [18]) and for the cache warm-up's
// representative queries (src/rag/warmup). The assignment steps run on
// the shared thread pool.
#pragma once

#include <cstdint>
#include <vector>

#include "vecmath/matrix.h"

namespace proximity {

struct KMeansOptions {
  std::size_t max_iterations = 20;
  /// Stop early when the relative improvement in total inertia between
  /// iterations falls below this.
  double tolerance = 1e-4;
  std::uint64_t seed = 42;
};

struct KMeansResult {
  Matrix centroids;                      // k x dim
  std::vector<std::uint32_t> assignment;  // per training row
  double inertia = 0.0;                  // sum of squared distances
  std::size_t iterations = 0;
};

/// Clusters the rows of `data` into k centroids under squared-L2.
/// If k >= rows, every row becomes its own centroid.
/// Empty clusters are re-seeded from the point farthest from its centroid.
KMeansResult RunKMeans(const Matrix& data, std::size_t k,
                       const KMeansOptions& options = {});

/// Index of the centroid closest (squared L2) to v.
std::uint32_t NearestCentroid(const Matrix& centroids,
                              std::span<const float> v) noexcept;

}  // namespace proximity
