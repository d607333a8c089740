// Cache warm-up: pre-populate a Proximity cache from historical queries.
//
// A freshly deployed (or restarted without a snapshot) cache serves its
// first queries at full database price. When a query history is
// available, we can do better: cluster the historical embeddings with
// k-means, retrieve once per centroid, and seed the cache with
// (centroid -> documents) entries. Any future query within τ of a warm
// centroid hits immediately. This is the similarity-caching analogue of
// classic cache priming, and a concrete instance of the paper's remark
// that tuning should exploit "workload characteristics" (§4.3.4).
#pragma once

#include <cstddef>
#include <functional>

#include "cache/approx_cache.h"
#include "vecmath/matrix.h"

namespace proximity {

struct WarmupOptions {
  /// Number of centroid entries to seed; clamped to the cache capacity.
  std::size_t budget = 32;
  std::uint64_t seed = 42;
  std::size_t kmeans_iterations = 15;
};

struct WarmupReport {
  std::size_t entries_seeded = 0;
  std::size_t retrievals_performed = 0;
  /// Fraction of historical queries within the cache tolerance of some
  /// seeded centroid — an a-priori estimate of the warm hit rate.
  double estimated_coverage = 0.0;
};

/// Seeds `cache` with up to `options.budget` entries derived from
/// `history` (one historical query embedding per row). `retrieve` is the
/// database lookup used to fill each entry's documents.
WarmupReport WarmCacheFromHistory(
    ProximityCache& cache, const Matrix& history,
    const std::function<std::vector<VectorId>(std::span<const float>)>&
        retrieve,
    const WarmupOptions& options = {});

}  // namespace proximity
