// The retriever stage (steps 4-6 of Figure 1) with the Proximity cache
// interposed between the query and the vector database (Figure 2).
#pragma once

#include <span>
#include <vector>

#include "cache/approx_cache.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "index/vector_index.h"

namespace proximity {

struct RetrieverOptions {
  /// Documents fetched per query (the top-k of the NNS).
  std::size_t top_k = 10;
};

struct RetrievalOutcome {
  std::vector<VectorId> documents;
  /// Distances parallel to `documents`. Empty on a cache hit (the
  /// retrieval cache stores id lists only); populated on database
  /// misses. The reuse router's drift check consumes this profile.
  std::vector<float> distances;
  bool cache_hit = false;
  /// End-to-end retrieval latency: cache lookup plus (on a miss) the
  /// database search, including any simulated storage delay (§4.2
  /// metric iii).
  Nanos latency_ns = 0;
};

/// Aggregated retrieval statistics for one run.
struct RetrieverStats {
  LatencyHistogram all;
  LatencyHistogram hits;
  LatencyHistogram misses;
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;

  double HitRate() const noexcept {
    return queries ? static_cast<double>(cache_hits) /
                         static_cast<double>(queries)
                   : 0.0;
  }
};

class Retriever {
 public:
  /// `cache` may be null (no-cache baseline). `clock` may be null when the
  /// index charges no simulated latency. Neither is owned; both must
  /// outlive the retriever.
  Retriever(const VectorIndex* index, ProximityCache* cache,
            VirtualClock* clock, RetrieverOptions options = {});

  /// Runs Algorithm 1 for one query embedding and times it.
  RetrievalOutcome Retrieve(std::span<const float> query);

  const RetrieverStats& stats() const noexcept { return stats_; }
  void ResetStats() noexcept { stats_ = {}; }

  const VectorIndex& index() const noexcept { return *index_; }
  ProximityCache* cache() noexcept { return cache_; }
  std::size_t top_k() const noexcept { return options_.top_k; }

 private:
  const VectorIndex* index_;
  ProximityCache* cache_;
  VirtualClock* clock_;
  RetrieverOptions options_;
  RetrieverStats stats_;
};

}  // namespace proximity
