// The retriever stage (steps 4-6 of Figure 1) with the Proximity cache
// interposed between the query and the vector database (Figure 2).
//
// A timed client of the serving driver: every query runs the driver's
// own request path (BatchingDriver::Serve, a batch of one on this
// thread), so a figure measures exactly the code a served request runs.
// The no-caching baseline is τ = 0, as in Figure 3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stopwatch.h"
#include "common/types.h"

namespace proximity {

class BatchingDriver;

struct RetrievalOutcome {
  std::vector<VectorId> documents;
  /// Distances parallel to `documents`. Empty on a cache hit (the cache
  /// stores id lists only); populated on database misses.
  std::vector<float> distances;
  bool cache_hit = false;
  /// A cache hit within τ_answer (driver answer_reuse): the entry's
  /// documents are the evidence of a reusable answer.
  bool answer_hit = false;
  /// End-to-end retrieval latency: cache lookup plus (on a miss) the
  /// database search, including any simulated storage delay (§4.2
  /// metric iii).
  Nanos latency_ns = 0;
};

/// Retrieval counts for one run (latencies go to the retrieve.*
/// histograms).
struct RetrieverStats {
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
  /// `clock` may be null when the index charges no simulated latency.
  /// Neither is owned; both must outlive the retriever.
  explicit Retriever(BatchingDriver& driver, VirtualClock* clock = nullptr);

  /// Runs Algorithm 1 for one query embedding through the driver and
  /// times it. Throws std::runtime_error when the driver does not serve
  /// the query (a database failure, a shed or a shutdown).
  RetrievalOutcome Retrieve(std::span<const float> query);

  const RetrieverStats& stats() const noexcept { return stats_; }

 private:
  BatchingDriver& driver_;
  VirtualClock* clock_;
  RetrieverStats stats_;
};

}  // namespace proximity
