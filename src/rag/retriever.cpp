#include "rag/retriever.h"

#include <stdexcept>

#include "obs/metrics_registry.h"

namespace proximity {

namespace {
const obs::CounterHandle kObsQueries("retriever.queries");
const obs::CounterHandle kObsHits("retriever.hits");
// The paper's Figure-5 contrast: retrieval latency split by whether the
// query was served from the cache or fell through to the database (both
// include any simulated storage delay charged on the virtual clock).
const obs::HistogramHandle kObsHitLatency("retrieve.hit_ns");
const obs::HistogramHandle kObsMissLatency("retrieve.miss_ns");
}  // namespace

Retriever::Retriever(const VectorIndex* index, ProximityCache* cache,
                     VirtualClock* clock, RetrieverOptions options)
    : index_(index), cache_(cache), clock_(clock), options_(options) {
  if (index_ == nullptr) {
    throw std::invalid_argument("Retriever: index is null");
  }
  if (options_.top_k == 0) {
    throw std::invalid_argument("Retriever: top_k must be > 0");
  }
  if (cache_ != nullptr && cache_->metric() != index_->metric()) {
    // §3.1: the cache must use the same distance function as the database.
    throw std::invalid_argument(
        "Retriever: cache metric differs from index metric");
  }
  if (cache_ != nullptr && cache_->dim() != index_->dim()) {
    throw std::invalid_argument(
        "Retriever: cache dimension differs from index dimension");
  }
}

RetrievalOutcome Retriever::Retrieve(std::span<const float> query) {
  RetrievalOutcome outcome;
  const Nanos virtual_before = clock_ != nullptr ? clock_->Now() : 0;
  Stopwatch watch;

  if (cache_ != nullptr) {
    ProximityCache::LookupResult cached = cache_->Lookup(query);
    if (cached.hit) {
      outcome.documents = std::move(cached.value);
      outcome.cache_hit = true;
    } else {
      auto neighbors = index_->Search(query, options_.top_k);
      outcome.documents.reserve(neighbors.size());
      outcome.distances.reserve(neighbors.size());
      for (const auto& n : neighbors) {
        outcome.documents.push_back(n.id);
        outcome.distances.push_back(n.distance);
      }
      cache_->Insert(query, outcome.documents);
    }
  } else {
    auto neighbors = index_->Search(query, options_.top_k);
    outcome.documents.reserve(neighbors.size());
    outcome.distances.reserve(neighbors.size());
    for (const auto& n : neighbors) {
      outcome.documents.push_back(n.id);
      outcome.distances.push_back(n.distance);
    }
  }

  const Nanos virtual_delta =
      (clock_ != nullptr ? clock_->Now() : 0) - virtual_before;
  outcome.latency_ns = watch.ElapsedNanos() + virtual_delta;

  ++stats_.queries;
  stats_.all.Record(outcome.latency_ns);
  kObsQueries.Inc();
  if (outcome.cache_hit) {
    ++stats_.cache_hits;
    stats_.hits.Record(outcome.latency_ns);
    kObsHits.Inc();
    kObsHitLatency.Record(outcome.latency_ns);
  } else {
    stats_.misses.Record(outcome.latency_ns);
    kObsMissLatency.Record(outcome.latency_ns);
  }
  return outcome;
}

}  // namespace proximity
