#include "rag/retriever.h"

#include <stdexcept>
#include <string>

#include "obs/metrics_registry.h"
#include "rag/batching_driver.h"

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

Retriever::Retriever(BatchingDriver& driver, VirtualClock* clock)
    : driver_(driver), clock_(clock) {}

RetrievalOutcome Retriever::Retrieve(std::span<const float> query) {
  const Nanos virtual_before = clock_ != nullptr ? clock_->Now() : 0;
  Stopwatch watch;
  BatchResult served = driver_.Serve(query);
  const Nanos wall_ns = watch.ElapsedNanos();
  if (served.status != RequestStatus::kOk) {
    throw std::runtime_error(std::string("Retriever: ") +
                             RequestStatusName(served.status));
  }

  RetrievalOutcome outcome;
  outcome.documents = std::move(served.documents);
  outcome.distances = std::move(served.distances);
  outcome.cache_hit = served.cache_hit;
  outcome.answer_hit = served.answer_hit;
  const Nanos virtual_delta =
      (clock_ != nullptr ? clock_->Now() : 0) - virtual_before;
  outcome.latency_ns = wall_ns + virtual_delta;

  ++stats_.queries;
  kObsQueries.Inc();
  if (outcome.cache_hit) {
    ++stats_.cache_hits;
    kObsHits.Inc();
    kObsHitLatency.Record(outcome.latency_ns);
  } else {
    kObsMissLatency.Record(outcome.latency_ns);
  }
  return outcome;
}

}  // namespace proximity
