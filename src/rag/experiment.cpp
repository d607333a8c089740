#include "rag/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/log.h"
#include "common/stats.h"
#include "rag/batching_driver.h"

namespace proximity {

SweepRunner::SweepRunner(SweepConfig config) : config_(std::move(config)) {
  if (config_.capacities.empty() || config_.tolerances.empty()) {
    throw std::invalid_argument("SweepRunner: empty sweep axes");
  }
  if (config_.num_seeds == 0) {
    throw std::invalid_argument("SweepRunner: num_seeds must be > 0");
  }
}

void SweepRunner::Prepare() {
  if (prepared_) return;

  LogInfo("[{}] generating workload (corpus={}, questions={})",
          config_.workload_spec.name, config_.workload_spec.corpus_size,
          config_.workload_spec.num_questions);
  workload_ = BuildWorkload(config_.workload_spec);

  LogInfo("[{}] embedding corpus", config_.workload_spec.name);
  const Matrix corpus_embeddings = embedder_.EmbedBatch(workload_.passages);

  base_index_ = BuildIndex(config_.index_spec, corpus_embeddings);
  if (config_.storage.has_value()) {
    wrapped_index_ = std::make_unique<SlowStorageIndex>(
        std::move(base_index_), *config_.storage, &clock_);
    search_index_ = wrapped_index_.get();
  } else {
    search_index_ = base_index_.get();
  }

  LogInfo("[{}] building {} query streams", config_.workload_spec.name,
          config_.num_seeds);
  streams_.reserve(config_.num_seeds);
  stream_embeddings_.reserve(config_.num_seeds);
  for (std::size_t s = 0; s < config_.num_seeds; ++s) {
    QueryStreamOptions sopts;
    sopts.variants_per_question = config_.variants_per_question;
    sopts.order = config_.stream_order;
    sopts.zipf_length = config_.zipf_length;
    sopts.zipf_exponent = config_.zipf_exponent;
    sopts.seed = config_.base_seed + s;
    streams_.push_back(BuildQueryStream(workload_, sopts));

    std::vector<std::string> texts;
    texts.reserve(streams_.back().size());
    for (const auto& e : streams_.back()) texts.push_back(e.text);
    stream_embeddings_.push_back(embedder_.EmbedBatch(texts));
  }
  prepared_ = true;
}

RunMetrics SweepRunner::RunOne(std::int64_t capacity, double tolerance,
                               std::uint64_t seed) {
  return RunOne(capacity, tolerance, seed, config_.eviction);
}

RunMetrics SweepRunner::RunOne(std::int64_t capacity, double tolerance,
                               std::uint64_t seed, EvictionKind eviction) {
  Prepare();
  const std::size_t seed_slot =
      static_cast<std::size_t>(seed - config_.base_seed);
  if (seed_slot >= streams_.size()) {
    throw std::out_of_range("SweepRunner::RunOne: seed outside prepared set");
  }

  ApproxCacheOptions copts;
  copts.capacity = static_cast<std::size_t>(capacity);
  copts.tolerance = static_cast<float>(tolerance);
  copts.metric = search_index_->metric();
  copts.eviction = eviction;
  copts.seed = seed;
  TenantRegistry registry(embedder_.dim(), {.cache_defaults = copts});
  BatchingDriver driver(*search_index_, registry, nullptr,
                        {.top_k = config_.top_k});
  Retriever retriever(driver, &clock_);
  RagPipeline pipeline(&workload_, &retriever,
                       AnswerModel(config_.answer_params), seed);
  return pipeline.RunStream(streams_[seed_slot],
                            stream_embeddings_[seed_slot]);
}

SweepRunner::AdaptiveRunResult SweepRunner::RunAdaptive(
    std::int64_t capacity, const AdaptiveTauOptions& controller_options,
    std::uint64_t seed) {
  Prepare();
  const std::size_t seed_slot =
      static_cast<std::size_t>(seed - config_.base_seed);
  if (seed_slot >= streams_.size()) {
    throw std::out_of_range(
        "SweepRunner::RunAdaptive: seed outside prepared set");
  }
  const auto& stream = streams_[seed_slot];
  const Matrix& embeddings = stream_embeddings_[seed_slot];

  ApproxCacheOptions copts;
  copts.capacity = static_cast<std::size_t>(capacity);
  copts.tolerance = static_cast<float>(controller_options.initial_tau);
  copts.metric = search_index_->metric();
  copts.eviction = config_.eviction;
  copts.seed = seed;
  TenantRegistry registry(embedder_.dim(), {.cache_defaults = copts});
  BatchingDriver driver(*search_index_, registry, nullptr,
                        {.top_k = config_.top_k});
  ProximityCache& cache = registry.CacheFor(kDefaultTenant);
  Retriever retriever(driver, &clock_);
  RagPipeline pipeline(&workload_, &retriever,
                       AnswerModel(config_.answer_params), seed);
  AdaptiveTau controller(controller_options);

  AdaptiveRunResult result;
  result.tau_trajectory.reserve(stream.size());
  std::size_t correct = 0, hits = 0;
  LatencyHistogram latencies;
  double relevance_sum = 0.0, misleading_sum = 0.0, tau_sum = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    cache.set_tolerance(static_cast<float>(controller.tau()));
    tau_sum += controller.tau();
    result.tau_trajectory.push_back(controller.tau());
    const QueryResult r =
        pipeline.ProcessQuery(stream[i], embeddings.Row(i));
    controller.Observe(r.cache_hit);
    correct += r.correct ? 1 : 0;
    hits += r.cache_hit ? 1 : 0;
    latencies.Record(r.retrieval_latency_ns);
    relevance_sum += r.judgment.relevance;
    misleading_sum += r.judgment.misleading;
  }

  const double n = static_cast<double>(stream.size());
  result.metrics.queries = stream.size();
  result.metrics.accuracy = static_cast<double>(correct) / n;
  result.metrics.hit_rate = static_cast<double>(hits) / n;
  result.metrics.mean_latency_ms = latencies.MeanNanos() / kNanosPerMilli;
  result.metrics.p50_latency_ms =
      latencies.QuantileNanos(0.5) / kNanosPerMilli;
  result.metrics.p99_latency_ms =
      latencies.QuantileNanos(0.99) / kNanosPerMilli;
  result.metrics.total_latency_ms =
      latencies.MeanNanos() * n / kNanosPerMilli;
  result.metrics.mean_relevance = relevance_sum / n;
  result.metrics.mean_misleading = misleading_sum / n;
  result.final_tau = controller.tau();
  result.mean_tau = tau_sum / n;
  result.adjustments = controller.adjustments();
  return result;
}

std::vector<SweepCell> SweepRunner::Run() {
  Prepare();
  std::vector<SweepCell> cells;
  cells.reserve(config_.capacities.size() * config_.tolerances.size());

  for (std::int64_t c : config_.capacities) {
    for (double tau : config_.tolerances) {
      SweepCell cell;
      cell.capacity = c;
      cell.tolerance = tau;

      StreamingStats acc_stats, hit_stats;
      RunMetrics sum;
      for (std::size_t s = 0; s < config_.num_seeds; ++s) {
        const RunMetrics m = RunOne(c, tau, config_.base_seed + s);
        acc_stats.Add(m.accuracy);
        hit_stats.Add(m.hit_rate);
        sum.queries = m.queries;
        sum.accuracy += m.accuracy;
        sum.hit_rate += m.hit_rate;
        sum.mean_latency_ms += m.mean_latency_ms;
        sum.p50_latency_ms += m.p50_latency_ms;
        sum.p99_latency_ms += m.p99_latency_ms;
        sum.total_latency_ms += m.total_latency_ms;
        sum.mean_relevance += m.mean_relevance;
        sum.mean_misleading += m.mean_misleading;
      }
      const double n = static_cast<double>(config_.num_seeds);
      cell.mean = sum;
      cell.mean.accuracy /= n;
      cell.mean.hit_rate /= n;
      cell.mean.mean_latency_ms /= n;
      cell.mean.p50_latency_ms /= n;
      cell.mean.p99_latency_ms /= n;
      cell.mean.total_latency_ms /= n;
      cell.mean.mean_relevance /= n;
      cell.mean.mean_misleading /= n;
      cell.accuracy_stddev = acc_stats.stddev();
      cell.hit_rate_stddev = hit_stats.stddev();

      LogInfo("c={} tau={}: acc={:.3f} hit={:.3f} lat={:.3f}ms", c, tau,
              cell.mean.accuracy, cell.mean.hit_rate,
              cell.mean.mean_latency_ms);
      cells.push_back(cell);
    }
  }
  return cells;
}

CsvTable SweepRunner::ToCsv(const std::vector<SweepCell>& cells) {
  CsvTable table({"capacity", "tolerance", "accuracy", "accuracy_stddev",
                  "hit_rate", "hit_rate_stddev", "mean_latency_ms",
                  "p50_latency_ms", "p99_latency_ms", "mean_relevance",
                  "mean_misleading"});
  for (const auto& cell : cells) {
    table.AddRow({cell.capacity, cell.tolerance, cell.mean.accuracy,
                  cell.accuracy_stddev, cell.mean.hit_rate,
                  cell.hit_rate_stddev, cell.mean.mean_latency_ms,
                  cell.mean.p50_latency_ms, cell.mean.p99_latency_ms,
                  cell.mean.mean_relevance, cell.mean.mean_misleading});
  }
  return table;
}

CsvTable SweepRunner::LatencyReductionSummary(
    const std::vector<SweepCell>& cells, double max_accuracy_drop) {
  // Baseline per capacity: the τ = 0 cell (no effective caching).
  struct Baseline {
    double latency_ms;
    double accuracy;
  };
  std::map<std::int64_t, Baseline> baseline;
  for (const auto& cell : cells) {
    if (cell.tolerance == 0.0) {
      baseline[cell.capacity] =
          Baseline{cell.mean.mean_latency_ms, cell.mean.accuracy};
    }
  }
  CsvTable table({"capacity", "baseline_latency_ms", "best_latency_ms",
                  "best_tolerance", "latency_reduction_pct",
                  "accuracy_at_best", "baseline_accuracy"});
  for (const auto& [capacity, base] : baseline) {
    double best_ms = std::numeric_limits<double>::infinity();
    double best_tau = 0.0;
    double best_acc = 0.0;
    for (const auto& cell : cells) {
      if (cell.capacity != capacity || cell.tolerance == 0.0) continue;
      // "While maintaining accuracy": ignore configurations whose
      // accuracy fell more than the allowed drop below the baseline.
      if (cell.mean.accuracy < base.accuracy - max_accuracy_drop) continue;
      if (cell.mean.mean_latency_ms < best_ms) {
        best_ms = cell.mean.mean_latency_ms;
        best_tau = cell.tolerance;
        best_acc = cell.mean.accuracy;
      }
    }
    if (!std::isfinite(best_ms)) continue;
    const double reduction =
        base.latency_ms > 0 ? (1.0 - best_ms / base.latency_ms) * 100.0
                            : 0.0;
    table.AddRow({capacity, base.latency_ms, best_ms, best_tau, reduction,
                  best_acc, base.accuracy});
  }
  return table;
}

}  // namespace proximity
