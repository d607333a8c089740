// The Figure-3 sweep harness: (cache capacity c) x (tolerance τ) x seeds.
//
// §4.3: "We evaluate these metrics across different cache capacities
// c ∈ {10, 50, 100, 200, 300} … tolerance levels τ ∈ {0, 0.5, 1, 2, 5, 10}
// for MMLU and τ ∈ {0, 2, 5, 10} for MedRAG … we run each experiment five
// times and with different random seeds. We average all results."
//
// The corpus, its embeddings, and the vector index are built once and
// shared across all grid cells; each (c, τ, seed) cell gets a fresh cache
// and a freshly shuffled query stream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/adaptive_tau.h"
#include "cache/eviction_policy.h"
#include "common/csv.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/slow_storage_index.h"
#include "llm/answer_model.h"
#include "rag/pipeline.h"
#include "workload/query_stream.h"

namespace proximity {

struct SweepConfig {
  WorkloadSpec workload_spec;
  IndexSpec index_spec;
  AnswerModelParams answer_params;

  std::vector<std::int64_t> capacities = {10, 50, 100, 200, 300};
  std::vector<double> tolerances = {0, 0.5, 1, 2, 5, 10};
  std::size_t num_seeds = 5;
  std::uint64_t base_seed = 1;

  std::size_t top_k = 10;
  std::size_t variants_per_question = 4;
  StreamOrder stream_order = StreamOrder::kShuffled;
  /// Stream length and skew for StreamOrder::kZipf.
  std::size_t zipf_length = 2000;
  double zipf_exponent = 1.0;
  EvictionKind eviction = EvictionKind::kFifo;

  /// When set, the index is wrapped in SlowStorageIndex with this model
  /// (the DiskANN-style experiment).
  std::optional<StorageModel> storage;
};

/// One grid cell, averaged over seeds.
struct SweepCell {
  std::int64_t capacity = 0;
  double tolerance = 0.0;
  RunMetrics mean;
  double accuracy_stddev = 0.0;
  double hit_rate_stddev = 0.0;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config);

  /// Builds the workload, embeds the corpus and streams, and constructs
  /// the index. Called lazily by Run() if needed.
  void Prepare();

  /// Runs the full grid and returns one averaged cell per (c, τ).
  std::vector<SweepCell> Run();

  /// Runs a single configuration (fresh cache) for one seed.
  RunMetrics RunOne(std::int64_t capacity, double tolerance,
                    std::uint64_t seed);

  /// RunOne with an eviction-policy override (the §3.2.2 ablation).
  RunMetrics RunOne(std::int64_t capacity, double tolerance,
                    std::uint64_t seed, EvictionKind eviction);

  struct AdaptiveRunResult {
    RunMetrics metrics;
    double final_tau = 0.0;
    double mean_tau = 0.0;
    std::uint64_t adjustments = 0;
    /// τ as seen by query i (controller value applied before the lookup);
    /// one entry per stream position — the run report's τ trajectory.
    std::vector<double> tau_trajectory;
  };

  /// Runs one stream with the adaptive-τ controller (§3.2.3 future work):
  /// before each query the cache tolerance is set to the controller's
  /// current τ, and the hit/miss outcome is fed back.
  AdaptiveRunResult RunAdaptive(std::int64_t capacity,
                                const AdaptiveTauOptions& controller_options,
                                std::uint64_t seed);

  /// CSV with one row per cell: the three Figure-3 panels as columns.
  static CsvTable ToCsv(const std::vector<SweepCell>& cells);

  /// Headline summary (§1/§4.3.3): per-capacity latency reduction of the
  /// fastest τ > 0 cell relative to the τ = 0 baseline, considering only
  /// cells that *maintain accuracy* — within `max_accuracy_drop` of the
  /// τ = 0 accuracy (the paper's claim is "reduces retrieval latency …
  /// while maintaining accuracy", §1).
  static CsvTable LatencyReductionSummary(const std::vector<SweepCell>& cells,
                                          double max_accuracy_drop = 0.01);

  const Workload& workload() const { return workload_; }
  const VectorIndex& index() const { return *search_index_; }
  const HashEmbedder& embedder() const { return embedder_; }

 private:
  SweepConfig config_;
  bool prepared_ = false;

  HashEmbedder embedder_;
  Workload workload_;
  VirtualClock clock_;
  std::unique_ptr<VectorIndex> base_index_;
  std::unique_ptr<VectorIndex> wrapped_index_;
  VectorIndex* search_index_ = nullptr;

  // Per-seed streams and their embeddings, precomputed in Prepare().
  std::vector<std::vector<StreamEntry>> streams_;
  std::vector<Matrix> stream_embeddings_;
};

}  // namespace proximity
