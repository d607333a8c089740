// End-to-end RAG pipeline (Figure 1): embed -> retrieve (via Proximity) ->
// prompt -> answer, with the paper's three metrics collected per run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "embed/hash_embedder.h"
#include "llm/answer_model.h"
#include "rag/retriever.h"
#include "workload/corpus.h"
#include "workload/query_stream.h"

namespace proximity {

struct QueryResult {
  bool correct = false;
  bool cache_hit = false;
  /// A cache hit within τ_answer: judged on the cached evidence, and no
  /// generation ran. Implies cache_hit.
  bool answer_hit = false;
  Nanos retrieval_latency_ns = 0;
  /// Simulated end-to-end time-to-final-token: retrieval latency plus
  /// the modeled generation cost, which answer hits skip. Equals
  /// retrieval_latency_ns when no generation cost is modeled.
  Nanos ttft_ns = 0;
  ContextJudgment judgment;
};

/// The paper's metric triple (§4.2) plus latency percentiles.
struct RunMetrics {
  std::size_t queries = 0;
  double accuracy = 0.0;
  double hit_rate = 0.0;
  /// Fraction of queries that were answer hits (0 unless the driver
  /// runs answer reuse); a part of hit_rate.
  double answer_hit_rate = 0.0;
  /// Mean retrieval latency in milliseconds.
  double mean_latency_ms = 0.0;
  /// Mean simulated end-to-end latency (QueryResult::ttft_ns) in ms.
  double mean_ttft_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double total_latency_ms = 0.0;
  /// Mean relevance/misleading of the served contexts.
  double mean_relevance = 0.0;
  double mean_misleading = 0.0;
};

class RagPipeline {
 public:
  /// References are not owned and must outlive the pipeline.
  /// `generation_cost_ns` is the modeled cost of one full generation,
  /// charged into ttft_ns of every query that is not an answer hit
  /// (DESIGN.md §15); 0 keeps TTFT equal to retrieval latency.
  RagPipeline(const Workload* workload, const HashEmbedder* embedder,
              Retriever* retriever, AnswerModel answer_model,
              std::uint64_t answer_seed, Nanos generation_cost_ns = 0);

  /// Processes one stream entry with a pre-computed query embedding.
  /// `position` indexes the entry within its stream; the answer draw is a
  /// deterministic function of (answer_seed, position), so runs over the
  /// same stream are directly comparable across cache configurations.
  QueryResult ProcessQuery(const StreamEntry& entry,
                           std::span<const float> embedding,
                           std::size_t position);

  /// Embeds on the fly (the examples use this path; benches pre-embed).
  QueryResult ProcessQueryText(const StreamEntry& entry, std::size_t position);

  /// Runs a whole stream with pre-computed embeddings (one row per entry)
  /// and aggregates the metrics.
  RunMetrics RunStream(const std::vector<StreamEntry>& stream,
                       const Matrix& embeddings);

 private:
  const Workload* workload_;
  const HashEmbedder* embedder_;
  Retriever* retriever_;
  AnswerModel answer_model_;
  Nanos generation_cost_ns_;
  /// Stratified per-question difficulty quantiles (see MakeDifficultyTable).
  std::vector<double> difficulties_;
};

}  // namespace proximity
