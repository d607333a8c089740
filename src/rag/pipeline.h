// End-to-end RAG pipeline (Figure 1) over pre-computed query embeddings:
// retrieve (via Proximity) -> prompt -> answer, with the paper's three
// metrics collected per run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "llm/answer_model.h"
#include "rag/retriever.h"
#include "vecmath/matrix.h"
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
  /// Mean retrieval latency in milliseconds.
  double mean_latency_ms = 0.0;
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
  RagPipeline(const Workload* workload, Retriever* retriever,
              AnswerModel answer_model, std::uint64_t answer_seed,
              Nanos generation_cost_ns = 0);

  /// Processes one stream entry with a pre-computed query embedding. The
  /// answer depends only on the question's difficulty (fixed by
  /// answer_seed) and the served context, never on the stream position:
  /// two runs over the same stream differ exactly where the served
  /// context differs.
  QueryResult ProcessQuery(const StreamEntry& entry,
                           std::span<const float> embedding);

  /// Runs a whole stream with pre-computed embeddings (one row per entry)
  /// and aggregates the metrics.
  RunMetrics RunStream(const std::vector<StreamEntry>& stream,
                       const Matrix& embeddings);

 private:
  const Workload* workload_;
  Retriever* retriever_;
  AnswerModel answer_model_;
  Nanos generation_cost_ns_;
  /// Stratified per-question difficulty quantiles (see MakeDifficultyTable).
  std::vector<double> difficulties_;
};

}  // namespace proximity
