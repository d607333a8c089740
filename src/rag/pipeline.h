// End-to-end RAG pipeline (Figure 1): embed -> retrieve (via Proximity) ->
// prompt -> answer, with the paper's three metrics collected per run.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/approx_cache.h"
#include "cache/reuse_router.h"
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
  /// Served (or patched) from the answer cache after the reuse router
  /// approved grounding — no full generation ran.
  bool answer_hit = false;
  Nanos retrieval_latency_ns = 0;
  /// Simulated end-to-end time-to-final-token: retrieval latency plus
  /// the modeled generation cost, overlapped on answer-cache hits (see
  /// AnswerReuseOptions). Equals retrieval_latency_ns when answer
  /// reuse is disabled (generation cost is not modeled there).
  Nanos ttft_ns = 0;
  ContextJudgment judgment;
};

/// The paper's metric triple (§4.2) plus latency percentiles.
struct RunMetrics {
  std::size_t queries = 0;
  double accuracy = 0.0;
  double hit_rate = 0.0;
  /// Fraction of queries served/patched from the answer cache (0 when
  /// answer reuse is disabled).
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

/// Knobs for the answer-reuse tier (DESIGN.md §15).
struct AnswerReuseOptions {
  /// Overlap retrieval with draft generation on answer-cache hits (the
  /// RAGCache/RAGO idiom): the draft starts on the cached context while
  /// the grounding retrieval runs, and is committed only if the router
  /// approves. Off = the router still runs, but no draft is charged.
  bool overlap = true;
  /// Modeled cost of one full generation (simulated, charged into
  /// ttft_ns). 0 keeps TTFT equal to retrieval latency.
  Nanos generation_cost_ns = 0;
  /// Fraction of generation_cost_ns a draft costs before the router's
  /// verdict lands (prefill + first tokens on the cached context).
  double draft_fraction = 0.25;
};

/// Accounting for the answer-reuse tier; drafts == commits + discards.
struct AnswerReuseStats {
  std::uint64_t lookups = 0;
  std::uint64_t answer_hits = 0;  ///< served + patched
  std::uint64_t served = 0;
  std::uint64_t patched = 0;
  std::uint64_t regenerated = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t drafts = 0;
  std::uint64_t commits = 0;
  std::uint64_t discards = 0;
};

class RagPipeline {
 public:
  /// References are not owned and must outlive the pipeline.
  RagPipeline(const Workload* workload, const HashEmbedder* embedder,
              Retriever* retriever, AnswerModel answer_model,
              std::uint64_t answer_seed);

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

  /// Arms the answer-reuse tier: every query first probes `cache`; on a
  /// τ-hit `router` decides serve / patch / regenerate against the
  /// fresh retrieval (which still runs — it both grounds the verdict
  /// and keeps the retrieval cache warm). Neither pointer is owned;
  /// both must outlive the pipeline. Pass nullptrs to disarm.
  void EnableAnswerReuse(AnswerCache* cache, ReuseRouter* router,
                         AnswerReuseOptions options = {});

  const AnswerReuseStats& answer_stats() const noexcept {
    return reuse_stats_;
  }

 private:
  QueryResult ProcessWithReuse(const StreamEntry& entry,
                               std::span<const float> embedding);

  const Workload* workload_;
  const HashEmbedder* embedder_;
  Retriever* retriever_;
  AnswerModel answer_model_;
  std::uint64_t answer_seed_;
  /// Stratified per-question difficulty quantiles (see MakeDifficultyTable).
  std::vector<double> difficulties_;

  // Answer-reuse tier (unowned; null = disabled).
  AnswerCache* answer_cache_ = nullptr;
  ReuseRouter* reuse_router_ = nullptr;
  AnswerReuseOptions reuse_options_;
  AnswerReuseStats reuse_stats_;
};

}  // namespace proximity
