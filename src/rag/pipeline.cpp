#include "rag/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace proximity {

namespace {
// Draft accounting for the retrieval/generation overlap (DESIGN.md
// §15): every draft started on a cached context ends as exactly one
// commit (router approved) or one discard (router regenerated), so
// overlap.drafts == overlap.commits + overlap.discards at all times.
const obs::CounterHandle kObsDrafts("overlap.drafts");
const obs::CounterHandle kObsCommits("overlap.commits");
const obs::CounterHandle kObsDiscards("overlap.discards");
}  // namespace

RagPipeline::RagPipeline(const Workload* workload,
                         const HashEmbedder* embedder, Retriever* retriever,
                         AnswerModel answer_model, std::uint64_t answer_seed)
    : workload_(workload),
      embedder_(embedder),
      retriever_(retriever),
      answer_model_(answer_model),
      answer_seed_(answer_seed) {
  if (workload_ == nullptr || embedder_ == nullptr || retriever_ == nullptr) {
    throw std::invalid_argument("RagPipeline: null dependency");
  }
  difficulties_ =
      MakeDifficultyTable(workload_->questions.size(), answer_seed);
}

QueryResult RagPipeline::ProcessQuery(const StreamEntry& entry,
                                      std::span<const float> embedding,
                                      std::size_t position) {
  if (entry.question >= workload_->questions.size()) {
    throw std::out_of_range("RagPipeline: bad question index");
  }
  // Deterministic LLM behaviour: the outcome depends on the question's
  // fixed difficulty quantile and the served context only, never on the
  // stream position — two runs over the same stream differ exactly where
  // the served context differs.
  (void)position;
  if (answer_cache_ != nullptr) return ProcessWithReuse(entry, embedding);

  QueryResult result;
  auto outcome = retriever_->Retrieve(embedding);
  result.cache_hit = outcome.cache_hit;
  result.retrieval_latency_ns = outcome.latency_ns;
  // Without answer reuse no generation cost is modeled: TTFT collapses
  // to the retrieval latency (the paper's §4.2 latency metric).
  result.ttft_ns = outcome.latency_ns;

  const Question& question = workload_->questions[entry.question];
  {
    const obs::Span prompt_span(obs::Stage::kPrompt);
    result.judgment = JudgeContext(outcome.documents, question, *workload_);
  }
  {
    const obs::Span generate_span(obs::Stage::kGenerate);
    result.correct = answer_model_.AnswerCorrectly(
        result.judgment, difficulties_[entry.question]);
  }
  return result;
}

void RagPipeline::EnableAnswerReuse(AnswerCache* cache, ReuseRouter* router,
                                    AnswerReuseOptions options) {
  if ((cache == nullptr) != (router == nullptr)) {
    throw std::invalid_argument(
        "RagPipeline: answer cache and reuse router come as a pair");
  }
  if (options.draft_fraction < 0.0 || options.draft_fraction > 1.0) {
    throw std::invalid_argument(
        "RagPipeline: draft_fraction must be in [0, 1]");
  }
  if (cache != nullptr && cache->dim() != retriever_->index().dim()) {
    throw std::invalid_argument(
        "RagPipeline: answer cache dimension differs from index");
  }
  if (cache != nullptr && cache->metric() != retriever_->index().metric()) {
    // Same §3.1 contract as the retrieval cache: proximity is only
    // meaningful in the index's own distance function.
    throw std::invalid_argument(
        "RagPipeline: answer cache metric differs from index");
  }
  answer_cache_ = cache;
  reuse_router_ = router;
  reuse_options_ = options;
}

QueryResult RagPipeline::ProcessWithReuse(const StreamEntry& entry,
                                          std::span<const float> embedding) {
  QueryResult result;
  const Question& question = workload_->questions[entry.question];
  const double difficulty = difficulties_[entry.question];
  const Nanos gen_cost = reuse_options_.generation_cost_ns;
  const Nanos draft_cost = static_cast<Nanos>(
      static_cast<double>(gen_cost) * reuse_options_.draft_fraction);

  ++reuse_stats_.lookups;
  const AnswerCache::LookupResult probe = answer_cache_->Lookup(embedding);
  const CachedAnswer& cached = probe.value;
  if (probe.hit && probe.stale) ++reuse_stats_.stale_hits;

  // The overlap idiom (RAGCache/RAGO): on a non-stale hit the draft
  // generation starts on the cached context *while* the grounding
  // retrieval runs; the two race, and the router's verdict decides
  // whether the draft commits. Stale hits skip the draft — the
  // generation stamp already rules reuse out, so a draft would be a
  // guaranteed discard.
  const bool drafted = probe.hit && !probe.stale && reuse_options_.overlap;
  if (drafted) {
    ++reuse_stats_.drafts;
    kObsDrafts.Inc();
  }

  // The fresh retrieval always runs: it grounds the router's verdict
  // and keeps the retrieval cache warm for neighbouring queries.
  auto outcome = retriever_->Retrieve(embedding);
  result.cache_hit = outcome.cache_hit;
  result.retrieval_latency_ns = outcome.latency_ns;

  if (!probe.hit) {
    // Plain miss: full path, then populate the answer tier.
    {
      const obs::Span prompt_span(obs::Stage::kPrompt);
      result.judgment = JudgeContext(outcome.documents, question, *workload_);
    }
    {
      const obs::Span generate_span(obs::Stage::kGenerate);
      result.correct = answer_model_.AnswerCorrectly(result.judgment,
                                                     difficulty);
    }
    result.ttft_ns = outcome.latency_ns + gen_cost;
    CachedAnswer fresh{outcome.documents, outcome.distances,
                       result.judgment.relevance, result.judgment.misleading,
                       result.correct};
    answer_cache_->Upsert(embedding, std::move(fresh));
    return result;
  }

  const ReuseVerdict verdict = reuse_router_->Route(
      probe.stale, cached.source_docs, cached.source_distances,
      outcome.documents, outcome.distances);

  switch (verdict.decision) {
    case ReuseDecision::kServe: {
      // Evidence still grounded: the draft (or, without overlap, the
      // cached answer verbatim) is committed with no full generation.
      result.judgment =
          ContextJudgment{cached.relevance, cached.misleading};
      result.correct = cached.correct;
      result.answer_hit = true;
      ++reuse_stats_.answer_hits;
      ++reuse_stats_.served;
      if (drafted) {
        ++reuse_stats_.commits;
        kObsCommits.Inc();
      }
      // Retrieval and draft overlapped: TTFT is the slower of the two.
      result.ttft_ns = drafted
                           ? std::max(outcome.latency_ns, draft_cost)
                           : outcome.latency_ns;
      break;
    }
    case ReuseDecision::kPatch: {
      // Partial overlap: keep the draft but splice in the fresh
      // context — the answer model re-judges the fresh evidence, so
      // correctness tracks today's corpus while the full generation
      // cost is still avoided.
      {
        const obs::Span prompt_span(obs::Stage::kPrompt);
        result.judgment =
            JudgeContext(outcome.documents, question, *workload_);
      }
      result.correct =
          answer_model_.AnswerCorrectly(result.judgment, difficulty);
      result.answer_hit = true;
      ++reuse_stats_.answer_hits;
      ++reuse_stats_.patched;
      if (drafted) {
        ++reuse_stats_.commits;
        kObsCommits.Inc();
      }
      // With overlap the splice rides the draft; without, the patch
      // tokens are charged serially after retrieval.
      result.ttft_ns = drafted
                           ? std::max(outcome.latency_ns, draft_cost)
                           : outcome.latency_ns + draft_cost;
      CachedAnswer fresh{outcome.documents, outcome.distances,
                         result.judgment.relevance,
                         result.judgment.misleading, result.correct};
      answer_cache_->Upsert(embedding, std::move(fresh));
      break;
    }
    case ReuseDecision::kRegenerate: {
      // Ungrounded (or stale): the draft is wasted work and the full
      // path runs, refreshing the entry under the current generation.
      if (drafted) {
        ++reuse_stats_.discards;
        kObsDiscards.Inc();
      }
      ++reuse_stats_.regenerated;
      {
        const obs::Span prompt_span(obs::Stage::kPrompt);
        result.judgment =
            JudgeContext(outcome.documents, question, *workload_);
      }
      {
        const obs::Span generate_span(obs::Stage::kGenerate);
        result.correct =
            answer_model_.AnswerCorrectly(result.judgment, difficulty);
      }
      result.ttft_ns = outcome.latency_ns + gen_cost;
      CachedAnswer fresh{outcome.documents, outcome.distances,
                         result.judgment.relevance,
                         result.judgment.misleading, result.correct};
      answer_cache_->Upsert(embedding, std::move(fresh));
      break;
    }
  }
  return result;
}

QueryResult RagPipeline::ProcessQueryText(const StreamEntry& entry,
                                          std::size_t position) {
  std::vector<float> embedding;
  {
    const obs::Span embed_span(obs::Stage::kEmbed);
    embedding = embedder_->Embed(entry.text);
  }
  return ProcessQuery(entry, embedding, position);
}

RunMetrics RagPipeline::RunStream(const std::vector<StreamEntry>& stream,
                                  const Matrix& embeddings) {
  if (embeddings.rows() != stream.size()) {
    throw std::invalid_argument(
        "RagPipeline::RunStream: embeddings/stream size mismatch");
  }
  RunMetrics metrics;
  metrics.queries = stream.size();
  if (stream.empty()) return metrics;

  std::size_t correct = 0;
  std::size_t hits = 0;
  std::size_t answer_hits = 0;
  LatencyHistogram latencies;
  double relevance_sum = 0.0;
  double misleading_sum = 0.0;
  double total_latency_ns = 0.0;
  double total_ttft_ns = 0.0;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QueryResult r = ProcessQuery(stream[i], embeddings.Row(i), i);
    correct += r.correct ? 1 : 0;
    hits += r.cache_hit ? 1 : 0;
    answer_hits += r.answer_hit ? 1 : 0;
    latencies.Record(r.retrieval_latency_ns);
    total_latency_ns += static_cast<double>(r.retrieval_latency_ns);
    total_ttft_ns += static_cast<double>(r.ttft_ns);
    relevance_sum += r.judgment.relevance;
    misleading_sum += r.judgment.misleading;
  }

  const double n = static_cast<double>(stream.size());
  metrics.accuracy = static_cast<double>(correct) / n;
  metrics.hit_rate = static_cast<double>(hits) / n;
  metrics.answer_hit_rate = static_cast<double>(answer_hits) / n;
  metrics.mean_ttft_ms = total_ttft_ns / n / kNanosPerMilli;
  metrics.mean_latency_ms = latencies.MeanNanos() / kNanosPerMilli;
  metrics.p50_latency_ms = latencies.QuantileNanos(0.5) / kNanosPerMilli;
  metrics.p99_latency_ms = latencies.QuantileNanos(0.99) / kNanosPerMilli;
  metrics.total_latency_ms = total_latency_ns / kNanosPerMilli;
  metrics.mean_relevance = relevance_sum / n;
  metrics.mean_misleading = misleading_sum / n;
  return metrics;
}

}  // namespace proximity
