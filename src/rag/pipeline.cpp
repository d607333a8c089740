#include "rag/pipeline.h"

#include <stdexcept>
#include <utility>

#include "obs/span.h"

namespace proximity {

RagPipeline::RagPipeline(const Workload* workload, Retriever* retriever,
                         AnswerModel answer_model, std::uint64_t answer_seed,
                         Nanos generation_cost_ns)
    : workload_(workload),
      retriever_(retriever),
      answer_model_(answer_model),
      generation_cost_ns_(generation_cost_ns) {
  if (workload_ == nullptr || retriever_ == nullptr) {
    throw std::invalid_argument("RagPipeline: null dependency");
  }
  difficulties_ =
      MakeDifficultyTable(workload_->questions.size(), answer_seed);
}

QueryResult RagPipeline::ProcessQuery(const StreamEntry& entry,
                                      std::span<const float> embedding) {
  if (entry.question >= workload_->questions.size()) {
    throw std::out_of_range("RagPipeline: bad question index");
  }
  QueryResult result;
  auto outcome = retriever_->Retrieve(embedding);
  result.cache_hit = outcome.cache_hit;
  result.answer_hit = outcome.answer_hit;
  result.retrieval_latency_ns = outcome.latency_ns;
  // An answer hit reuses a generated answer (DESIGN.md §15): the modeled
  // generation cost is charged only when the answer is generated.
  result.ttft_ns =
      outcome.latency_ns + (outcome.answer_hit ? 0 : generation_cost_ns_);

  // Whatever evidence was served — retrieved, document-cache or the
  // answer entry's — is what the answer is judged on.
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
  LatencyHistogram latencies;
  double relevance_sum = 0.0;
  double misleading_sum = 0.0;
  double total_latency_ns = 0.0;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QueryResult r = ProcessQuery(stream[i], embeddings.Row(i));
    correct += r.correct ? 1 : 0;
    hits += r.cache_hit ? 1 : 0;
    latencies.Record(r.retrieval_latency_ns);
    total_latency_ns += static_cast<double>(r.retrieval_latency_ns);
    relevance_sum += r.judgment.relevance;
    misleading_sum += r.judgment.misleading;
  }

  const double n = static_cast<double>(stream.size());
  metrics.accuracy = static_cast<double>(correct) / n;
  metrics.hit_rate = static_cast<double>(hits) / n;
  metrics.mean_latency_ms = latencies.MeanNanos() / kNanosPerMilli;
  metrics.p50_latency_ms = latencies.QuantileNanos(0.5) / kNanosPerMilli;
  metrics.p99_latency_ms = latencies.QuantileNanos(0.99) / kNanosPerMilli;
  metrics.total_latency_ms = total_latency_ns / kNanosPerMilli;
  metrics.mean_relevance = relevance_sum / n;
  metrics.mean_misleading = misleading_sum / n;
  return metrics;
}

}  // namespace proximity
