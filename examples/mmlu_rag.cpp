// End-to-end MMLU-like RAG pipeline with the cache on and off.
//
// Walks the full Figure-1 workflow on the synthetic MMLU workload: build
// corpus -> embed -> index (HNSW) -> stream of question variants ->
// retrieve (with/without Proximity) -> prompt -> simulated LLM answer.
// Prints the paper's three metrics side by side; "no cache" is τ = 0,
// the baseline of Figure 3.
//
// Usage: mmlu_rag [corpus=10000] [capacity=200] [tau=2] [seed=1]
#include <cstdio>

#include "common/config.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "llm/prompt.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 10000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));
  const auto seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 1));

  // Steps 1-2 of Figure 1: chunk + embed the corpus, fill the database.
  const Workload workload = BuildWorkload(MmluLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  LogInfo("embedding {} passages", workload.passages.size());
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_ef_construction = 100;
  auto index = BuildIndex(spec, corpus_embeddings);

  // Steps 3-4: the shuffled question-variant stream.
  QueryStreamOptions sopts;
  sopts.seed = seed;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix stream_embeddings = embedder.EmbedBatch(texts);

  ApproxCacheOptions copts;
  copts.capacity = capacity;
  copts.metric = index->metric();
  auto run = [&](TenantRegistry& registry, const char* label) {
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    RagPipeline pipeline(&workload, &retriever,
                         AnswerModel(MmluAnswerParams()), seed);
    const RunMetrics m = pipeline.RunStream(stream, stream_embeddings);
    std::printf("%-12s accuracy=%.3f hit_rate=%.3f latency=%.3fms\n", label,
                m.accuracy, m.hit_rate, m.mean_latency_ms);
    return m;
  };

  std::printf("MMLU-like pipeline: %zu queries over %zu passages\n",
              stream.size(), workload.passages.size());
  copts.tolerance = 0.0f;
  TenantRegistry uncached(embedder.dim(), {.cache_defaults = copts});
  const RunMetrics base = run(uncached, "no cache:");

  copts.tolerance = tau;
  TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
  const RunMetrics cached = run(registry, "proximity:");

  if (base.mean_latency_ms > 0) {
    std::printf("\nretrieval latency reduction: %.1f%% (tau=%.1f, c=%zu)\n",
                (1.0 - cached.mean_latency_ms / base.mean_latency_ms) * 100.0,
                static_cast<double>(tau), capacity);
  }

  // Show one augmented prompt, end to end (steps 6-7 of Figure 1).
  const auto& entry = stream.front();
  BatchingDriver driver(*index, registry, nullptr, {.top_k = 3});
  Retriever retriever(driver);
  const auto outcome = retriever.Retrieve(stream_embeddings.Row(0));
  const std::string prompt =
      BuildPrompt(entry.text, outcome.documents, workload.passages);
  std::printf("\n--- sample augmented prompt (truncated) ---\n%.400s...\n",
              prompt.c_str());
  return 0;
}
