// End-to-end MedRAG-like pipeline: the flat-index (expensive-retrieval)
// regime where Proximity's speedup is largest, plus a demonstration of the
// tau-too-large failure mode (the 37%-accuracy cliff of §4.3.1).
//
// Usage: medrag_rag [corpus=8000] [capacity=200] [seed=1]
#include <cstdio>

#include "common/config.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 8000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  const auto seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 1));

  const Workload workload = BuildWorkload(MedragLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  LogInfo("embedding {} passages", workload.passages.size());
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "flat";  // the paper serves PubMed with FAISS-FLAT
  auto index = BuildIndex(spec, corpus_embeddings);

  QueryStreamOptions sopts;
  sopts.seed = seed;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix stream_embeddings = embedder.EmbedBatch(texts);

  std::printf("MedRAG-like pipeline: %zu queries over %zu passages\n",
              stream.size(), workload.passages.size());
  std::printf("%-10s %-10s %-10s %-12s %s\n", "tau", "accuracy", "hit_rate",
              "latency_ms", "note");

  for (double tau : {0.0, 2.0, 5.0, 10.0}) {
    ApproxCacheOptions copts;
    copts.capacity = capacity;
    copts.tolerance = static_cast<float>(tau);
    copts.metric = index->metric();
    TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    RagPipeline pipeline(&workload, &retriever,
                         AnswerModel(MedragAnswerParams()), seed);
    const RunMetrics m = pipeline.RunStream(stream, stream_embeddings);

    const char* note = "";
    if (tau == 0.0) note = "exact matching: no hits, full-price retrieval";
    if (tau == 5.0) note = "sweet spot: variant hits, accuracy held";
    if (tau == 10.0) note = "too loose: misleading context, accuracy cliff";
    std::printf("%-10.1f %-10.3f %-10.3f %-12.3f %s\n", tau, m.accuracy,
                m.hit_rate, m.mean_latency_ms, note);
  }
  return 0;
}
