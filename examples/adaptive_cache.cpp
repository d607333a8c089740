// Adaptive-tolerance demo (the paper's §3.2.3 future-work idea).
//
// Runs the MMLU-like stream while a proportional controller steers tau
// toward a target hit rate, printing the tau trajectory — no workload
// knowledge (distance scale, variant structure) is given to the
// controller.
//
// Usage: adaptive_cache [corpus=6000] [capacity=200] [target=0.6] [seed=1]
#include <cstdio>

#include "cache/adaptive_tau.h"
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
      static_cast<std::size_t>(cfg.GetInt("corpus", 6000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  const double target = cfg.GetDouble("target", 0.6);
  const auto seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 1));

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_ef_construction = 100;
  auto index = BuildIndex(spec, corpus_embeddings);

  QueryStreamOptions sopts;
  sopts.seed = seed;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix stream_embeddings = embedder.EmbedBatch(texts);

  ApproxCacheOptions copts;
  copts.capacity = capacity;
  copts.tolerance = 0.5f;
  copts.metric = index->metric();
  TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
  ProximityCache& cache = registry.CacheFor(kDefaultTenant);
  BatchingDriver driver(*index, registry, nullptr);
  Retriever retriever(driver);
  RagPipeline pipeline(&workload, &retriever,
                       AnswerModel(MmluAnswerParams()), seed);

  AdaptiveTauOptions aopts;
  aopts.target_hit_rate = target;
  aopts.initial_tau = 0.5;
  aopts.max_tau = 20.0;
  aopts.window = 64;
  aopts.period = 8;
  AdaptiveTau controller(aopts);

  std::printf("adaptive cache: target hit rate %.2f, %zu queries\n", target,
              stream.size());
  std::printf("%-8s %-8s %-10s\n", "query", "tau", "hit_rate(win)");

  std::size_t hits = 0, correct = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    cache.set_tolerance(static_cast<float>(controller.tau()));
    const QueryResult r = pipeline.ProcessQuery(stream[i],
                                                stream_embeddings.Row(i));
    controller.Observe(r.cache_hit);
    hits += r.cache_hit;
    correct += r.correct;
    if (i % 64 == 0) {
      std::printf("%-8zu %-8.2f %-10.3f\n", i, controller.tau(),
                  controller.WindowedHitRate());
    }
  }
  std::printf("\nfinal: tau=%.2f overall_hit_rate=%.3f accuracy=%.3f "
              "adjustments=%llu\n",
              controller.tau(),
              static_cast<double>(hits) / static_cast<double>(stream.size()),
              static_cast<double>(correct) /
                  static_cast<double>(stream.size()),
              static_cast<unsigned long long>(controller.adjustments()));
  return 0;
}
