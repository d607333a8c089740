// Concurrent RAG service simulation: many "users" share one Proximity
// cache through a BatchingDriver; similar misses that land in the same
// batch coalesce onto a single database query (cache-stampede protection
// generalized to similarity matching).
//
// Usage: concurrent_service [corpus=4000] [threads=8] [tau=2]
#include <cstdio>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 4000));
  const auto threads = static_cast<std::size_t>(cfg.GetInt("threads", 8));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_ef_construction = 100;
  auto index = BuildIndex(spec, corpus_embeddings);

  // Zipf-popular traffic: the conversational-agent pattern the paper's
  // locality argument rests on (§1, citing [10]).
  QueryStreamOptions sopts;
  sopts.order = StreamOrder::kZipf;
  sopts.zipf_length = 2000;
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  std::printf("%zu queries, %zu worker threads, tau=%.1f\n", stream.size(),
              threads, static_cast<double>(tau));

  ApproxCacheOptions copts;
  copts.capacity = 200;
  copts.tolerance = tau;
  TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});

  BatchingDriverStats driver;
  const auto result = RunStreamBatched(
      workload, *index, registry, AnswerModel(MmluAnswerParams()), 1, stream,
      embeddings, threads, {}, &driver);

  const auto& stats = result.cache_stats;
  std::printf("\naccuracy        %.3f\n", result.metrics.accuracy);
  std::printf("hit rate        %.3f\n", result.metrics.hit_rate);
  std::printf("mean latency    %.3f ms\n", result.metrics.mean_latency_ms);
  std::printf("db retrievals   %llu (of %llu lookups)\n",
              static_cast<unsigned long long>(driver.retrieved),
              static_cast<unsigned long long>(stats.lookups));
  std::printf("coalesced       %llu (similar queries that shared a batch "
              "mate's retrieval)\n",
              static_cast<unsigned long long>(driver.coalesced));
  return 0;
}
