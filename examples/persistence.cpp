// Persistence: build once, snapshot to disk, reload, keep serving.
//
// Demonstrates the binary persistence layer: the HNSW index and the
// Proximity cache are saved after a warm-up stream and reloaded into a
// fresh process state; the reloaded cache keeps its hit coverage.
//
// Usage: persistence [corpus=4000] [dir=/tmp]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/hnsw_index.h"
#include "index/index_io.h"
#include "rag/batching_driver.h"
#include "rag/retriever.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 4000));
  const std::filesystem::path dir = cfg.GetString("dir", "/tmp");
  const auto index_path = (dir / "proximity_index.bin").string();
  const auto cache_path = (dir / "proximity_cache.bin").string();

  // Build and warm up.
  const Workload workload = BuildWorkload(MmluLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  HnswIndex index(embedder.dim(), {.ef_construction = 100});
  LogInfo("building HNSW over {} passages", corpus_embeddings.rows());
  index.AddBatch(corpus_embeddings);

  ApproxCacheOptions copts;
  copts.capacity = 200;
  copts.tolerance = 2.0f;
  TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
  const ProximityCache& cache = registry.CacheFor(kDefaultTenant);

  QueryStreamOptions sopts;
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);
  {
    BatchingDriver driver(index, registry, nullptr);
    Retriever retriever(driver);
    for (std::size_t i = 0; i < stream.size() / 2; ++i) {
      retriever.Retrieve(embedder.Embed(stream[i].text));
    }
    std::printf("warm-up: %zu queries, hit rate %.3f\n", stream.size() / 2,
                retriever.stats().HitRate());
  }

  // Snapshot both artifacts.
  SaveIndexToFile(index, index_path);
  {
    std::ofstream os(cache_path, std::ios::binary | std::ios::trunc);
    cache.SaveTo(os);
  }
  std::printf("saved index -> %s (%ju bytes)\n", index_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(index_path)));
  std::printf("saved cache -> %s (%ju bytes)\n", cache_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(cache_path)));

  // Reload into fresh objects — the cache snapshot restores into the
  // default tenant of a new registry — and serve the second half of the
  // stream.
  auto reloaded_index = LoadIndexFromFile(index_path);
  TenantRegistry reloaded(embedder.dim());
  ProximityCache& reloaded_cache = reloaded.CacheFor(kDefaultTenant);
  std::ifstream is(cache_path, std::ios::binary);
  reloaded_cache.LoadFrom(is);
  std::printf("reloaded: %s, cache entries %zu\n",
              reloaded_index->Describe().c_str(), reloaded_cache.size());

  BatchingDriver driver(*reloaded_index, reloaded, nullptr);
  Retriever retriever(driver);
  for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
    retriever.Retrieve(embedder.Embed(stream[i].text));
  }
  std::printf("post-reload: %zu queries, hit rate %.3f "
              "(warm cache carried over)\n",
              stream.size() - stream.size() / 2,
              retriever.stats().HitRate());
  return 0;
}
