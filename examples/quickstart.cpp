// Quickstart: put a Proximity cache in front of a vector index.
//
// Builds a small flat index over random document embeddings, wraps it with
// the approximate cache, and shows the miss -> hit transition for two
// nearby queries (the q1/q2 scenario of Figure 2 in the paper).
#include <cstdio>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "rag/batching_driver.h"
#include "rag/retriever.h"
#include "tenant/tenant_registry.h"

int main() {
  using namespace proximity;
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kDocs = 10000;

  // 1. A vector database: exact flat index over random document embeddings.
  FlatIndex index(kDim, {.metric = Metric::kL2});
  Rng rng(42);
  Matrix docs(kDocs, kDim);
  for (std::size_t r = 0; r < kDocs; ++r) {
    for (auto& x : docs.MutableRow(r)) {
      x = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  index.AddBatch(docs);

  // 2. The Proximity cache: capacity c = 100 entries, tolerance tau = 1.0,
  //    same metric as the database (required). It is the cache of the one
  //    tenant of a registry.
  ApproxCacheOptions opts;
  opts.capacity = 100;
  opts.tolerance = 1.0f;
  opts.metric = index.metric();
  TenantRegistry registry(kDim, {.cache_defaults = opts});
  const ProximityCache& cache = registry.CacheFor(kDefaultTenant);

  // 3. The serving driver puts the cache in front of the database
  //    (Figure 2); the retriever times each query through it.
  BatchingDriver driver(index, registry, /*embedder=*/nullptr, {.top_k = 5});
  Retriever retriever(driver);

  // Query q1: a fresh embedding -> cache miss, database lookup.
  std::vector<float> q1(kDim);
  for (auto& x : q1) x = static_cast<float>(rng.Gaussian(0, 1));
  auto r1 = retriever.Retrieve(q1);
  std::printf("q1: cache_hit=%d  docs=[", r1.cache_hit);
  for (std::size_t i = 0; i < r1.documents.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "",
                static_cast<long long>(r1.documents[i]));
  }
  std::printf("]  latency=%.1fus\n",
              static_cast<double>(r1.latency_ns) / 1e3);

  // Query q2: a small perturbation of q1 (a rephrased question) -> its
  // distance to the cached q1 is below tau, so the cache serves q1's
  // documents without touching the database.
  std::vector<float> q2 = q1;
  for (auto& x : q2) x += static_cast<float>(rng.Gaussian(0, 0.02));
  auto r2 = retriever.Retrieve(q2);
  std::printf("q2: cache_hit=%d  docs=[", r2.cache_hit);
  for (std::size_t i = 0; i < r2.documents.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "",
                static_cast<long long>(r2.documents[i]));
  }
  std::printf("]  latency=%.1fus\n",
              static_cast<double>(r2.latency_ns) / 1e3);

  // Query q3: unrelated -> miss again.
  std::vector<float> q3(kDim);
  for (auto& x : q3) x = static_cast<float>(rng.Gaussian(0, 1));
  auto r3 = retriever.Retrieve(q3);
  std::printf("q3: cache_hit=%d  latency=%.1fus\n", r3.cache_hit,
              static_cast<double>(r3.latency_ns) / 1e3);

  const auto stats = cache.stats();
  std::printf("\ncache stats: lookups=%llu hits=%llu hit_rate=%.2f\n",
              static_cast<unsigned long long>(stats.lookups),
              static_cast<unsigned long long>(stats.hits), stats.HitRate());
  return 0;
}
