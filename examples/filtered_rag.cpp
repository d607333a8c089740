// Filtered retrieval with a filter-aware cache.
//
// Scenario: the corpus is partitioned into "collections" (think: year,
// department, tenant). Queries carry a collection filter; retrieval must
// only return documents from that collection, and — the subtle part —
// cached results must never leak across filters. FilteredCacheRouter
// keeps one Proximity cache per filter tag.
//
// Usage: filtered_rag [corpus=5000] [collections=4] [tau=2]
#include <cstdio>

#include "cache/filtered_router.h"
#include "common/config.h"
#include "common/rng.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 5000));
  const auto collections =
      static_cast<std::size_t>(cfg.GetInt("collections", 4));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus_size, 42));
  HashEmbedder embedder;
  FlatIndex index(embedder.dim());
  index.AddBatch(embedder.EmbedBatch(workload.passages));

  // Assign each passage to a collection (hash of its id).
  auto collection_of = [collections](VectorId id) {
    return static_cast<std::size_t>(SplitMix64(
               static_cast<std::uint64_t>(id) ^ 0xc0111ec7)) %
           collections;
  };

  ApproxCacheOptions copts;
  copts.capacity = 100;
  copts.tolerance = tau;
  FilteredCacheRouter router(embedder.dim(), copts);

  QueryStreamOptions sopts;
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);

  std::size_t db_queries = 0, violations = 0;
  Rng rng(7);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto embedding = embedder.Embed(stream[i].text);
    // Each query targets a (pseudo-random but deterministic) collection.
    const FilterTag tag = 1 + rng.Below(collections);
    const std::size_t wanted = static_cast<std::size_t>(tag - 1);

    std::vector<VectorId> documents;
    auto cached = router.Lookup(tag, embedding);
    if (cached.hit) {
      documents = std::move(cached.value);
    } else {
      ++db_queries;
      const auto results = index.SearchFiltered(
          embedding, 10,
          [&](VectorId id) { return collection_of(id) == wanted; });
      for (const auto& n : results) documents.push_back(n.id);
      router.Insert(tag, embedding, documents);
    }
    // Invariant: every served document belongs to the requested
    // collection — across cache hits and misses alike.
    for (VectorId id : documents) {
      if (collection_of(id) != wanted) ++violations;
    }
  }

  const auto total = router.TotalStats();
  std::printf("queries          %zu\n", stream.size());
  std::printf("database queries %zu\n", db_queries);
  std::printf("cache hit rate   %.3f\n", total.HitRate());
  std::printf("filter tags      %zu (one cache each)\n", router.tag_count());
  std::printf("filter violations %zu  <-- must be zero\n", violations);
  return violations == 0 ? 0 : 1;
}
