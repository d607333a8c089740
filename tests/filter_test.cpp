// Tests for filtered search (predicate NNS + the filter-aware cache
// router).
#include <gtest/gtest.h>

#include "cache/filtered_router.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/recall.h"
#include "vecmath/kernels.h"
#include "vecmath/topk.h"

namespace proximity {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Matrix m(rows, dim);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& x : m.MutableRow(r)) {
      x = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  return m;
}

std::vector<float> RandomVec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
  return v;
}

// ------------------------------------------------------ Filtered search --

TEST(FilteredSearchTest, FlatExactlyMatchesPredicatedBruteForce) {
  const Matrix corpus = RandomMatrix(500, 8, 1);
  FlatIndex index(8);
  index.AddBatch(corpus);
  const auto even = [](VectorId id) { return id % 2 == 0; };
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto q = RandomVec(8, 100 + s);
    TopK expected(7);
    for (std::size_t r = 0; r < corpus.rows(); ++r) {
      if (r % 2 != 0) continue;
      expected.Push(static_cast<VectorId>(r),
                    L2SquaredDistance(q, corpus.Row(r)));
    }
    EXPECT_EQ(index.SearchFiltered(q, 7, even), expected.Take());
  }
}

TEST(FilteredSearchTest, ResultsAlwaysSatisfyPredicate) {
  const Matrix corpus = RandomMatrix(1000, 8, 2);
  HnswIndex index(8);
  index.AddBatch(corpus);
  const auto in_band = [](VectorId id) { return id >= 100 && id < 200; };
  const auto q = RandomVec(8, 101);
  const auto results = index.SearchFiltered(q, 10, in_band);
  EXPECT_EQ(results.size(), 10u);
  for (const auto& n : results) {
    EXPECT_TRUE(in_band(n.id));
  }
}

TEST(FilteredSearchTest, FewerMatchesThanKReturnsAllMatches) {
  const Matrix corpus = RandomMatrix(100, 4, 3);
  FlatIndex index(4);
  index.AddBatch(corpus);
  const auto only_three = [](VectorId id) { return id < 3; };
  const auto q = RandomVec(4, 102);
  EXPECT_EQ(index.SearchFiltered(q, 10, only_three).size(), 3u);
  // Default (over-fetch) implementation through the base class too.
  HnswIndex hnsw(4);
  hnsw.AddBatch(corpus);
  EXPECT_EQ(hnsw.SearchFiltered(q, 10, only_three).size(), 3u);
}

TEST(FilteredSearchTest, NullFilterEqualsPlainSearch) {
  const Matrix corpus = RandomMatrix(200, 4, 4);
  FlatIndex index(4);
  index.AddBatch(corpus);
  const auto q = RandomVec(4, 103);
  EXPECT_EQ(index.SearchFiltered(q, 5, nullptr), index.Search(q, 5));
}

TEST(FilteredSearchTest, HnswOverFetchRecallIsHigh) {
  const Matrix corpus = RandomMatrix(2000, 16, 5);
  HnswIndex index(16, {.ef_search = 128});
  index.AddBatch(corpus);
  FlatIndex exact(16);
  exact.AddBatch(corpus);
  const auto third = [](VectorId id) { return id % 3 == 0; };
  double recall = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto q = RandomVec(16, 200 + s);
    recall += RecallAtK(index.SearchFiltered(q, 10, third),
                        exact.SearchFiltered(q, 10, third));
  }
  EXPECT_GT(recall / 10, 0.8);
}

// --------------------------------------------------------- FilterRouter --

ApproxCacheOptions RouterOpts() {
  ApproxCacheOptions opts;
  opts.capacity = 4;
  opts.tolerance = 1.0f;
  return opts;
}

TEST(FilteredRouterTest, TagsAreIsolated) {
  FilteredCacheRouter router(2, RouterOpts());
  const std::vector<float> q = {1, 1};
  router.Insert(/*tag=*/7, q, {100});
  // Same embedding, different filter: must MISS (the guarded bug class).
  EXPECT_FALSE(router.Lookup(/*tag=*/8, q).hit);
  EXPECT_FALSE(router.Lookup(kNoFilter, q).hit);
  // Same tag: hit with the right documents.
  const auto hit = router.Lookup(7, q);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.value[0], 100);
  EXPECT_EQ(router.tag_count(), 3u);  // 7, 8, and kNoFilter were touched
}

TEST(FilteredRouterTest, PerTagCapacity) {
  FilteredCacheRouter router(2, RouterOpts());  // capacity 4 per tag
  for (int i = 0; i < 10; ++i) {
    router.Insert(1, std::vector<float>{static_cast<float>(i * 10), 0},
                  {i});
    router.Insert(2, std::vector<float>{static_cast<float>(i * 10), 1},
                  {i});
  }
  EXPECT_EQ(router.CacheFor(1).size(), 4u);
  EXPECT_EQ(router.CacheFor(2).size(), 4u);
}

TEST(FilteredRouterTest, InvalidateDropsOneTagOnly) {
  FilteredCacheRouter router(2, RouterOpts());
  const std::vector<float> q = {0, 0};
  router.Insert(1, q, {1});
  router.Insert(2, q, {2});
  router.Invalidate(1);
  EXPECT_FALSE(router.Lookup(1, q).hit);
  EXPECT_TRUE(router.Lookup(2, q).hit);
}

TEST(FilteredRouterTest, TotalStatsAggregates) {
  FilteredCacheRouter router(2, RouterOpts());
  const std::vector<float> q = {0, 0};
  router.Insert(1, q, {1});
  router.Lookup(1, q);  // hit
  router.Lookup(2, q);  // miss (different tag)
  const auto total = router.TotalStats();
  EXPECT_EQ(total.insertions, 1u);
  EXPECT_EQ(total.hits, 1u);
  EXPECT_EQ(total.misses, 1u);
}

}  // namespace
}  // namespace proximity
