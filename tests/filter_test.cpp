// Tests for filtered search: VectorIndex::SearchFiltered's over-fetch and
// post-filter, run on Flat and HNSW indexes. On an exact index it must
// equal a predicated brute-force scan.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace proximity
