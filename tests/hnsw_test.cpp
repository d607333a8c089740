// HNSW (src/index/hnsw_index.h): recall, graph shape, determinism and
// concurrent searches, plus the pin on the batch build's distance memo
// (DESIGN.md §5): AddBatch and AddRows must build the graph that a loop
// over Add builds, byte for byte. Concurrent searches share the
// visited-set pool, hence the suite's `tsan` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/hnsw_index.h"
#include "index/recall.h"
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

// Brute-force ground truth.
std::vector<Neighbor> BruteForce(const Matrix& corpus,
                                 std::span<const float> query, std::size_t k,
                                 Metric metric = Metric::kL2) {
  return SelectTopK(metric, query, corpus.data(), corpus.rows(),
                    corpus.dim(), k);
}

TEST(HnswTest, ExactOnTinySets) {
  const Matrix corpus = RandomMatrix(50, 8, 14);
  HnswIndex index(8, {.M = 8, .ef_construction = 64, .ef_search = 50});
  index.AddBatch(corpus);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto q = RandomVec(8, 600 + s);
    // With ef >= n the search is exhaustive on a connected graph.
    EXPECT_EQ(index.Search(q, 5), BruteForce(corpus, q, 5));
  }
}

TEST(HnswTest, HighRecallAtModerateEf) {
  const Matrix corpus = RandomMatrix(3000, 32, 15);
  HnswIndex index(32, {.M = 16, .ef_construction = 128, .ef_search = 64});
  index.AddBatch(corpus);
  double recall_sum = 0;
  for (std::uint64_t s = 0; s < 30; ++s) {
    const auto q = RandomVec(32, 700 + s);
    recall_sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
  }
  EXPECT_GT(recall_sum / 30, 0.9);
}

TEST(HnswTest, EfSearchImprovesRecall) {
  const Matrix corpus = RandomMatrix(3000, 32, 16);
  HnswIndex index(32, {.M = 8, .ef_construction = 64, .ef_search = 4});
  index.AddBatch(corpus);
  auto recall_at = [&](std::size_t ef) {
    index.set_ef_search(ef);
    double sum = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
      const auto q = RandomVec(32, 800 + s);
      sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
    }
    return sum / 20;
  };
  EXPECT_LT(recall_at(4), recall_at(128));
}

TEST(HnswTest, LevelsFollowGeometricDecay) {
  const Matrix corpus = RandomMatrix(2000, 4, 17);
  HnswIndex index(4, {.M = 16});
  index.AddBatch(corpus);
  std::size_t level0 = 0, level1plus = 0;
  for (VectorId id = 0; id < 2000; ++id) {
    if (index.NodeLevel(id) == 0) {
      ++level0;
    } else {
      ++level1plus;
    }
  }
  // With mult = 1/ln(16), P(level >= 1) = 1/16: expect ~125 of 2000.
  EXPECT_GT(level0, 1700u);
  EXPECT_GT(level1plus, 30u);
  EXPECT_LT(level1plus, 400u);
}

TEST(HnswTest, LinkListsRespectDegreeBounds) {
  const Matrix corpus = RandomMatrix(1000, 8, 18);
  HnswOptions opts;
  opts.M = 8;
  HnswIndex index(8, opts);
  index.AddBatch(corpus);
  for (VectorId id = 0; id < 1000; ++id) {
    for (int level = 0; level <= index.NodeLevel(id); ++level) {
      const auto& links = index.Links(id, level);
      const std::size_t bound = level == 0 ? opts.M * 2 : opts.M;
      EXPECT_LE(links.size(), bound);
      // No self-links, no duplicates.
      std::set<std::uint32_t> unique(links.begin(), links.end());
      EXPECT_EQ(unique.size(), links.size());
      EXPECT_FALSE(unique.contains(static_cast<std::uint32_t>(id)));
    }
  }
}

TEST(HnswTest, DeterministicForSameSeed) {
  const Matrix corpus = RandomMatrix(500, 8, 19);
  HnswIndex a(8, {.seed = 5});
  HnswIndex b(8, {.seed = 5});
  a.AddBatch(corpus);
  b.AddBatch(corpus);
  const auto q = RandomVec(8, 900);
  EXPECT_EQ(a.Search(q, 10), b.Search(q, 10));
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(4);
  index.Add(std::vector<float>{1, 2, 3, 4});
  const std::vector<float> q = {0, 0, 0, 0};
  const auto result = index.Search(q, 3);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);
}

TEST(HnswTest, RejectsTinyM) {
  EXPECT_THROW(HnswIndex(4, {.M = 1}), std::invalid_argument);
}

TEST(HnswTest, ConcurrentSearchesAreSafe) {
  const Matrix corpus = RandomMatrix(1000, 16, 20);
  HnswIndex index(16);
  index.AddBatch(corpus);
  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  const auto q = RandomVec(16, 1000);
  const auto expected = index.Search(q, 10);
  pool.ParallelFor(0, 100, [&](std::size_t) {
    if (index.Search(q, 10) != expected) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------- build memo --
// A batch build reads back distances it has already computed (each
// level-0 link's distance to its owner, and the heuristic's pair
// distances among a node's links); a lone Add computes them again. The
// saved graphs (vectors, levels, every link list in order, entry point,
// RNG state) must not differ by a byte.

std::string Saved(const HnswIndex& index) {
  std::ostringstream os;
  index.SaveTo(os);
  return os.str();
}

std::string BuiltByAddLoop(const Matrix& corpus, const HnswOptions& opts) {
  HnswIndex index(corpus.dim(), opts);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  return Saved(index);
}

std::string BuiltByAddBatch(const Matrix& corpus, const HnswOptions& opts) {
  HnswIndex index(corpus.dim(), opts);
  index.AddBatch(corpus);
  return Saved(index);
}

// Byte equality without printing two multi-kilobyte strings on failure.
void ExpectSameBytes(const std::string& want, const std::string& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto diff = std::mismatch(want.begin(), want.end(), got.begin());
  EXPECT_TRUE(diff.first == want.end())
      << "first differing byte at offset " << (diff.first - want.begin())
      << " of " << want.size();
}

TEST(HnswBuildTest, BatchMatchesAddLoopForEveryMetricAndStorage) {
  const Matrix corpus = RandomMatrix(600, 16, 40);
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (const StorageLayout storage :
         {StorageLayout::kFloat32, StorageLayout::kSq8}) {
      SCOPED_TRACE(testing::Message()
                   << MetricName(metric) << " " << StorageLayoutName(storage));
      HnswOptions opts;  // the default M
      opts.metric = metric;
      opts.ef_construction = 64;
      opts.storage = storage;
      ExpectSameBytes(BuiltByAddLoop(corpus, opts),
                      BuiltByAddBatch(corpus, opts));
    }
  }
}

// M = 4 caps level 0 at 8 links, so over 2000 rows every list overflows
// and is re-pruned many times, each time rewriting the pair memo. Every
// seventh row repeats an earlier one: zero distances and (distance, id)
// ties go through the same order in both builds.
TEST(HnswBuildTest, BatchMatchesAddLoopWhenEveryListOverflows) {
  Matrix corpus = RandomMatrix(2000, 12, 41);
  for (std::size_t r = 7; r < corpus.rows(); r += 7) {
    const std::vector<float> earlier(corpus.Row(r / 2).begin(),
                                     corpus.Row(r / 2).end());
    corpus.SetRow(r, earlier);
  }
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    SCOPED_TRACE(MetricName(metric));
    const HnswOptions opts{
        .metric = metric, .M = 4, .ef_construction = 32, .seed = 9};
    ExpectSameBytes(BuiltByAddLoop(corpus, opts),
                    BuiltByAddBatch(corpus, opts));
  }
}

// Rows added by an earlier call have no memo: the second batch reads
// their link distances afresh, as a lone Add does.
TEST(HnswBuildTest, BatchOntoAnExistingGraphMatchesAddLoop) {
  const Matrix corpus = RandomMatrix(1500, 8, 42);
  const HnswOptions opts{.M = 6, .ef_construction = 40, .seed = 3};
  HnswIndex index(8, opts);
  EXPECT_EQ(index.AddRows(corpus, 0, 700), 0);
  EXPECT_EQ(index.AddRows(corpus, 700, 1500), 700);
  ExpectSameBytes(BuiltByAddLoop(corpus, opts), Saved(index));
}

TEST(HnswBuildTest, AddRowsRejectsABadRange) {
  const Matrix corpus = RandomMatrix(10, 4, 43);
  HnswIndex index(4);
  EXPECT_THROW(index.AddRows(corpus, 5, 11), std::invalid_argument);
  EXPECT_THROW(index.AddRows(corpus, 6, 5), std::invalid_argument);
  EXPECT_THROW(HnswIndex(8).AddBatch(corpus), std::invalid_argument);
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace proximity
