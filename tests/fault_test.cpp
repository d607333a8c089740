// Failure-injection and edge-case tests: how the cache, retriever, and
// sweep harness behave when the database misbehaves or inputs are
// degenerate.
#include <gtest/gtest.h>

#include <memory>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "index/slow_storage_index.h"
#include "rag/experiment.h"
#include "rag/retriever.h"
#include "one_tenant.h"

namespace proximity {
namespace {

/// Test double: a VectorIndex whose Search throws on selected calls.
class FlakyIndex final : public VectorIndex {
 public:
  FlakyIndex(std::unique_ptr<VectorIndex> inner, int fail_every)
      : inner_(std::move(inner)), fail_every_(fail_every) {}

  std::size_t dim() const noexcept override { return inner_->dim(); }
  Metric metric() const noexcept override { return inner_->metric(); }
  std::size_t size() const noexcept override { return inner_->size(); }
  VectorId Add(std::span<const float> vec) override {
    return inner_->Add(vec);
  }
  std::string Describe() const override { return "flaky"; }

  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override {
    ++calls_;
    if (fail_every_ > 0 && calls_ % fail_every_ == 0) {
      throw std::runtime_error("injected database failure");
    }
    return inner_->Search(query, k);
  }

  int calls() const noexcept { return calls_; }

 private:
  std::unique_ptr<VectorIndex> inner_;
  int fail_every_;
  mutable int calls_ = 0;
};

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

std::unique_ptr<FlakyIndex> MakeFlaky(int fail_every) {
  auto inner = std::make_unique<FlatIndex>(4);
  inner->AddBatch(RandomMatrix(100, 4, 1));
  return std::make_unique<FlakyIndex>(std::move(inner), fail_every);
}

TEST(FaultTest, RetrieverPropagatesDatabaseFailure) {
  auto flaky = MakeFlaky(/*fail_every=*/1);  // always fails
  OneTenant stack(*flaky, {.tolerance = 0.0f}, nullptr, {.top_k = 5});
  Retriever retriever(stack.driver);
  const std::vector<float> q = {0, 0, 0, 0};
  EXPECT_THROW(retriever.Retrieve(q), std::runtime_error);
}

TEST(FaultTest, FailedRetrievalDoesNotPolluteCache) {
  auto flaky = MakeFlaky(/*fail_every=*/1);  // always fails
  ApproxCacheOptions opts;
  opts.capacity = 4;
  opts.tolerance = 100.0f;
  OneTenant stack(*flaky, opts, nullptr, {.top_k = 5});
  const ProximityCache& cache = stack.cache();
  Retriever retriever(stack.driver);
  const std::vector<float> q = {1, 1, 1, 1};
  EXPECT_THROW(retriever.Retrieve(q), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // nothing half-inserted
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(FaultTest, CacheAbsorbsIntermittentFailures) {
  // With a warm cache, hits keep flowing even while the database is down:
  // the availability benefit of caching layers.
  auto flaky = MakeFlaky(/*fail_every=*/0);  // healthy for warm-up
  ApproxCacheOptions opts;
  opts.capacity = 16;
  opts.tolerance = 0.5f;
  OneTenant stack(*flaky, opts, nullptr, {.top_k = 5});
  Retriever retriever(stack.driver);

  const std::vector<float> q = {0.5f, 0.5f, 0.5f, 0.5f};
  const auto warm = retriever.Retrieve(q);
  EXPECT_FALSE(warm.cache_hit);

  // Now the database "goes down" — but the cached neighborhood still
  // serves: a driver over the broken index shares the tenant's cache.
  auto broken = std::make_unique<FlakyIndex>(
      std::make_unique<FlatIndex>(4), /*fail_every=*/1);
  BatchingDriver broken_driver(*broken, stack.registry, nullptr,
                               {.top_k = 5});
  Retriever broken_retriever(broken_driver);
  const auto hit = broken_retriever.Retrieve(q);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.documents, warm.documents);
  // Outside the cached neighborhood the failure surfaces.
  const std::vector<float> far = {50, 50, 50, 50};
  EXPECT_THROW(broken_retriever.Retrieve(far), std::runtime_error);
}

TEST(FaultTest, SlowStorageOverFlakyIndexStillCharges) {
  VirtualClock clock;
  auto flaky = MakeFlaky(/*fail_every=*/1);
  SlowStorageIndex slow(std::move(flaky), {.fixed_ns = 100}, &clock);
  const std::vector<float> q = {0, 0, 0, 0};
  EXPECT_THROW(slow.Search(q, 1), std::runtime_error);
  // The failure happened before any results: no latency charged.
  EXPECT_EQ(clock.Now(), 0);
}

// ------------------------------------------------------------ Edge cases --

TEST(EdgeCaseTest, IndexReturningFewerThanTopK) {
  FlatIndex tiny(4);
  tiny.Add(std::vector<float>{1, 2, 3, 4});
  ApproxCacheOptions opts;
  opts.capacity = 4;
  opts.tolerance = 0.1f;
  OneTenant stack(tiny, opts, nullptr, {.top_k = 10});
  Retriever retriever(stack.driver);
  const std::vector<float> q = {0, 0, 0, 0};
  const auto r1 = retriever.Retrieve(q);
  EXPECT_EQ(r1.documents.size(), 1u);  // index only holds one vector
  const auto r2 = retriever.Retrieve(q);
  EXPECT_TRUE(r2.cache_hit);  // short lists are cached faithfully
  EXPECT_EQ(r2.documents, r1.documents);
}

TEST(EdgeCaseTest, EmptyIndexCachesEmptyResult) {
  FlatIndex empty(4);
  ApproxCacheOptions opts;
  opts.capacity = 4;
  opts.tolerance = 0.1f;
  OneTenant stack(empty, opts, nullptr, {.top_k = 5});
  Retriever retriever(stack.driver);
  const std::vector<float> q = {0, 0, 0, 0};
  EXPECT_TRUE(retriever.Retrieve(q).documents.empty());
  const auto r2 = retriever.Retrieve(q);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_TRUE(r2.documents.empty());
}

TEST(EdgeCaseTest, LatencySummaryWithoutBaselineIsEmpty) {
  // No tau = 0 cells -> no reduction rows (and no crash).
  std::vector<SweepCell> cells(2);
  cells[0].capacity = 10;
  cells[0].tolerance = 1.0;
  cells[1].capacity = 10;
  cells[1].tolerance = 2.0;
  const CsvTable summary = SweepRunner::LatencyReductionSummary(cells);
  EXPECT_EQ(summary.rows(), 0u);
}

TEST(EdgeCaseTest, EmbedderHandlesBatchEdges) {
  HashEmbedder embedder({.dim = 32});
  const Matrix empty = embedder.EmbedBatch({});
  EXPECT_EQ(empty.rows(), 0u);
  const Matrix one = embedder.EmbedBatch({""});
  EXPECT_EQ(one.rows(), 1u);
  for (float x : one.Row(0)) EXPECT_EQ(x, 0.f);
}

TEST(EdgeCaseTest, CacheWithCapacityOne) {
  ApproxCacheOptions opts;
  opts.capacity = 1;
  opts.tolerance = 0.1f;
  ProximityCache cache(2, opts);
  cache.Insert(std::vector<float>{0, 0}, {1});
  cache.Insert(std::vector<float>{5, 5}, {2});  // evicts the only entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup(std::vector<float>{0, 0}).hit);
  EXPECT_TRUE(cache.Lookup(std::vector<float>{5, 5}).hit);
}

}  // namespace
}  // namespace proximity
