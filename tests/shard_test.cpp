// Sharded scatter-gather layer + batching driver (DESIGN.md §8).
//
// The load-bearing claim: for exact indexes, sharding is invisible —
// ShardedIndex over FlatIndex returns bit-identical top-k to the
// unsharded index for any shard count, because the batch kernels are
// bit-identical per pair and the merge uses the same (distance, id)
// order as every index's TopK. Approximate indexes get a recall-parity
// bound instead. The BatchingDriver tests pin the serving invariant:
// every submitted query is exactly one of {hit, retrieved, coalesced}
// and none is dropped, even when Shutdown lands mid-batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "rag/batching_driver.h"
#include "vecmath/matrix.h"
#include "one_tenant.h"

namespace proximity {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(0, dim);
  m.Reserve(rows);
  std::vector<float> row(dim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& x : row) x = static_cast<float>(rng.Gaussian(0, 1));
    m.AppendRow(row);
  }
  return m;
}

void ExpectBitIdentical(const std::vector<Neighbor>& a,
                        const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    // Bit equality, not approximate: the kernels guarantee the same
    // float for the same pair regardless of batch position.
    EXPECT_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

double RecallAtK(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& truth) {
  std::set<VectorId> truth_ids;
  for (const auto& n : truth) truth_ids.insert(n.id);
  std::size_t found = 0;
  for (const auto& n : got) found += truth_ids.count(n.id);
  return truth.empty() ? 1.0
                       : static_cast<double>(found) /
                             static_cast<double>(truth.size());
}

// ---------------------------------------------------- exactness (flat) --

// Acceptance gate: shards ∈ {1, 2, 8} over a >=100k-vector corpus must
// reproduce the unsharded FlatIndex top-k bit for bit, Search and
// SearchBatch alike.
TEST(ShardedIndexTest, FlatBitIdenticalAcrossShardCounts) {
  constexpr std::size_t kRows = 100000;
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kK = 10;
  const Matrix corpus = RandomMatrix(kRows, kDim, 7);
  const Matrix queries = RandomMatrix(16, kDim, 8);

  IndexSpec spec;
  spec.kind = "flat";
  const auto unsharded = BuildIndex(spec, corpus);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    ShardedIndexOptions opts;
    opts.num_shards = shards;
    const auto sharded = BuildShardedIndex(spec, corpus, opts);
    ASSERT_EQ(sharded->num_shards(), shards);
    ASSERT_EQ(sharded->size(), kRows);

    const auto batch = sharded->SearchBatch(queries, kK);
    ASSERT_EQ(batch.size(), queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto truth = unsharded->Search(queries.Row(q), kK);
      const auto single = sharded->Search(queries.Row(q), kK);
      ExpectBitIdentical(single, truth);
      ExpectBitIdentical(batch[q], truth);
    }
  }
}

// The pool is an execution detail, not a semantic one: at every shard
// count, whether a shard's queries run as one block (Search, or enough
// shards to fill the pool) or split into several (SearchBatch on few
// shards), the answer is the unsharded FlatIndex's, bit for bit. 5001
// rows leave the last stripe short.
TEST(ShardedIndexTest, QueryBlocksMatchUnshardedFlat) {
  const Matrix corpus = RandomMatrix(5001, 16, 11);
  const Matrix queries = RandomMatrix(8, 16, 12);
  IndexSpec spec;
  spec.kind = "flat";
  FlatIndex unsharded(16);
  unsharded.AddBatch(corpus);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ShardedIndexOptions opts;
    opts.num_shards = shards;
    const auto sharded = BuildShardedIndex(spec, corpus, opts);
    ASSERT_EQ(sharded->num_shards(), shards);
    const auto batch = sharded->SearchBatch(queries, 5);
    ASSERT_EQ(batch.size(), queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto truth = unsharded.Search(queries.Row(q), 5);
      ExpectBitIdentical(sharded->Search(queries.Row(q), 5), truth);
      ExpectBitIdentical(batch[q], truth);
    }
  }
}

// BuildShardedIndex is the one-partition case of BuildPartitionedIndex:
// both cut ceil(rows / shards)-row stripes in corpus order, so shard s
// holds rows [s * chunk, ...) and a row's global id is its row number.
TEST(ShardedIndexTest, ShardedBuildIsTheOnePartitionCase) {
  const Matrix corpus = RandomMatrix(10, 4, 13);
  IndexSpec spec;
  spec.kind = "flat";
  ShardedIndexOptions opts;
  opts.num_shards = 4;
  const auto sharded = BuildShardedIndex(spec, corpus, opts);
  const auto partition = BuildPartitionedIndex(spec, corpus, 0, 1, opts);
  for (const ShardedIndex* index : {sharded.get(), partition.get()}) {
    ASSERT_EQ(index->num_shards(), 4u);
    std::size_t row = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(index->shard(s).size(), s < 3 ? 3u : 1u) << "shard " << s;
      for (std::size_t j = 0; j < index->shard(s).size(); ++j, ++row) {
        EXPECT_EQ(index->shard(s).Search(corpus.Row(row), 1)[0].id,
                  static_cast<VectorId>(j));
        const auto found = index->Search(corpus.Row(row), 1);
        EXPECT_EQ(found[0].id, static_cast<VectorId>(row));
        EXPECT_EQ(found[0].distance, 0.0f);
      }
    }
    EXPECT_EQ(row, corpus.rows());
  }
}

// The ceiling cut runs out of rows before the fourth shard of 9 rows
// (3/3/3): it makes three shards rather than an empty fourth one, which
// an IVF shard could not even train on. Both kinds stay exact here
// (IVF probes all of its three lists), bit for bit the unsharded scan.
TEST(ShardedIndexTest, CutThatRunsOutOfRowsMakesNoEmptyShard) {
  const Matrix corpus = RandomMatrix(9, 4, 15);
  const Matrix queries = RandomMatrix(6, 4, 16);
  FlatIndex unsharded(4);
  unsharded.AddBatch(corpus);
  ShardedIndexOptions opts;
  opts.num_shards = 4;
  for (const char* kind : {"flat", "ivf_flat"}) {
    SCOPED_TRACE(kind);
    IndexSpec spec;
    spec.kind = kind;
    const auto sharded = BuildShardedIndex(spec, corpus, opts);
    ASSERT_EQ(sharded->num_shards(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(sharded->shard(s).size(), 3u) << "shard " << s;
    }
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      ExpectBitIdentical(sharded->Search(queries.Row(q), 9),
                         unsharded.Search(queries.Row(q), 9));
    }
  }
}

// Shards build in parallel on the pool, each with its own build memo;
// every one must be the graph a serial Add loop builds over its rows.
TEST(ShardedIndexTest, ParallelHnswShardsMatchSerialBuilds) {
  const Matrix corpus = RandomMatrix(2001, 16, 19);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_m = 8;
  spec.hnsw_ef_construction = 48;
  ShardedIndexOptions opts;
  opts.num_shards = 4;
  const auto sharded = BuildShardedIndex(spec, corpus, opts);
  ASSERT_EQ(sharded->num_shards(), 4u);
  const std::size_t chunk = 501;  // ceil(2001 / 4)
  for (std::size_t s = 0; s < 4; ++s) {
    HnswIndex serial(16, {.M = spec.hnsw_m,
                          .ef_construction = spec.hnsw_ef_construction,
                          .ef_search = spec.hnsw_ef_search,
                          .seed = spec.seed});
    const std::size_t end = std::min((s + 1) * chunk, corpus.rows());
    for (std::size_t r = s * chunk; r < end; ++r) serial.Add(corpus.Row(r));
    std::ostringstream want, got;
    serial.SaveTo(want);
    sharded->shard(s).SaveTo(got);
    EXPECT_TRUE(want.str() == got.str()) << "shard " << s;
  }
}

// An empty corpus has no stripe to shard: BuildShardedIndex refuses it
// as BuildPartitionedIndex refuses an empty partition.
TEST(ShardedIndexTest, EmptyCorpusThrows) {
  IndexSpec spec;
  spec.kind = "flat";
  const Matrix empty(0, 8);
  EXPECT_THROW(BuildShardedIndex(spec, empty), std::invalid_argument);
  EXPECT_THROW(BuildPartitionedIndex(spec, empty, 0, 1),
               std::invalid_argument);
}

TEST(ShardedIndexTest, FilteredSearchSeesGlobalIds) {
  const Matrix corpus = RandomMatrix(2000, 8, 21);
  IndexSpec spec;
  spec.kind = "flat";
  ShardedIndexOptions opts;
  opts.num_shards = 4;
  const auto sharded = BuildShardedIndex(spec, corpus, opts);
  const auto unsharded = BuildIndex(spec, corpus);

  // Keep only even global ids; results must match the unsharded
  // filtered search and contain no odd id.
  const VectorIndex::Filter even = [](VectorId id) { return id % 2 == 0; };
  const auto query = RandomMatrix(1, 8, 22);
  const auto got = sharded->SearchFiltered(query.Row(0), 10, even);
  const auto truth = unsharded->SearchFiltered(query.Row(0), 10, even);
  for (const auto& n : got) EXPECT_EQ(n.id % 2, 0u);
  ExpectBitIdentical(got, truth);
}

// ------------------------------------------------- merge determinism --

// Duplicate vectors spread across shards produce equal distances; the
// merge must order ties by ascending global id, exactly as a single
// index's TopK would.
TEST(ShardedIndexTest, MergeBreaksTiesById) {
  constexpr std::size_t kDim = 4;
  const std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};

  // Interleave the same vector across two shards: shard 0 holds global
  // ids {0, 2}, shard 1 holds {1, 3}.
  std::vector<std::unique_ptr<VectorIndex>> shards;
  std::vector<std::vector<VectorId>> global_ids;
  for (int s = 0; s < 2; ++s) {
    auto flat = std::make_unique<FlatIndex>(kDim);
    flat->Add(v);
    flat->Add(v);
    shards.push_back(std::move(flat));
    global_ids.push_back({static_cast<VectorId>(s),
                          static_cast<VectorId>(s + 2)});
  }
  const ShardedIndex index(std::move(shards), std::move(global_ids));

  const auto got = index.Search(v, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, i);
    EXPECT_EQ(got[i].distance, 0.0f);
  }
}

TEST(ShardedIndexTest, AddRoutesToSmallestShardWithGlobalId) {
  constexpr std::size_t kDim = 4;
  std::vector<std::unique_ptr<VectorIndex>> shards;
  std::vector<std::vector<VectorId>> global_ids;
  // Uneven start: shard 0 has two vectors, shard 1 has one.
  auto s0 = std::make_unique<FlatIndex>(kDim);
  s0->Add(std::vector<float>{0, 0, 0, 0});
  s0->Add(std::vector<float>{1, 0, 0, 0});
  auto s1 = std::make_unique<FlatIndex>(kDim);
  s1->Add(std::vector<float>{0, 1, 0, 0});
  shards.push_back(std::move(s0));
  shards.push_back(std::move(s1));
  global_ids.push_back({0, 1});
  global_ids.push_back({2});
  ShardedIndex index(std::move(shards), std::move(global_ids));

  // Next insertion gets the next global id regardless of target shard.
  const std::vector<float> added{9, 9, 9, 9};
  EXPECT_EQ(index.Add(added), 3u);
  EXPECT_EQ(index.size(), 4u);
  // The smaller shard (1) received it.
  EXPECT_EQ(index.shard(1).size(), 2u);

  const auto got = index.Search(added, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_EQ(got[0].distance, 0.0f);
}

// -------------------------------------------- recall parity (approx) --

// Approximate indexes are not bit-stable under sharding, but each shard
// runs its full search over a smaller sub-corpus, so recall must stay
// in the same band as the unsharded index.
TEST(ShardedIndexTest, ApproximateRecallParity) {
  constexpr std::size_t kRows = 2000;
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kK = 10;
  const Matrix corpus = RandomMatrix(kRows, kDim, 31);
  const Matrix queries = RandomMatrix(32, kDim, 32);

  IndexSpec flat_spec;
  flat_spec.kind = "flat";
  const auto exact = BuildIndex(flat_spec, corpus);

  for (const char* kind : {"hnsw", "ivf_flat"}) {
    IndexSpec spec;
    spec.kind = kind;
    const auto unsharded = BuildIndex(spec, corpus);
    ShardedIndexOptions opts;
    opts.num_shards = 4;
    const auto sharded = BuildShardedIndex(spec, corpus, opts);

    double base = 0.0, shard = 0.0;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto truth = exact->Search(queries.Row(q), kK);
      base += RecallAtK(unsharded->Search(queries.Row(q), kK), truth);
      shard += RecallAtK(sharded->Search(queries.Row(q), kK), truth);
    }
    base /= static_cast<double>(queries.rows());
    shard /= static_cast<double>(queries.rows());
    // Parity with slack for partition boundary effects.
    EXPECT_GE(shard, base - 0.05) << kind;
    EXPECT_GE(shard, 0.7) << kind;
  }
}

// ------------------------------------------------------ batching driver --

ApproxCacheOptions SmallCache() {
  ApproxCacheOptions opts;
  opts.capacity = 64;
  opts.tolerance = 2.0f;
  return opts;
}

// The serving invariant, under real contention: every query completes
// and is counted exactly once as hit, retrieved, or coalesced.
TEST(BatchingDriverTest, ConcurrentSubmitsAccountForEveryQuery) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  const Matrix corpus = RandomMatrix(1000, kDim, 41);
  IndexSpec spec;
  spec.kind = "flat";
  ShardedIndexOptions sopts;
  sopts.num_shards = 2;
  const auto index = BuildShardedIndex(spec, corpus, sopts);
  BatchingDriverOptions opts;
  opts.max_batch = 8;
  opts.top_k = 5;
  OneTenant stack(*index, SmallCache(), nullptr, opts);
  BatchingDriver& driver = stack.driver;

  // A small pool of distinct queries so later submits hit the cache.
  const Matrix pool = RandomMatrix(24, kDim, 42);
  std::atomic<std::size_t> empty_results{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto row = pool.Row((t * kPerThread + i) % pool.rows());
        const auto docs = driver.Query(row);
        if (docs.size() != opts.top_k) empty_results.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  driver.Shutdown();

  EXPECT_EQ(empty_results.load(), 0u);
  const auto stats = driver.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.hits + stats.retrieved + stats.coalesced,
            stats.completed);
  EXPECT_GT(stats.batches, 0u);
  // 24 distinct queries, 256 submits: the cache must absorb repeats.
  EXPECT_GT(stats.hits, 0u);
}

// Shutdown with work queued: the flusher is parked while ten queries
// queue up and is released just before Shutdown, which then races it
// for the queue. Either way every query completes before Shutdown
// returns.
TEST(BatchingDriverTest, ShutdownDrainsPendingQueries) {
  constexpr std::size_t kDim = 8;
  const Matrix corpus = RandomMatrix(200, kDim, 51);
  FlatIndex index(kDim);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  BatchingDriverOptions opts;
  opts.top_k = 3;
  OneTenant stack(index, SmallCache(), nullptr, opts);
  BatchingDriver& driver = stack.driver;
  ParkedFlusher park(driver, kDim);

  const Matrix queries = RandomMatrix(10, kDim, 52);
  std::vector<std::future<std::vector<VectorId>>> futures;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto row = queries.Row(q);
    futures.push_back(
        driver.Submit(std::vector<float>(row.begin(), row.end())));
  }
  EXPECT_EQ(driver.pending(), queries.rows());
  park.Release();
  driver.Shutdown();

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().size(), opts.top_k);
  }
  const auto stats = driver.stats();
  EXPECT_EQ(stats.completed, queries.rows() + 1);  // + the decoy
  EXPECT_EQ(stats.expired, 1u);                    // the decoy
  EXPECT_EQ(stats.hits + stats.retrieved + stats.coalesced,
            stats.completed - stats.expired);

  EXPECT_THROW(driver.Submit(std::vector<float>(kDim, 0.0f)),
               std::runtime_error);
}

// Identical embeddings within one flush coalesce onto a single
// retrieval instead of issuing duplicate searches.
TEST(BatchingDriverTest, IdenticalMissesCoalesceWithinBatch) {
  constexpr std::size_t kDim = 8;
  const Matrix corpus = RandomMatrix(200, kDim, 61);
  FlatIndex index(kDim);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  BatchingDriverOptions opts;
  opts.top_k = 4;
  OneTenant stack(index, SmallCache(), nullptr, opts);
  BatchingDriver& driver = stack.driver;
  ParkedFlusher park(driver, kDim);

  const std::vector<float> q(kDim, 0.25f);
  std::vector<std::future<std::vector<VectorId>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(driver.Submit(q));
  }
  park.Release();
  driver.Flush();

  std::vector<VectorId> first;
  for (auto& f : futures) {
    const auto docs = f.get();
    if (first.empty()) first = docs;
    EXPECT_EQ(docs, first);  // followers get the leader's documents
  }
  driver.Shutdown();

  const auto stats = driver.stats();
  EXPECT_EQ(stats.retrieved, 1u);
  EXPECT_EQ(stats.coalesced + stats.hits, 5u);
}

// A lone miss on an idle driver flushes as soon as the flusher sees it:
// nothing holds it back waiting for company that never comes. A flush
// timer of T makes every such wait at least T; 200 us was the old
// default. A hit never queues at all: the probe step serves it on the
// submitting thread.
TEST(BatchingDriverTest, LoneSubmitNeverWaitsForATimer) {
  constexpr std::size_t kDim = 8;
  FlatIndex index(kDim);
  const Matrix corpus = RandomMatrix(200, kDim, 81);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  OneTenant stack(index, SmallCache());
  BatchingDriver& driver = stack.driver;

  const Matrix queries = RandomMatrix(41, kDim, 82);
  std::vector<Nanos> waits;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    auto done = std::make_shared<std::promise<BatchResult>>();
    auto result = done->get_future();
    const auto row = queries.Row(q);
    driver.SubmitAsync(std::vector<float>(row.begin(), row.end()), {},
                       [done](BatchResult r) {
                         done->set_value(std::move(r));
                       });
    const BatchResult r = result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    if (r.cache_hit) {
      EXPECT_EQ(r.queue_wait_ns, 0);
    } else {
      waits.push_back(r.queue_wait_ns);
    }
  }
  ASSERT_FALSE(waits.empty());
  const auto median = waits.begin() + std::ssize(waits) / 2;
  std::nth_element(waits.begin(), median, waits.end());
  EXPECT_LT(*median, Nanos{200'000})
      << "median queue wait of a lone submit: " << *median << " ns";
  // Every miss flushed as its own batch.
  EXPECT_EQ(driver.stats().batches, waits.size());
}

// A FlatIndex whose SearchBatch holds the flusher until Release(), so a
// test can submit while a retrieval is in flight.
class GatedIndex final : public VectorIndex {
 public:
  explicit GatedIndex(const FlatIndex& inner) : inner_(inner) {}
  std::size_t dim() const noexcept override { return inner_.dim(); }
  Metric metric() const noexcept override { return inner_.metric(); }
  std::size_t size() const noexcept override { return inner_.size(); }
  VectorId Add(std::span<const float>) override {
    throw std::logic_error("GatedIndex is read-only");
  }
  VectorId AddBatch(const Matrix&) override {
    throw std::logic_error("GatedIndex is read-only");
  }
  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override {
    return inner_.Search(query, k);
  }
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, std::size_t k) const override {
    entered_.set_value();
    released_.wait();
    return inner_.SearchBatch(queries, k);
  }
  std::string Describe() const override { return "gated"; }
  void SaveTo(std::ostream& os) const override { inner_.SaveTo(os); }

  /// Blocks until the first SearchBatch is in flight.
  void AwaitSearch() { entered_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  const FlatIndex& inner_;
  mutable std::promise<void> entered_;
  std::shared_future<void> entered_future_ = entered_.get_future().share();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// A τ-twin that misses while its twin's search is in flight queues, and
// the flush finds the twin's insert: one retrieval plus one hit, as when
// every probe ran at flush, and one cache lookup per request.
TEST(BatchingDriverTest, TwinMissedDuringSearchHitsAtFlush) {
  constexpr std::size_t kDim = 8;
  FlatIndex flat(kDim);
  const Matrix corpus = RandomMatrix(100, kDim, 91);
  for (std::size_t r = 0; r < corpus.rows(); ++r) flat.Add(corpus.Row(r));
  GatedIndex index(flat);
  OneTenant stack(index, SmallCache());
  BatchingDriver& driver = stack.driver;

  const Matrix queries = RandomMatrix(1, kDim, 92);
  const auto q = queries.Row(0);
  auto first = driver.Submit({q.begin(), q.end()});
  index.AwaitSearch();
  auto twin = driver.Submit({q.begin(), q.end()});
  EXPECT_EQ(driver.pending(), 1u);  // the twin missed and queued
  index.Release();
  EXPECT_EQ(first.get(), twin.get());
  driver.Shutdown();

  const BatchingDriverStats stats = driver.stats();
  EXPECT_EQ(stats.retrieved, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  const ApproxCacheStats cstats = stack.cache().stats();
  EXPECT_EQ(cstats.lookups, 2u);
  EXPECT_EQ(cstats.hits, 1u);
  EXPECT_EQ(cstats.misses, 1u);
}

// Post-shutdown submissions fail fast — exception from the future path,
// kUnavailable callback from the async path — and never deadlock. The
// concurrent variant races Submit against Shutdown from many threads
// (the TSan workout): every submission either completes with documents
// or fails with the shutdown error; none hangs, none is dropped.
TEST(BatchingDriverTest, SubmitAfterShutdownFailsFast) {
  constexpr std::size_t kDim = 8;
  FlatIndex index(kDim);
  const Matrix corpus = RandomMatrix(50, kDim, 71);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  HashEmbedderOptions eopts;
  eopts.dim = kDim;
  const HashEmbedder embedder(eopts);
  OneTenant stack(index, SmallCache(), &embedder);
  BatchingDriver& driver = stack.driver;
  driver.Shutdown();

  EXPECT_THROW(driver.Submit(std::vector<float>(kDim, 0.1f)),
               std::runtime_error);
  EXPECT_THROW(driver.SubmitText("after shutdown"), std::runtime_error);

  // The async path reports kUnavailable through the callback instead.
  RequestStatus got = RequestStatus::kOk;
  driver.SubmitAsync(std::vector<float>(kDim, 0.1f), {},
                     [&](BatchResult r) { got = r.status; });
  EXPECT_EQ(got, RequestStatus::kUnavailable);
  got = RequestStatus::kOk;
  driver.SubmitTextAsync("also after shutdown", {},
                         [&](BatchResult r) { got = r.status; });
  EXPECT_EQ(got, RequestStatus::kUnavailable);
}

TEST(BatchingDriverTest, ConcurrentSubmitVersusShutdownNeverDeadlocks) {
  constexpr std::size_t kDim = 8;
  FlatIndex index(kDim);
  const Matrix corpus = RandomMatrix(50, kDim, 72);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  BatchingDriverOptions opts;
  opts.max_batch = 4;
  opts.top_k = 2;
  OneTenant stack(index, SmallCache(), nullptr, opts);
  BatchingDriver& driver = stack.driver;

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::atomic<std::uint64_t> completed{0}, rejected{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        std::vector<float> q(kDim);
        for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 1));
        try {
          auto fut = driver.Submit(std::move(q));
          // The future resolves either with documents or with the
          // drain-time rejection — but always resolves.
          try {
            if (!fut.get().empty()) ++completed;
          } catch (const std::exception&) {
            ++rejected;
          }
        } catch (const std::runtime_error&) {
          ++rejected;  // Submit itself refused: driver already stopped
        }
      }
    });
  }
  // Land Shutdown mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  driver.Shutdown();
  for (auto& th : threads) th.join();

  EXPECT_EQ(completed.load() + rejected.load(), kThreads * kPerThread);
  const auto stats = driver.stats();
  EXPECT_EQ(stats.hits + stats.retrieved + stats.coalesced + stats.shed +
                stats.expired,
            stats.completed);
}

TEST(BatchingDriverTest, SubmitTextMatchesEmbeddedSubmit) {
  HashEmbedderOptions eopts;
  eopts.dim = 32;
  const HashEmbedder embedder(eopts);

  const std::vector<std::string> docs_text{
      "the cache returns approximate neighbors",
      "vector databases scale with shards",
      "retrieval augmented generation pipeline",
      "microbatching amortizes embedding calls",
      "thread pools scatter and gather work",
      "similarity tolerance controls hit rate",
  };
  const Matrix corpus = embedder.EmbedBatch(docs_text);
  FlatIndex index(eopts.dim);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  BatchingDriverOptions opts;
  opts.top_k = 3;
  OneTenant stack(index, SmallCache(), &embedder, opts);
  BatchingDriver& driver = stack.driver;

  const std::string query = "approximate cache neighbors";
  auto via_text = driver.SubmitText(query);
  auto via_embed = driver.Submit(embedder.Embed(query));
  EXPECT_EQ(via_text.get(), via_embed.get());
  driver.Shutdown();
}

}  // namespace
}  // namespace proximity
