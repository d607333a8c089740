// Tests for the cache's own lock and the multi-user stream driver:
// linearizable counters under racing Lookup/Insert, Serve racing the
// flusher, and end-to-end invariants under racing client threads.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <future>
#include <thread>

#include "cache/approx_cache.h"
#include "common/log.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "obs/metrics_registry.h"
#include "rag/batching_driver.h"
#include "rag/retriever.h"
#include "workload/benchmark_spec.h"
#include "one_tenant.h"

namespace proximity {
namespace {

ApproxCacheOptions CacheOpts(std::size_t capacity, float tolerance) {
  ApproxCacheOptions opts;
  opts.capacity = capacity;
  opts.tolerance = tolerance;
  return opts;
}

std::vector<float> Vec4(float a, float b = 0, float c = 0, float d = 0) {
  return {a, b, c, d};
}

TEST(ConcurrentCacheTest, BasicLookupInsert) {
  ProximityCache cache(4, CacheOpts(10, 1.0f));
  EXPECT_FALSE(cache.Lookup(Vec4(0)).hit);
  cache.Insert(Vec4(0), {7, 8});
  const auto hit = cache.Lookup(Vec4(0.5f));
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.value, (std::vector<VectorId>{7, 8}));
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ConcurrentCacheTest, RetrieverCachesResultAcrossThreads) {
  FlatIndex index(4);
  index.Add(Vec4(5));
  index.Add(Vec4(9));
  index.Add(Vec4(0));
  OneTenant stack(index, CacheOpts(64, 1.0f), nullptr, {.top_k = 3});
  BatchingDriver& driver = stack.driver;
  Retriever first(driver);
  const auto filled = first.Retrieve(Vec4(5));
  EXPECT_FALSE(filled.cache_hit);
  EXPECT_EQ(filled.documents, (std::vector<VectorId>{0, 1, 2}));

  // Four threads Serve their τ-similar query on their own thread while
  // a fifth keeps Submit traffic flowing through the flusher, so Serve
  // and the flusher run batches at the same time over the one tenant
  // cache. Every Serve is a hit; none reaches the database.
  constexpr int kThreads = 4;
  constexpr int kSubmits = 16;  // distinct, mutually far misses
  std::barrier start(kThreads + 1);
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Retriever retriever(driver);
      start.arrive_and_wait();
      const auto r = retriever.Retrieve(Vec4(5.1f));
      if (r.cache_hit && r.documents == filled.documents) ++served;
    });
  }
  threads.emplace_back([&] {
    start.arrive_and_wait();
    std::vector<std::future<std::vector<VectorId>>> futures;
    for (int i = 0; i < kSubmits; ++i) {
      futures.push_back(driver.Submit(Vec4(100.0f + 10.0f * i)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().size(), 3u);
  });
  for (auto& t : threads) t.join();
  driver.Shutdown();

  EXPECT_EQ(served.load(), kThreads);
  const ApproxCacheStats cs = stack.cache().stats();
  EXPECT_EQ(cs.insertions, static_cast<std::uint64_t>(1 + kSubmits));
  EXPECT_EQ(cs.hits, static_cast<std::uint64_t>(kThreads));
  const BatchingDriverStats ds = driver.stats();
  EXPECT_EQ(ds.submitted, static_cast<std::uint64_t>(1 + kThreads + kSubmits));
  EXPECT_EQ(ds.hits, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(ds.retrieved, static_cast<std::uint64_t>(1 + kSubmits));
  EXPECT_EQ(ds.completed, ds.submitted);
}

TEST(ConcurrentCacheTest, ParallelHammeringKeepsInvariants) {
  ProximityCache cache(8, CacheOpts(32, 2.0f));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<std::uint64_t> inserted{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::vector<float> q(8);
        for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 3));
        const auto probe = cache.Lookup(q);
        if (probe.hit) {
          EXPECT_EQ(probe.value.size(), 1u);  // never a torn value
        } else {
          cache.Insert(q, {static_cast<VectorId>(op)});
          inserted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.insertions, inserted.load());
  EXPECT_EQ(stats.evictions, stats.insertions - cache.size());
  EXPECT_LE(cache.size(), 32u);
}

// The ApproxCacheStats lost-update audit, exercised: the plain stats
// fields are mutated only under the cache mutex, so raw integer counters
// must stay exact under heavy contention — and the lock-free registry
// mirrors (`cache.*`) must agree with them.
TEST(ConcurrentCacheTest, StatsStayExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;

#if PROXIMITY_OBS_ENABLED
  const auto before = obs::MetricsRegistry::Default().Snapshot();
#endif

  ProximityCache cache(8, CacheOpts(64, 1.0f));
  std::barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      barrier.arrive_and_wait();
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::vector<float> q(8);
        for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 4));
        if (!cache.Lookup(q).hit) cache.Insert(q, {1});
      }
    });
  }
  for (auto& t : threads) t.join();

  // Plain counters: no lost updates despite kThreads racing writers.
  // Every operation probes once; every miss inserts once.
  const ApproxCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, total);
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.insertions, stats.misses);

#if PROXIMITY_OBS_ENABLED
  // Registry mirrors recorded through per-thread shards reconcile with
  // the mutex-serialized plain counters.
  const auto after = obs::MetricsRegistry::Default().Snapshot();
  const auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("cache.lookups"), total);
  EXPECT_EQ(delta("cache.hits"), stats.hits);
  EXPECT_EQ(delta("cache.misses"), stats.misses);
  EXPECT_EQ(delta("cache.insertions"), stats.insertions);
#endif
}

// ----------------------------------------------------------- The driver --

TEST(ConcurrentDriverTest, InvariantsHoldAcrossThreadCounts) {
  SetLogLevel(LogLevel::kWarn);
  WorkloadSpec spec = MmluLikeSpec(600, 42);
  spec.num_questions = 15;
  spec.num_clusters = 3;
  const Workload workload = BuildWorkload(spec);
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  FlatIndex index(embedder.dim());
  index.AddBatch(corpus_embeddings);

  QueryStreamOptions sopts;
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  for (std::size_t threads : {1u, 4u}) {
    TenantRegistry registry(embedder.dim(),
                            {.cache_defaults = CacheOpts(50, 2.0f)});
    BatchingDriverStats driver;
    const auto result = RunStreamBatched(
        workload, index, registry, AnswerModel(MmluAnswerParams()), 1, stream,
        embeddings, threads, {}, &driver);
    EXPECT_EQ(result.metrics.queries, stream.size());
    EXPECT_EQ(result.cache_stats.lookups, stream.size());
    EXPECT_EQ(result.cache_stats.hits, driver.hits);
    EXPECT_EQ(driver.hits + driver.coalesced + driver.retrieved,
              stream.size());
    // Variant geometry guarantees substantial hits at tau = 2 regardless
    // of interleaving.
    EXPECT_GT(result.metrics.hit_rate, 0.2);
    EXPECT_GT(result.metrics.mean_relevance, 0.9);
    EXPECT_GT(result.metrics.accuracy, 0.3);
    EXPECT_LT(result.metrics.accuracy, 0.7);
  }
}

TEST(ConcurrentDriverTest, SingleThreadMatchesSequentialHitRate) {
  SetLogLevel(LogLevel::kWarn);
  WorkloadSpec spec = MmluLikeSpec(500, 42);
  spec.num_questions = 10;
  spec.num_clusters = 2;
  const Workload workload = BuildWorkload(spec);
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  FlatIndex index(embedder.dim());
  index.AddBatch(corpus_embeddings);

  QueryStreamOptions sopts;
  sopts.seed = 2;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  // Sequential reference: Algorithm 1 through the Retriever.
  OneTenant reference(index, CacheOpts(50, 2.0f));
  Retriever retriever(reference.driver);
  std::size_t ref_hits = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ref_hits += retriever.Retrieve(embeddings.Row(i)).cache_hit ? 1 : 0;
  }

  TenantRegistry registry(embedder.dim(),
                          {.cache_defaults = CacheOpts(50, 2.0f)});
  const auto result = RunStreamBatched(
      workload, index, registry, AnswerModel(MmluAnswerParams()), 2, stream,
      embeddings, /*threads=*/1);
  EXPECT_EQ(result.cache_stats.hits, ref_hits);
}

TEST(ConcurrentDriverTest, ValidatesArguments) {
  const Workload workload = BuildWorkload([] {
    WorkloadSpec spec = MmluLikeSpec(200, 42);
    spec.num_questions = 5;
    spec.num_clusters = 1;
    return spec;
  }());
  HashEmbedder embedder;
  FlatIndex index(embedder.dim());
  TenantRegistry registry(embedder.dim(),
                          {.cache_defaults = CacheOpts(10, 1.0f)});
  const std::vector<StreamEntry> stream(3);
  const Matrix wrong(2, embedder.dim());
  EXPECT_THROW(
      RunStreamBatched(workload, index, registry,
                       AnswerModel(MmluAnswerParams()), 1, stream, wrong, 1),
      std::invalid_argument);
  const Matrix right(3, embedder.dim());
  EXPECT_THROW(
      RunStreamBatched(workload, index, registry,
                       AnswerModel(MmluAnswerParams()), 1, stream, right, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace proximity
