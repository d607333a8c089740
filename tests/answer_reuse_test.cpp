// Answer reuse (DESIGN.md §15): a second radius on each tenant's one
// cache. Covers the pipeline's answer hit (judged on the cached
// evidence, no generation cost); the BatchingDriver's answer path — one
// scan per probe, an answer hit flagged as a cache hit, a stale entry
// as a miss after its source doc is deleted, cross-tenant isolation —
// with the extended conservation equation
//   hits + answer_hits + retrieved + coalesced + shed + expired
//       + quota_shed + mutations == submitted
// and the one cache under racing lookups, inserts and stamps.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "obs/metrics_registry.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "rag/retriever.h"
#include "tenant/tenant_registry.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

std::vector<float> Key(float x, std::size_t dim = 4) {
  return std::vector<float>(dim, x);
}

// ------------------------------------------------- pipeline answer path --

struct ReuseFixture {
  ReuseFixture() {
    WorkloadSpec spec = MmluLikeSpec(800, 42);
    spec.num_questions = 20;
    spec.num_clusters = 4;
    workload = BuildWorkload(spec);
    index = std::make_unique<FlatIndex>(embedder.dim());
    index->AddBatch(embedder.EmbedBatch(workload.passages));

    QueryStreamOptions sopts;
    sopts.seed = 1;
    stream = BuildQueryStream(workload, sopts);
    std::vector<std::string> texts;
    for (const auto& e : stream) texts.push_back(e.text);
    stream_embeddings = embedder.EmbedBatch(texts);
  }

  HashEmbedder embedder;
  Workload workload;
  std::unique_ptr<FlatIndex> index;
  std::vector<StreamEntry> stream;
  Matrix stream_embeddings;
};

// An answer hit is judged on the evidence its entry holds — planted
// here so it differs from what a retrieval would return — and is
// charged no generation cost.
TEST(PipelineAnswerHitTest, JudgedOnCachedEvidenceWithoutGeneration) {
  ReuseFixture fx;
  TenantRegistryOptions topts;
  topts.cache_defaults.tolerance = 0.0f;
  topts.answer_defaults.tolerance = 0.5f;
  TenantRegistry registry(fx.embedder.dim(), topts);
  BatchingDriver driver(*fx.index, registry, nullptr,
                        {.top_k = 5, .answer_reuse = true});
  Retriever retriever(driver);
  constexpr Nanos kGenerationNs = 1'000'000'000;  // dwarfs any scan
  RagPipeline pipeline(&fx.workload, &retriever,
                       AnswerModel(MmluAnswerParams()), 1, kGenerationNs);

  const auto q = fx.stream_embeddings.Row(0);
  const auto first = pipeline.ProcessQuery(fx.stream[0], q);
  EXPECT_FALSE(first.answer_hit);
  EXPECT_EQ(first.ttft_ns, first.retrieval_latency_ns + kGenerationNs);

  // Replace the entry's evidence with another question's gold passages.
  const Question& asked = fx.workload.questions[fx.stream[0].question];
  const Question& other = fx.workload.questions[
      (fx.stream[0].question + 1) % fx.workload.questions.size()];
  ProximityCache& cache = registry.CacheFor(kDefaultTenant);
  cache.Clear();
  cache.Insert(q, other.gold_ids);

  const auto second = pipeline.ProcessQuery(fx.stream[0], q);
  EXPECT_TRUE(second.answer_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.ttft_ns, second.retrieval_latency_ns);
  const ContextJudgment planted =
      JudgeContext(other.gold_ids, asked, fx.workload);
  EXPECT_DOUBLE_EQ(second.judgment.relevance, planted.relevance);
  EXPECT_DOUBLE_EQ(second.judgment.misleading, planted.misleading);
  EXPECT_LT(second.judgment.relevance, first.judgment.relevance);
  EXPECT_EQ(driver.stats().answer_hits, 1u);
}

// -------------------------------------------------- driver answer reuse --

constexpr std::size_t kDim = 8;

FlatIndex MakeIndex() {
  FlatIndex index(kDim);
  for (std::size_t r = 0; r < 100; ++r) {
    std::vector<float> row(kDim, 0.0f);
    row[r % kDim] = 1.0f + static_cast<float>(r) * 0.01f;
    index.Add(row);
  }
  return index;
}

BatchingDriverOptions AnswerReuse() {
  BatchingDriverOptions opts;
  opts.top_k = 3;
  opts.answer_reuse = true;
  return opts;
}

std::future<BatchResult> SubmitFor(BatchingDriver& driver,
                                   std::vector<float> embedding,
                                   TenantId tenant = kDefaultTenant) {
  auto promise = std::make_shared<std::promise<BatchResult>>();
  auto future = promise->get_future();
  SubmitOptions opts;
  opts.tenant = tenant;
  driver.SubmitAsync(std::move(embedding), opts,
                     [promise](BatchResult r) {
                       promise->set_value(std::move(r));
                     });
  return future;
}

void ExpectConserved(const BatchingDriverStats& s) {
  EXPECT_EQ(s.hits + s.answer_hits + s.retrieved + s.coalesced + s.shed +
                s.expired + s.quota_shed + s.mutations,
            s.submitted);
  EXPECT_EQ(s.completed, s.submitted - s.shed - s.quota_shed);
}

TenantRegistryOptions AnswerRegistryOptions() {
  TenantRegistryOptions topts;
  topts.cache_defaults.capacity = 16;
  topts.cache_defaults.tolerance = 0.05f;
  topts.answer_defaults.tolerance = 0.05f;
  return topts;
}

TEST(DriverAnswerReuseTest, RepeatQueryIsAnswerHitAndConserved) {
  FlatIndex index = MakeIndex();
  TenantRegistry registry(kDim, AnswerRegistryOptions());
  BatchingDriver driver(index, registry, nullptr, AnswerReuse());

  const std::vector<float> q(kDim, 0.5f);
  auto f1 = SubmitFor(driver, q);
  driver.Flush();
  const BatchResult r1 = f1.get();
  ASSERT_EQ(r1.status, RequestStatus::kOk);
  EXPECT_FALSE(r1.answer_hit);  // cold: a real retrieval fills the cache

  auto f2 = SubmitFor(driver, q);
  driver.Flush();
  const BatchResult r2 = f2.get();
  ASSERT_EQ(r2.status, RequestStatus::kOk);
  EXPECT_TRUE(r2.answer_hit);
  EXPECT_TRUE(r2.cache_hit);  // no search ran
  EXPECT_EQ(r2.documents, r1.documents);
  EXPECT_TRUE(r2.distances.empty());  // the cache stores ids alone

  driver.Shutdown();
  const BatchingDriverStats s = driver.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.retrieved, 1u);
  EXPECT_EQ(s.answer_hits, 1u);
  EXPECT_EQ(s.hits, 0u);
  ExpectConserved(s);

  const auto tstats = driver.tenant_stats();
  ASSERT_TRUE(tstats.count(kDefaultTenant));
  EXPECT_EQ(tstats.at(kDefaultTenant).answer_hits, 1u);
}

TEST(DriverAnswerReuseTest, DeletedSourceDocForcesFreshRetrieval) {
  HashEmbedder embedder;
  std::vector<std::string> corpus;
  for (int d = 0; d < 64; ++d) {
    corpus.push_back("document number " + std::to_string(d) +
                     " about topic " + std::to_string(d % 8));
  }
  IndexSpec spec;
  spec.kind = "mutable";
  const auto index = BuildIndex(spec, embedder.EmbedBatch(corpus));

  TenantRegistryOptions topts;
  topts.cache_defaults.capacity = 16;
  topts.cache_defaults.tolerance = 0.05f;
  // Revalidate: a stale proximity hit degrades to a miss, so the
  // post-mutation query re-retrieves instead of serving stale ids.
  topts.cache_defaults.staleness = StalenessPolicy::kRevalidate;
  topts.answer_defaults.tolerance = 0.05f;
  TenantRegistry registry(embedder.dim(), topts);
  BatchingDriver driver(*index, registry, &embedder, AnswerReuse());
  driver.EnableMutation(*index);

  const std::vector<float> q = embedder.Embed("document number 7");
  auto f1 = SubmitFor(driver, q);
  driver.Flush();
  const BatchResult r1 = f1.get();
  ASSERT_EQ(r1.status, RequestStatus::kOk);
  ASSERT_FALSE(r1.documents.empty());
  const VectorId victim = r1.documents[0];

  // Delete the answer's top source doc: the cached entry's evidence now
  // names a dead vector.
  std::promise<BatchResult> deleted;
  driver.SubmitMutationAsync(MutationOp::kDelete, "", victim, {},
                             [&](BatchResult r) {
                               deleted.set_value(std::move(r));
                             });
  driver.Flush();
  ASSERT_EQ(deleted.get_future().get().status, RequestStatus::kOk);

  // Same query again: the entry is stale (generation stamp), so it must
  // NOT be served; the fresh retrieval cannot contain the deleted id.
  auto f2 = SubmitFor(driver, q);
  driver.Flush();
  const BatchResult r2 = f2.get();
  ASSERT_EQ(r2.status, RequestStatus::kOk);
  EXPECT_FALSE(r2.answer_hit);
  for (const VectorId id : r2.documents) EXPECT_NE(id, victim);

  driver.Shutdown();
  const BatchingDriverStats s = driver.stats();
  EXPECT_EQ(s.answer_hits, 0u);
  EXPECT_EQ(s.mutations, 1u);
  ExpectConserved(s);
}

TEST(DriverAnswerReuseTest, AnswerHitsNeverCrossTenants) {
  FlatIndex index = MakeIndex();
  TenantRegistry registry(kDim, AnswerRegistryOptions());
  TenantSpec alpha;
  alpha.id = 1;
  alpha.name = "alpha";
  registry.Register(alpha);
  TenantSpec beta;
  beta.id = 2;
  beta.name = "beta";
  registry.Register(beta);
  BatchingDriver driver(index, registry, nullptr, AnswerReuse());

  const std::vector<float> q(kDim, 0.5f);
  auto f1 = SubmitFor(driver, q, 1);
  driver.Flush();
  ASSERT_EQ(f1.get().status, RequestStatus::kOk);

  // Tenant 2 asks the exact question tenant 1 just seeded: its own
  // cache is cold, so it must pay its own retrieval.
  auto f2 = SubmitFor(driver, q, 2);
  driver.Flush();
  const BatchResult other = f2.get();
  ASSERT_EQ(other.status, RequestStatus::kOk);
  EXPECT_FALSE(other.answer_hit);
  EXPECT_FALSE(other.cache_hit);

  // Tenant 1 repeating it is a private answer hit.
  auto f3 = SubmitFor(driver, q, 1);
  driver.Flush();
  EXPECT_TRUE(f3.get().answer_hit);

  driver.Shutdown();
  const auto tstats = driver.tenant_stats();
  EXPECT_EQ(tstats.at(1).answer_hits, 1u);
  EXPECT_EQ(tstats.at(2).answer_hits, 0u);
  ExpectConserved(driver.stats());
}

// One probe is one scan: a document hit — beyond τ_answer, within τ —
// scans the tenant's cache once, as an answer hit does.
TEST(DriverAnswerReuseTest, DocumentHitRunsOneScan) {
  FlatIndex index = MakeIndex();
  TenantRegistryOptions topts;
  topts.cache_defaults.capacity = 16;
  topts.cache_defaults.tolerance = 1.0f;
  topts.answer_defaults.tolerance = 0.05f;
  TenantRegistry registry(kDim, topts);
  BatchingDriver driver(index, registry, nullptr, AnswerReuse());
  const ProximityCache& cache = registry.CacheFor(kDefaultTenant);
  const auto scans = [] {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Default().Snapshot();
    const LatencyHistogram* h = snap.FindHistogram("stage.cache_scan_ns");
    return h != nullptr ? h->count() : 0;
  };

  std::vector<float> q(kDim, 0.5f);
  ASSERT_EQ(driver.Serve(q).status, RequestStatus::kOk);  // fills
  q[0] += 0.5f;  // d = 0.25
  const ApproxCacheStats before = cache.stats();
  const std::uint64_t scans_before = scans();
  const BatchResult hit = driver.Serve(q);
  ASSERT_EQ(hit.status, RequestStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.answer_hit);

  const ApproxCacheStats after = cache.stats();
  EXPECT_EQ(after.lookups, before.lookups + 1);
  EXPECT_EQ(after.keys_scanned, before.keys_scanned + 1);  // one key
#if PROXIMITY_OBS_ENABLED
  EXPECT_EQ(scans(), scans_before + 1);
#else
  (void)scans_before;
#endif
  driver.Shutdown();
  EXPECT_EQ(driver.stats().hits, 1u);
  ExpectConserved(driver.stats());
}

// ------------------------------------------------------ one cache race --

// Two-radius lookups racing inserts and generation stamps on one cache
// (TSan-labelled): every hit is a whole copy, the counters add up.
TEST(OneCacheRaceTest, ParallelLookupInsertAndStamping) {
  ApproxCacheOptions opts;
  opts.capacity = 16;
  opts.tolerance = 0.25f;
  ApproxCache cache(4, opts);

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        const float x = static_cast<float>((t * kIters + i) % 32);
        cache.Insert(Key(x), {static_cast<VectorId>(t)});
        const auto hit = cache.Lookup(Key(x), 0.1f);
        if (hit.hit) {
          // Copied out: safe to read while other threads insert.
          EXPECT_FALSE(hit.value.empty());
        }
        if (i % 64 == 0) {
          cache.set_generation(static_cast<std::uint64_t>(i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(cache.size(), opts.capacity);
  const ApproxCacheStats s = cache.stats();
  constexpr auto kOps = static_cast<std::uint64_t>(kThreads * kIters);
  EXPECT_EQ(s.insertions, kOps);
  EXPECT_EQ(s.lookups, kOps);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

}  // namespace
}  // namespace proximity
