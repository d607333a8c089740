// Multi-tenant serving layer (DESIGN.md §10): the TenantRegistry
// (per-tenant caches, token-bucket quotas, adaptive τ, roster parsing)
// and the BatchingDriver's tenant mode (quota shedding before any
// embedding work, per-tenant conservation, cache non-interference,
// same-tenant-only coalescing, weighted deficit-round-robin fairness
// against a flooding tenant, and the FIFO contrast).
//
// The acceptance equation pinned here, per tenant AND globally:
//   hits + retrieved + coalesced + shed + expired + quota_shed
//       == submitted
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/flat_index.h"
#include "one_tenant.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

constexpr std::size_t kDim = 8;

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

FlatIndex MakeIndex(std::uint64_t seed = 11) {
  FlatIndex index(kDim);
  const Matrix corpus = RandomMatrix(100, kDim, seed);
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  return index;
}

/// Default driver options with top-3 retrieval.
BatchingDriverOptions TopThree() {
  BatchingDriverOptions opts;
  opts.top_k = 3;
  return opts;
}

/// SubmitAsync wrapped into a future over the full BatchResult, so tests
/// can assert on status/cache_hit/coalesced per tenant.
std::future<BatchResult> SubmitFor(BatchingDriver& driver,
                                   std::vector<float> embedding,
                                   TenantId tenant) {
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
  EXPECT_EQ(s.hits + s.retrieved + s.coalesced + s.shed + s.expired +
                s.quota_shed,
            s.submitted);
  EXPECT_EQ(s.completed, s.submitted - s.shed - s.quota_shed);
}

// --------------------------------------------------------- TokenBucket --

TEST(TokenBucketTest, BurstThenRefillAtRate) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/2.0);
  const auto t0 = std::chrono::steady_clock::time_point{} +
                  std::chrono::seconds(100);
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));  // burst exhausted

  // 100 ms at 10 tokens/s refills exactly one token.
  const auto t1 = t0 + std::chrono::milliseconds(100);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));

  // A long idle period refills to the burst cap, not beyond.
  const auto t2 = t1 + std::chrono::hours(1);
  EXPECT_TRUE(bucket.TryAcquire(t2));
  EXPECT_TRUE(bucket.TryAcquire(t2));
  EXPECT_FALSE(bucket.TryAcquire(t2));
}

// ----------------------------------------------------- roster parsing --

TEST(TenantSpecTest, ParsesRosterWithCommentsAndBlankLines) {
  const auto specs = ParseTenantSpecs(
      "# fleet roster\n"
      "id=1 name=search qps=100 burst=20 max_inflight=64 weight=3\n"
      "\n"
      "id=2 capacity=50 tau=1.5 answer_tau=0.5 adaptive=true "
      "target_hit_rate=0.7\n"
      "id=3  # defaults only\n");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].id, 1u);
  EXPECT_EQ(specs[0].name, "search");
  EXPECT_DOUBLE_EQ(specs[0].quota.qps, 100.0);
  EXPECT_DOUBLE_EQ(specs[0].quota.burst, 20.0);
  EXPECT_EQ(specs[0].quota.max_inflight, 64u);
  EXPECT_DOUBLE_EQ(specs[0].weight, 3.0);
  EXPECT_EQ(specs[1].id, 2u);
  EXPECT_EQ(specs[1].cache_capacity, 50u);
  EXPECT_DOUBLE_EQ(specs[1].tolerance, 1.5);
  EXPECT_DOUBLE_EQ(specs[1].answer_tau, 0.5);
  EXPECT_TRUE(specs[1].adaptive_tau);
  EXPECT_DOUBLE_EQ(specs[1].adaptive.target_hit_rate, 0.7);
  EXPECT_EQ(specs[2].id, 3u);
  EXPECT_FALSE(specs[2].adaptive_tau);
}

TEST(TenantSpecTest, RejectsMalformedRosters) {
  EXPECT_THROW(ParseTenantSpecs("name=orphan\n"), std::invalid_argument);
  EXPECT_THROW(ParseTenantSpecs("id=1 nonsense\n"), std::invalid_argument);
  EXPECT_THROW(ParseTenantSpecs("id=1 qps=fast\n"), std::invalid_argument);
  EXPECT_THROW(ParseTenantSpecs("id=1 color=red\n"), std::invalid_argument);
  // Answer reuse is a radius on the tenant's one cache: there is no
  // second capacity to size.
  EXPECT_THROW(ParseTenantSpecs("id=1 answer_capacity=8\n"),
               std::invalid_argument);
}

// ---------------------------------------------------- TenantRegistry --

TEST(TenantRegistryTest, DefaultTenantAlwaysExists) {
  TenantRegistry registry(kDim);
  EXPECT_EQ(registry.tenant_count(), 1u);
  EXPECT_TRUE(registry.Has(kDefaultTenant));
  EXPECT_EQ(registry.Admit(kDefaultTenant), Admission::kAdmitted);
  registry.OnDone(kDefaultTenant);
}

TEST(TenantRegistryTest, RegisterIsIdempotentAndValidatesWeight) {
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 7;
  EXPECT_EQ(registry.Register(spec), 7u);
  EXPECT_EQ(registry.Register(spec), 7u);
  EXPECT_EQ(registry.tenant_count(), 2u);

  spec.id = 8;
  spec.weight = 0.0;
  EXPECT_THROW(registry.Register(spec), std::invalid_argument);
}

// A tenant is registered once. A differing spec for an existing id — a
// roster line for tenant 0, or a repeated roster id — throws naming the
// id instead of being dropped; an identical spec stays a no-op.
TEST(TenantRegistryTest, ReRegisteringWithADifferentSpecThrows) {
  TenantRegistry registry(kDim);
  const std::vector<TenantSpec> roster = ParseTenantSpecs(
      "id=0 capacity=50 qps=100\n"
      "id=3 capacity=50\n"
      "id=3 capacity=60\n");
  ASSERT_EQ(roster.size(), 3u);
  try {
    registry.Register(roster[0]);
    ADD_FAILURE() << "re-configuring tenant 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tenant 0"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(registry.CacheFor(kDefaultTenant).capacity(), 100u);

  EXPECT_EQ(registry.Register(roster[1]), 3u);
  EXPECT_THROW(registry.Register(roster[2]), std::invalid_argument);
  EXPECT_EQ(registry.CacheFor(3).capacity(), 50u);

  EXPECT_EQ(registry.Register(roster[1]), 3u);  // identical: a no-op
  TenantSpec defaults;                          // tenant 0 as constructed
  EXPECT_EQ(registry.Register(defaults), kDefaultTenant);
  EXPECT_EQ(registry.tenant_count(), 2u);
}

TEST(TenantRegistryTest, AnswerTauDefaultsAndOverrides) {
  TenantRegistryOptions topts;
  topts.answer_defaults.tolerance = 0.75f;
  TenantRegistry registry(kDim, topts);
  TenantSpec strict;
  strict.id = 1;
  strict.answer_tau = 0.25;
  registry.Register(strict);
  EXPECT_FLOAT_EQ(registry.AnswerTauFor(kDefaultTenant), 0.75f);
  EXPECT_FLOAT_EQ(registry.AnswerTauFor(1), 0.25f);
  EXPECT_FLOAT_EQ(registry.Infos().at(1).answer_tau, 0.25f);
}

TEST(TenantRegistryTest, ResolvePolicyAutoRegisterVsMapToDefault) {
  TenantRegistry open(kDim);  // kAutoRegister is the default
  EXPECT_EQ(open.Resolve(42), 42u);
  EXPECT_TRUE(open.Has(42));

  TenantRegistryOptions closed_opts;
  closed_opts.unknown_policy = UnknownTenantPolicy::kMapToDefault;
  TenantRegistry closed(kDim, closed_opts);
  EXPECT_EQ(closed.Resolve(42), kDefaultTenant);
  EXPECT_FALSE(closed.Has(42));
}

TEST(TenantRegistryTest, InflightCapRefusesUntilOnDone) {
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  spec.quota.max_inflight = 2;
  registry.Register(spec);

  EXPECT_EQ(registry.Admit(1), Admission::kAdmitted);
  EXPECT_EQ(registry.Admit(1), Admission::kAdmitted);
  EXPECT_EQ(registry.Admit(1), Admission::kOverInflight);
  registry.OnDone(1);
  EXPECT_EQ(registry.Admit(1), Admission::kAdmitted);
}

TEST(TenantRegistryTest, QpsQuotaRefusesOnceBurstIsSpent) {
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  // A refill rate far below one token per test-lifetime: exactly the
  // initial burst (= max(qps, 1) = 1 token) is admitted.
  spec.quota.qps = 1e-9;
  registry.Register(spec);

  EXPECT_EQ(registry.Admit(1), Admission::kAdmitted);
  EXPECT_EQ(registry.Admit(1), Admission::kOverRate);
  registry.OnDone(1);
  // OnDone frees the inflight slot, not the rate: still over quota.
  EXPECT_EQ(registry.Admit(1), Admission::kOverRate);
}

TEST(TenantRegistryTest, AdaptiveTauSteersTheTenantsCacheTolerance) {
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  spec.adaptive_tau = true;
  spec.adaptive.target_hit_rate = 0.9;
  spec.adaptive.window = 4;
  spec.adaptive.period = 4;
  spec.adaptive.step = 2.0;
  spec.adaptive.initial_tau = 1.0;
  registry.Register(spec);

  ASSERT_FLOAT_EQ(registry.CacheFor(1).tolerance(), 1.0f);
  // A run of misses below the target hit rate must widen τ.
  for (int i = 0; i < 8; ++i) registry.ObserveLookup(1, /*hit=*/false);
  EXPECT_GT(registry.CacheFor(1).tolerance(), 1.0f);
  // The default tenant's cache is untouched by tenant 1's controller.
  EXPECT_FLOAT_EQ(registry.CacheFor(kDefaultTenant).tolerance(),
                  registry.options().cache_defaults.tolerance);
}

// -------------------------------------------- driver: quota shedding --

TEST(TenantDriverTest, OverQuotaSubmissionsShedBeforeAnyWork) {
  const FlatIndex index = MakeIndex();
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  spec.quota.qps = 1e-9;  // one-token burst, no refill at test timescale
  registry.Register(spec);
  BatchingDriver driver(index, registry, nullptr, TopThree());
  // The admitted entry stays queued while the rest are refused; the
  // decoy rides the default tenant, so tenant 1's one token is intact.
  ParkedFlusher park(driver, kDim);

  const Matrix queries = RandomMatrix(5, kDim, 21);
  // Query 1 is cached: admitted, it would be an inline hit. Refused, it
  // must not even be probed.
  registry.CacheFor(1).Insert(queries.Row(1), {0, 1, 2});
  std::vector<std::future<BatchResult>> futures;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto row = queries.Row(q);
    futures.push_back(SubmitFor(
        driver, std::vector<float>(row.begin(), row.end()), 1));
  }
  park.Release();
  driver.Shutdown();

  std::size_t ok = 0, exhausted = 0;
  for (auto& f : futures) {
    const BatchResult r = f.get();
    if (r.status == RequestStatus::kOk) {
      ++ok;
      EXPECT_EQ(r.documents.size(), 3u);
    } else {
      EXPECT_EQ(r.status, RequestStatus::kResourceExhausted);
      EXPECT_TRUE(r.documents.empty());  // no retrieval work was spent
      ++exhausted;
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(exhausted, 4u);

  const auto stats = driver.stats();
  EXPECT_EQ(stats.submitted, 6u);  // five + the decoy
  EXPECT_EQ(stats.quota_shed, 4u);
  EXPECT_EQ(stats.shed, 0u);
  ExpectConserved(stats);
  const auto per_tenant = driver.tenant_stats();
  ASSERT_TRUE(per_tenant.count(1));
  EXPECT_EQ(per_tenant.at(1).quota_shed, 4u);
  ExpectConserved(per_tenant.at(1));
  // Only the admitted query was probed (one key, at admission; the
  // flush's recheck read no key, since none was written after the probe).
  const ApproxCacheStats cstats = registry.CacheFor(1).stats();
  EXPECT_EQ(cstats.keys_scanned, 1u);
  EXPECT_EQ(cstats.lookups, 1u);
  EXPECT_EQ(cstats.hits, 0u);
}

// --------------------------------- driver: conservation + isolation --

TEST(TenantDriverTest, CachesDoNotInterfereAcrossTenants) {
  const FlatIndex index = MakeIndex();
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  registry.Register(spec);
  spec.id = 2;
  registry.Register(spec);
  BatchingDriver driver(index, registry, nullptr, TopThree());

  const std::vector<float> q(kDim, 0.25f);
  // Tenant 1 retrieves, then hits its own cache.
  auto f1 = SubmitFor(driver, q, 1);
  driver.Flush();
  EXPECT_FALSE(f1.get().cache_hit);
  auto f2 = SubmitFor(driver, q, 1);
  driver.Flush();
  EXPECT_TRUE(f2.get().cache_hit);

  // Tenant 2 issues the SAME query: tenant 1's cached answer must not
  // leak — this must be a fresh retrieval against the shared index.
  auto f3 = SubmitFor(driver, q, 2);
  driver.Flush();
  EXPECT_FALSE(f3.get().cache_hit);
  auto f4 = SubmitFor(driver, q, 2);
  driver.Flush();
  EXPECT_TRUE(f4.get().cache_hit);
  driver.Shutdown();

  const auto per_tenant = driver.tenant_stats();
  for (const TenantId id : {TenantId{1}, TenantId{2}}) {
    ASSERT_TRUE(per_tenant.count(id));
    const auto& s = per_tenant.at(id);
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.retrieved, 1u);
    EXPECT_EQ(s.hits, 1u);
    ExpectConserved(s);
  }
  ExpectConserved(driver.stats());
}

TEST(TenantDriverTest, CoalescingNeverCrossesTenants) {
  const FlatIndex index = MakeIndex();
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;
  registry.Register(spec);
  spec.id = 2;
  registry.Register(spec);
  BatchingDriver driver(index, registry, nullptr, TopThree());
  ParkedFlusher park(driver, kDim);

  // Six identical queries in ONE batch, three per tenant: within a
  // tenant they coalesce onto one leader; across tenants they must not.
  const std::vector<float> q(kDim, 0.5f);
  std::vector<std::future<BatchResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(SubmitFor(driver, q, 1));
  for (int i = 0; i < 3; ++i) futures.push_back(SubmitFor(driver, q, 2));
  park.Release();
  driver.Flush();
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  driver.Shutdown();

  const auto per_tenant = driver.tenant_stats();
  for (const TenantId id : {TenantId{1}, TenantId{2}}) {
    ASSERT_TRUE(per_tenant.count(id));
    EXPECT_EQ(per_tenant.at(id).retrieved, 1u) << "tenant " << id;
    EXPECT_EQ(per_tenant.at(id).coalesced, 2u) << "tenant " << id;
  }
  const auto stats = driver.stats();
  EXPECT_EQ(stats.retrieved, 2u);  // one leader per tenant, not one total
  EXPECT_EQ(stats.coalesced, 4u);
  ExpectConserved(stats);
}

TEST(TenantDriverTest, UnknownTenantsFoldIntoDefaultUnderClosedRoster) {
  const FlatIndex index = MakeIndex();
  TenantRegistryOptions opts;
  opts.unknown_policy = UnknownTenantPolicy::kMapToDefault;
  TenantRegistry registry(kDim, opts);
  BatchingDriver driver(index, registry, nullptr, TopThree());

  auto f = SubmitFor(driver, std::vector<float>(kDim, 0.1f), 42);
  driver.Flush();
  EXPECT_EQ(f.get().status, RequestStatus::kOk);
  driver.Shutdown();

  const auto per_tenant = driver.tenant_stats();
  ASSERT_TRUE(per_tenant.count(kDefaultTenant));
  EXPECT_EQ(per_tenant.at(kDefaultTenant).submitted, 1u);
  EXPECT_FALSE(per_tenant.count(42));
  EXPECT_FALSE(registry.Has(42));
}

// --------------------------------------------- driver: DRR fairness --

// Builds a backlog while the flusher is parked (ParkedFlusher), then
// releases it and records the order in which the backlog completes.
// With weighted DRR a 100:4 flood cannot push the small tenant to the
// back; with FIFO it does.
struct FloodOutcome {
  std::vector<std::size_t> small_positions;  // completion indices
  BatchingDriverStats stats;
};

FloodOutcome RunFlood(bool fair) {
  const FlatIndex index = MakeIndex(31);
  TenantRegistry registry(kDim);
  TenantSpec spec;
  spec.id = 1;  // the flooding tenant
  registry.Register(spec);
  spec.id = 2;  // the compliant tenant
  registry.Register(spec);

  BatchingDriverOptions opts;
  opts.max_batch = 8;
  opts.top_k = 3;
  opts.coalesce = false;  // one retrieval per entry: order is visible
  opts.fair = fair;
  BatchingDriver driver(index, registry, nullptr, opts);
  // The backlog below is fully enqueued before any of it flushes.
  ParkedFlusher park(driver, kDim);

  const Matrix flood = RandomMatrix(100, kDim, 32);
  const Matrix small = RandomMatrix(4, kDim, 33);
  std::atomic<std::size_t> order{0};
  std::vector<std::size_t> flood_pos(100), small_pos(4);
  std::vector<std::future<BatchResult>> futures;
  auto submit = [&](const Matrix& m, std::size_t i, TenantId tenant,
                    std::size_t* pos) {
    auto promise = std::make_shared<std::promise<BatchResult>>();
    futures.push_back(promise->get_future());
    SubmitOptions sopts;
    sopts.tenant = tenant;
    const auto row = m.Row(i);
    driver.SubmitAsync(std::vector<float>(row.begin(), row.end()), sopts,
                       [&order, pos, promise](BatchResult r) {
                         *pos = order.fetch_add(1);
                         promise->set_value(std::move(r));
                       });
  };
  for (std::size_t i = 0; i < 100; ++i) submit(flood, i, 1, &flood_pos[i]);
  for (std::size_t i = 0; i < 4; ++i) submit(small, i, 2, &small_pos[i]);
  park.Release();

  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, RequestStatus::kOk);
  }
  driver.Shutdown();

  FloodOutcome outcome;
  outcome.small_positions = small_pos;
  outcome.stats = driver.stats();
  return outcome;
}

TEST(TenantDriverTest, DeficitRoundRobinShieldsSmallTenantFromFlood) {
  const FloodOutcome outcome = RunFlood(/*fair=*/true);
  // Equal weights: each 8-slot batch alternates tenants, so all four
  // compliant entries ride the FIRST post-flood batch. The bound keeps
  // two batches' worth of slack.
  for (const std::size_t pos : outcome.small_positions) {
    EXPECT_LT(pos, 16u) << "compliant tenant starved by the flood";
  }
  ExpectConserved(outcome.stats);
}

TEST(TenantDriverTest, FifoModeLetsTheFloodStarveSmallTenant) {
  const FloodOutcome outcome = RunFlood(/*fair=*/false);
  // Strict arrival order: the flood's 100 entries were enqueued first,
  // so every compliant entry completes after them, in the last batch.
  for (const std::size_t pos : outcome.small_positions) {
    EXPECT_GE(pos, 100u) << "FIFO contrast lost its starvation";
  }
  ExpectConserved(outcome.stats);
}

// Concurrent submissions across tenants under TSan: per-tenant and
// global conservation hold with racing Submit/Flush/quota traffic.
TEST(TenantDriverTest, ConcurrentMultiTenantTrafficConserves) {
  const FlatIndex index = MakeIndex(41);
  TenantRegistry registry(kDim);
  for (TenantId id = 1; id <= 4; ++id) {
    TenantSpec spec;
    spec.id = id;
    if (id == 4) spec.quota.max_inflight = 2;  // one throttled tenant
    registry.Register(spec);
  }
  BatchingDriverOptions opts;
  opts.max_batch = 8;
  opts.top_k = 3;
  BatchingDriver driver(index, registry, nullptr, opts);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  const Matrix queries = RandomMatrix(16, kDim, 42);
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> ok{0}, exhausted{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto row = queries.Row((t * kPerThread + i) % queries.rows());
        auto f = SubmitFor(driver,
                           std::vector<float>(row.begin(), row.end()),
                           static_cast<TenantId>(1 + (t + i) % 4));
        const BatchResult r = f.get();
        if (r.status == RequestStatus::kOk) {
          ++ok;
        } else {
          ASSERT_EQ(r.status, RequestStatus::kResourceExhausted);
          ++exhausted;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  driver.Shutdown();

  const auto stats = driver.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(ok.load() + exhausted.load(), stats.submitted);
  ExpectConserved(stats);
  const auto per_tenant = driver.tenant_stats();
  std::uint64_t submitted_sum = 0;
  for (const auto& [id, s] : per_tenant) {
    ExpectConserved(s);
    submitted_sum += s.submitted;
  }
  EXPECT_EQ(submitted_sum, stats.submitted);
}

}  // namespace
}  // namespace proximity
