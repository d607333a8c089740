// Unit tests for src/cache: eviction policies, the approximate cache
// (Algorithm 1 semantics and the answer-reuse radius), and the adaptive-τ
// controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cache/adaptive_tau.h"
#include "cache/approx_cache.h"
#include "cache/eviction_policy.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "rag/retriever.h"
#include "one_tenant.h"

namespace proximity {
namespace {

std::vector<float> Vec2(float x, float y) { return {x, y}; }

// ------------------------------------------------------------ Policies --

TEST(FifoPolicyTest, EvictsInInsertionOrder) {
  FifoPolicy fifo;
  fifo.OnInsert(3);
  fifo.OnInsert(1);
  fifo.OnInsert(2);
  EXPECT_EQ(fifo.SelectVictim(), 3u);
  EXPECT_EQ(fifo.SelectVictim(), 1u);
  EXPECT_EQ(fifo.SelectVictim(), 2u);
}

TEST(FifoPolicyTest, AccessDoesNotChangeOrder) {
  // §3.2.2: FIFO evicts the oldest "irrespective of how often or recently
  // it has been accessed".
  FifoPolicy fifo;
  fifo.OnInsert(1);
  fifo.OnInsert(2);
  fifo.OnAccess(1);
  fifo.OnAccess(1);
  EXPECT_EQ(fifo.SelectVictim(), 1u);
}

TEST(LruPolicyTest, AccessRefreshesRecency) {
  LruPolicy lru;
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnInsert(3);
  lru.OnAccess(1);  // 1 becomes most recent; 2 is now oldest
  EXPECT_EQ(lru.SelectVictim(), 2u);
  EXPECT_EQ(lru.SelectVictim(), 3u);
  EXPECT_EQ(lru.SelectVictim(), 1u);
}

TEST(LruPolicyTest, WithoutAccessesBehavesLikeFifo) {
  LruPolicy lru;
  lru.OnInsert(5);
  lru.OnInsert(6);
  lru.OnInsert(7);
  EXPECT_EQ(lru.SelectVictim(), 5u);
  EXPECT_EQ(lru.SelectVictim(), 6u);
}

TEST(LfuPolicyTest, EvictsLeastFrequent) {
  LfuPolicy lfu;
  lfu.OnInsert(1);
  lfu.OnInsert(2);
  lfu.OnInsert(3);
  lfu.OnAccess(1);
  lfu.OnAccess(1);
  lfu.OnAccess(3);
  EXPECT_EQ(lfu.SelectVictim(), 2u);  // frequency 0
  EXPECT_EQ(lfu.SelectVictim(), 3u);  // frequency 1
  EXPECT_EQ(lfu.SelectVictim(), 1u);  // frequency 2
}

TEST(LfuPolicyTest, TieBrokenByAge) {
  LfuPolicy lfu;
  lfu.OnInsert(9);
  lfu.OnInsert(4);
  EXPECT_EQ(lfu.SelectVictim(), 9u);  // same frequency, 9 is older
}

TEST(RandomPolicyTest, VictimIsAlwaysLive) {
  RandomPolicy random(7);
  std::set<std::size_t> live;
  for (std::size_t s = 0; s < 50; ++s) {
    random.OnInsert(s);
    live.insert(s);
  }
  for (int i = 0; i < 50; ++i) {
    const std::size_t victim = random.SelectVictim();
    EXPECT_TRUE(live.contains(victim));
    live.erase(victim);
  }
  EXPECT_TRUE(live.empty());
}

TEST(RandomPolicyTest, DeterministicForSeed) {
  RandomPolicy a(3), b(3);
  for (std::size_t s = 0; s < 20; ++s) {
    a.OnInsert(s);
    b.OnInsert(s);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.SelectVictim(), b.SelectVictim());
  }
}

TEST(ClockPolicyTest, UnreferencedEvictsInFifoOrder) {
  ClockPolicy clock;
  clock.OnInsert(1);
  clock.OnInsert(2);
  clock.OnInsert(3);
  EXPECT_EQ(clock.SelectVictim(), 1u);
  EXPECT_EQ(clock.SelectVictim(), 2u);
  EXPECT_EQ(clock.SelectVictim(), 3u);
}

TEST(ClockPolicyTest, ReferencedEntryGetsSecondChance) {
  ClockPolicy clock;
  clock.OnInsert(1);
  clock.OnInsert(2);
  clock.OnAccess(1);
  // Hand passes 1 (referenced: cleared, re-queued), evicts 2.
  EXPECT_EQ(clock.SelectVictim(), 2u);
  // The reprieve is single-use: 1 goes next.
  EXPECT_EQ(clock.SelectVictim(), 1u);
}

TEST(ClockPolicyTest, RepeatedAccessIsNotImmortal) {
  ClockPolicy clock;
  clock.OnInsert(1);
  clock.OnInsert(2);
  clock.OnAccess(1);
  clock.OnAccess(2);
  // Both referenced: the hand clears both and returns to evict slot 1.
  EXPECT_EQ(clock.SelectVictim(), 1u);
}

TEST(EvictionFactoryTest, NamesRoundTrip) {
  for (EvictionKind kind :
       {EvictionKind::kFifo, EvictionKind::kLru, EvictionKind::kLfu,
        EvictionKind::kRandom, EvictionKind::kClock}) {
    EXPECT_EQ(EvictionFromName(EvictionName(kind)), kind);
    EXPECT_EQ(MakeEvictionPolicy(kind)->kind(), kind);
  }
  EXPECT_THROW(EvictionFromName("arc"), std::invalid_argument);
}

ApproxCacheOptions SmallCache(std::size_t capacity = 3,
                              float tolerance = 1.0f) {
  ApproxCacheOptions opts;
  opts.capacity = capacity;
  opts.tolerance = tolerance;
  return opts;
}

// --------------------------------------------------------- ApproxCache --

// Typed over the cached value, the document-id list.
template <typename Value>
class ApproxCacheTest : public ::testing::Test {};
using CacheValues = ::testing::Types<std::vector<VectorId>>;
TYPED_TEST_SUITE(ApproxCacheTest, CacheValues);

TYPED_TEST(ApproxCacheTest, HitsWithinTau) {
  ApproxCache cache(2, SmallCache(3, 1.0f));
  cache.Insert(Vec2(0, 0), TypeParam{10});
  // Distance 0.25 <= 1.0 -> hit with the stored value.
  const auto hit = cache.Lookup(Vec2(0.5f, 0));
  ASSERT_TRUE(hit.hit);
  EXPECT_FALSE(hit.stale);
  EXPECT_FALSE(hit.answer);
  EXPECT_FLOAT_EQ(hit.best_distance, 0.25f);
  EXPECT_EQ(hit.value, TypeParam{10});

  const ApproxCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 1u);
}

TYPED_TEST(ApproxCacheTest, MissesBeyondTau) {
  ApproxCache cache(2, SmallCache(3, 1.0f));
  cache.Insert(Vec2(0, 0), TypeParam{10});
  // Distance 4 > 1 -> miss, still reporting the best distance.
  const auto miss = cache.Lookup(Vec2(2, 0));
  EXPECT_FALSE(miss.hit);
  EXPECT_FLOAT_EQ(miss.best_distance, 4.0f);

  const ApproxCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TYPED_TEST(ApproxCacheTest, FifoEvictsOldestOnceFull) {
  ApproxCache cache(2, SmallCache(2, 0.1f));
  cache.Insert(Vec2(0, 0), TypeParam{1});
  cache.Insert(Vec2(10, 0), TypeParam{2});
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(Vec2(20, 0), TypeParam{3});  // evicts (0,0)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup(Vec2(0, 0)).hit);
  EXPECT_TRUE(cache.Lookup(Vec2(10, 0)).hit);
  EXPECT_TRUE(cache.Lookup(Vec2(20, 0)).hit);
}

TYPED_TEST(ApproxCacheTest, GenerationStampMarksOlderEntriesStale) {
  ApproxCache cache(2, SmallCache(4, 0.5f));
  cache.Insert(Vec2(0, 0), TypeParam{1});
  EXPECT_FALSE(cache.Lookup(Vec2(0, 0)).stale);

  cache.set_generation(3);  // the corpus mutated underneath the entry
  const auto stale = cache.Lookup(Vec2(0, 0));
  ASSERT_TRUE(stale.hit);  // served: the default policy is serve-stale
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(cache.stats().stale_hits, 1u);

  // An entry filled after the stamp carries the current generation.
  cache.Insert(Vec2(0.1f, 0), TypeParam{2});
  const auto fresh = cache.Lookup(Vec2(0.1f, 0));
  ASSERT_TRUE(fresh.hit);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.value, TypeParam{2});
}

// Answer reuse is a second radius on the same scan (DESIGN.md §15):
// the nearest key's distance d is an answer hit within τ_answer on a
// current entry, else a document hit within τ, else a miss — and either
// radius may be the larger one.
TEST(AnswerRadiusTest, ClassifiesTheNearestKey) {
  ApproxCache cache(2, SmallCache(4, 1.0f));
  cache.Insert(Vec2(0, 0), {7});

  const auto answer = cache.Lookup(Vec2(0.5f, 0), 0.5f);  // d = 0.25
  ASSERT_TRUE(answer.hit);
  EXPECT_TRUE(answer.answer);
  EXPECT_EQ(answer.value, (std::vector<VectorId>{7}));

  const auto doc = cache.Lookup(Vec2(0.9f, 0), 0.5f);  // d = 0.81
  ASSERT_TRUE(doc.hit);
  EXPECT_FALSE(doc.answer);

  EXPECT_FALSE(cache.Lookup(Vec2(2, 0), 0.5f).hit);  // d = 4

  // τ_answer wider than τ: an answer hit the document radius misses.
  const auto wide = cache.Lookup(Vec2(1.5f, 0), 3.0f);  // d = 2.25
  ASSERT_TRUE(wide.hit);
  EXPECT_TRUE(wide.answer);
  // Without τ_answer the same query is a plain miss.
  EXPECT_FALSE(cache.Lookup(Vec2(1.5f, 0)).hit);

  const ApproxCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.keys_scanned, 5u);  // one scan per lookup
}

// A stale entry is never an answer hit; within τ it is what the
// staleness policy makes of it, beyond τ a miss.
TEST(AnswerRadiusTest, StaleEntryIsNeverAnAnswerHit) {
  ApproxCache cache(2, SmallCache(4, 1.0f));
  cache.Insert(Vec2(0, 0), {7});
  cache.set_generation(1);

  const auto served = cache.Lookup(Vec2(0, 0), 0.5f);
  ASSERT_TRUE(served.hit);  // serve-stale: a stale document hit
  EXPECT_TRUE(served.stale);
  EXPECT_FALSE(served.answer);
  EXPECT_FALSE(cache.Lookup(Vec2(1.5f, 0), 3.0f).hit);  // d = 2.25 > τ

  ApproxCacheOptions opts = SmallCache(4, 1.0f);
  opts.staleness = StalenessPolicy::kRevalidate;
  ApproxCache revalidating(2, opts);
  revalidating.Insert(Vec2(0, 0), {7});
  revalidating.set_generation(1);
  EXPECT_FALSE(revalidating.Lookup(Vec2(0, 0), 0.5f).hit);
  EXPECT_EQ(revalidating.size(), 0u);  // dropped, as without τ_answer
}

// ------------------------------------------------------ ProximityCache --

TEST(ProximityCacheTest, MissOnEmpty) {
  ProximityCache cache(2, SmallCache());
  const auto result = cache.Lookup(Vec2(0, 0));
  EXPECT_FALSE(result.hit);
  EXPECT_TRUE(std::isinf(result.best_distance));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProximityCacheTest, BoundaryDistanceEqualToTauHits) {
  // Algorithm 1 line 4: "if min_dist <= tau" — inclusive.
  ProximityCache cache(2, SmallCache(3, 4.0f));
  cache.Insert(Vec2(0, 0), {1});
  const auto result = cache.Lookup(Vec2(2, 0));  // distance exactly 4
  EXPECT_TRUE(result.hit);
}

TEST(ProximityCacheTest, ZeroToleranceIsExactMatching) {
  // §3.2.3: "tau = 0 is equivalent to using a cache with exact matching."
  ProximityCache cache(2, SmallCache(3, 0.0f));
  cache.Insert(Vec2(1, 1), {5});
  EXPECT_FALSE(cache.Lookup(Vec2(1.0001f, 1)).hit);
  EXPECT_TRUE(cache.Lookup(Vec2(1, 1)).hit);
}

TEST(ProximityCacheTest, ReturnsNearestKeyNotFirstKey) {
  ProximityCache cache(2, SmallCache(3, 10.0f));
  cache.Insert(Vec2(0, 0), {1});
  cache.Insert(Vec2(5, 0), {2});
  const auto result = cache.Lookup(Vec2(4, 0));  // closer to (5,0)
  ASSERT_TRUE(result.hit);
  EXPECT_EQ(result.value[0], 2);
}

TEST(ProximityCacheTest, LruEvictionKeepsAccessedEntry) {
  ApproxCacheOptions opts = SmallCache(2, 0.1f);
  opts.eviction = EvictionKind::kLru;
  ProximityCache cache(2, opts);
  cache.Insert(Vec2(0, 0), {1});
  cache.Insert(Vec2(10, 0), {2});
  cache.Lookup(Vec2(0, 0));        // touch (0,0): now most recent
  cache.Insert(Vec2(20, 0), {3});  // evicts (10,0), not (0,0)
  EXPECT_TRUE(cache.Lookup(Vec2(0, 0)).hit);
  EXPECT_FALSE(cache.Lookup(Vec2(10, 0)).hit);
}

TEST(ProximityCacheTest, StatsCountEverything) {
  ProximityCache cache(2, SmallCache(2, 1.0f));
  cache.Lookup(Vec2(0, 0));        // miss (empty)
  cache.Insert(Vec2(0, 0), {1});
  cache.Lookup(Vec2(0, 0));        // hit
  cache.Lookup(Vec2(9, 9));        // miss
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
  // keys_scanned: 0 (empty) + 1 + 1.
  EXPECT_EQ(stats.keys_scanned, 2u);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().lookups, 0u);
}

TEST(ProximityCacheTest, RetrieverImplementsAlgorithm1) {
  FlatIndex index(2);
  index.Add(Vec2(0, 0));
  index.Add(Vec2(3, 0));
  OneTenant stack(index, SmallCache(3, 1.0f), nullptr, {.top_k = 2});
  const ProximityCache& cache = stack.cache();
  Retriever retriever(stack.driver);

  // Miss: the database answers and its result is cached under the query.
  const auto r1 = retriever.Retrieve(Vec2(0, 0));
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.documents, (std::vector<VectorId>{0, 1}));
  EXPECT_EQ(cache.size(), 1u);

  // A τ-similar query is served from the cache: the database is bypassed.
  const auto r2 = retriever.Retrieve(Vec2(0.1f, 0));
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.documents, r1.documents);
  EXPECT_TRUE(r2.distances.empty());  // no database distances on a hit
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProximityCacheTest, ClearEmptiesCache) {
  ProximityCache cache(2, SmallCache(3, 1.0f));
  cache.Insert(Vec2(0, 0), {1});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Vec2(0, 0)).hit);
  // Reinsertion works after clear (policy state reset too).
  cache.Insert(Vec2(0, 0), {2});
  EXPECT_TRUE(cache.Lookup(Vec2(0, 0)).hit);
}

TEST(ProximityCacheTest, SetToleranceTakesEffect) {
  ProximityCache cache(2, SmallCache(3, 0.0f));
  cache.Insert(Vec2(0, 0), {1});
  EXPECT_FALSE(cache.Lookup(Vec2(1, 0)).hit);
  cache.set_tolerance(2.0f);
  EXPECT_TRUE(cache.Lookup(Vec2(1, 0)).hit);
}

TEST(ProximityCacheTest, IntrospectionAccessors) {
  ProximityCache cache(2, SmallCache(3, 1.0f));
  cache.Insert(Vec2(1, 2), {7, 8});
  EXPECT_FLOAT_EQ(cache.KeyAt(0)[0], 1.f);
  EXPECT_FLOAT_EQ(cache.KeyAt(0)[1], 2.f);
  EXPECT_EQ(cache.ValueAt(0)[1], 8);
  EXPECT_THROW(cache.KeyAt(1), std::out_of_range);
  EXPECT_THROW(cache.ValueAt(1), std::out_of_range);
}

TEST(ProximityCacheTest, ValidatesArguments) {
  EXPECT_THROW(ProximityCache(0, SmallCache()), std::invalid_argument);
  EXPECT_THROW(ProximityCache(2, SmallCache(0)), std::invalid_argument);
  ApproxCacheOptions neg = SmallCache();
  neg.tolerance = -1.0f;
  EXPECT_THROW(ProximityCache(2, neg), std::invalid_argument);
  ProximityCache cache(2, SmallCache());
  const std::vector<float> wrong = {1, 2, 3};
  EXPECT_THROW(cache.Lookup(wrong), std::invalid_argument);
  EXPECT_THROW(cache.Insert(wrong, {}), std::invalid_argument);
}

TEST(ProximityCacheTest, NegativeToleranceAllowedForInnerProduct) {
  ApproxCacheOptions opts;
  opts.capacity = 2;
  opts.metric = Metric::kInnerProduct;
  opts.tolerance = -0.5f;  // IP distances are negated similarities
  ProximityCache cache(2, opts);
  cache.Insert(Vec2(1, 0), {1});
  // dot((1,0),(1,0)) = 1 -> distance -1 <= -0.5: hit.
  EXPECT_TRUE(cache.Lookup(Vec2(1, 0)).hit);
  // dot((0,1),(1,0)) = 0 -> distance 0 > -0.5: miss.
  EXPECT_FALSE(cache.Lookup(Vec2(0, 1)).hit);
}

TEST(ProximityCacheTest, CosineMetricHits) {
  ApproxCacheOptions opts;
  opts.capacity = 2;
  opts.metric = Metric::kCosine;
  opts.tolerance = 0.01f;
  ProximityCache cache(2, opts);
  cache.Insert(Vec2(1, 0), {1});
  EXPECT_TRUE(cache.Lookup(Vec2(5, 0)).hit);   // parallel: distance 0
  EXPECT_FALSE(cache.Lookup(Vec2(0, 1)).hit);  // orthogonal: distance 1
}

TEST(ProximityCacheTest, SizeNeverExceedsCapacity) {
  ProximityCache cache(4, SmallCache(5, 0.0f));
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    std::vector<float> v(4);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 10));
    cache.Insert(v, {static_cast<VectorId>(i)});
    EXPECT_LE(cache.size(), 5u);
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.stats().evictions, 95u);
}

// ---------------------------------------------------------- AdaptiveTau --

TEST(AdaptiveTauTest, WidensWhenHitRateLow) {
  AdaptiveTauOptions opts;
  opts.target_hit_rate = 0.9;
  opts.window = 8;
  opts.period = 8;
  opts.initial_tau = 1.0;
  AdaptiveTau controller(opts);
  for (int i = 0; i < 64; ++i) controller.Observe(false);
  EXPECT_GT(controller.tau(), 1.0);
}

TEST(AdaptiveTauTest, TightensWhenHitRateHigh) {
  AdaptiveTauOptions opts;
  opts.target_hit_rate = 0.1;
  opts.window = 8;
  opts.period = 8;
  opts.initial_tau = 1.0;
  AdaptiveTau controller(opts);
  for (int i = 0; i < 64; ++i) controller.Observe(true);
  EXPECT_LT(controller.tau(), 1.0);
}

TEST(AdaptiveTauTest, RespectsBounds) {
  AdaptiveTauOptions opts;
  opts.target_hit_rate = 0.99;
  opts.window = 4;
  opts.period = 1;
  opts.initial_tau = 1.0;
  opts.max_tau = 2.0;
  AdaptiveTau controller(opts);
  for (int i = 0; i < 1000; ++i) controller.Observe(false);
  EXPECT_LE(controller.tau(), 2.0);

  AdaptiveTauOptions down = opts;
  down.target_hit_rate = 0.01;
  down.min_tau = 0.5;
  AdaptiveTau tight(down);
  for (int i = 0; i < 1000; ++i) tight.Observe(true);
  EXPECT_GE(tight.tau(), 0.5);
}

TEST(AdaptiveTauTest, EscapesZeroTau) {
  AdaptiveTauOptions opts;
  opts.initial_tau = 0.0;
  opts.target_hit_rate = 0.5;
  opts.window = 4;
  opts.period = 1;
  AdaptiveTau controller(opts);
  for (int i = 0; i < 64; ++i) controller.Observe(false);
  EXPECT_GT(controller.tau(), 0.0);
}

TEST(AdaptiveTauTest, WindowedHitRateTracksRecentHistory) {
  AdaptiveTauOptions opts;
  opts.window = 4;
  AdaptiveTau controller(opts);
  controller.Observe(true);
  controller.Observe(true);
  controller.Observe(false);
  controller.Observe(false);
  EXPECT_DOUBLE_EQ(controller.WindowedHitRate(), 0.5);
  // Two more misses push the hits out of the window.
  controller.Observe(false);
  controller.Observe(false);
  EXPECT_DOUBLE_EQ(controller.WindowedHitRate(), 0.0);
}

TEST(AdaptiveTauTest, ValidatesOptions) {
  AdaptiveTauOptions bad;
  bad.window = 0;
  EXPECT_THROW(AdaptiveTau{bad}, std::invalid_argument);
  AdaptiveTauOptions bad2;
  bad2.step = 1.0;
  EXPECT_THROW(AdaptiveTau{bad2}, std::invalid_argument);
  AdaptiveTauOptions bad3;
  bad3.min_tau = 5;
  bad3.max_tau = 1;
  EXPECT_THROW(AdaptiveTau{bad3}, std::invalid_argument);
}

}  // namespace
}  // namespace proximity
