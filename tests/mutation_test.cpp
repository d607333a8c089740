// Live-corpus mutation suite (DESIGN.md §13): the mutable graph index,
// slot reuse, consolidation under concurrent queries, sharded routing,
// the generation counters, and the cache-staleness policies as seen
// through the public API. Runs under TSan (label `tsan`): the
// consolidate-vs-search test is the intended workout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/index_io.h"
#include "index/mutable_index.h"
#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"
#include "one_tenant.h"

namespace proximity {
namespace {

Matrix RandomRows(std::size_t n, std::size_t dim, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Matrix m(0, dim);
  m.Reserve(n);
  std::vector<float> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = dist(rng);
    m.AppendRow(row);
  }
  return m;
}

MutableGraphOptions SmallGraph() {
  MutableGraphOptions opts;
  opts.max_degree = 16;
  opts.build_beam = 32;
  opts.search_beam = 48;
  return opts;
}

TEST(MutableIndex, InsertThenSearchFindsSelf) {
  const std::size_t dim = 16;
  const Matrix rows = RandomRows(200, dim, 1);
  MutableGraphIndex index(dim, SmallGraph());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    EXPECT_EQ(index.Insert(rows.Row(i)), static_cast<VectorId>(i));
  }
  EXPECT_EQ(index.size(), 200u);
  // Every vector's own nearest neighbor is itself.
  std::size_t self_hits = 0;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const auto result = index.Search(rows.Row(i), 1);
    ASSERT_FALSE(result.empty());
    if (result[0].id == static_cast<VectorId>(i)) ++self_hits;
  }
  // The graph is approximate but self-search is the easy case.
  EXPECT_GE(self_hits, 195u);
}

TEST(MutableIndex, DeleteExcludesTombstonesFromSearch) {
  const std::size_t dim = 12;
  const Matrix rows = RandomRows(300, dim, 2);
  MutableGraphIndex index(dim, SmallGraph());
  for (std::size_t i = 0; i < rows.rows(); ++i) index.Insert(rows.Row(i));

  std::set<VectorId> deleted;
  for (VectorId id = 0; id < 300; id += 3) {
    EXPECT_TRUE(index.Delete(id));
    deleted.insert(id);
  }
  EXPECT_EQ(index.size(), 200u);
  EXPECT_EQ(index.tombstone_count(), 100u);
  // Double-delete and out-of-range ids are refused, not fatal.
  EXPECT_FALSE(index.Delete(0));
  EXPECT_FALSE(index.Delete(-1));
  EXPECT_FALSE(index.Delete(100000));

  // No search, at any k, may return a tombstoned id — even though the
  // tombstones are still traversed internally for routing.
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    for (const auto& n : index.Search(rows.Row(i), 10)) {
      EXPECT_EQ(deleted.count(n.id), 0u) << "tombstone " << n.id
                                         << " leaked into results";
    }
  }
}

TEST(MutableIndex, ConsolidateReclaimsAndSlotsAreReused) {
  const std::size_t dim = 8;
  const Matrix rows = RandomRows(120, dim, 3);
  MutableGraphIndex index(dim, SmallGraph());
  for (std::size_t i = 0; i < rows.rows(); ++i) index.Insert(rows.Row(i));

  for (VectorId id = 10; id < 20; ++id) EXPECT_TRUE(index.Delete(id));
  EXPECT_EQ(index.Consolidate(), 10u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.free_count(), 10u);
  const std::size_t slots_before = index.slot_count();

  // Re-inserts fill the reclaimed slots lowest-first, without growing
  // the arena; fresh inserts after that grow it again.
  const Matrix fresh = RandomRows(12, dim, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(index.Insert(fresh.Row(i)),
              static_cast<VectorId>(10 + i));
  }
  EXPECT_EQ(index.slot_count(), slots_before);
  EXPECT_EQ(index.free_count(), 0u);
  EXPECT_EQ(index.Insert(fresh.Row(10)),
            static_cast<VectorId>(slots_before));

  // A reused slot serves its NEW vector.
  const auto result = index.Search(fresh.Row(0), 1);
  ASSERT_FALSE(result.empty());
  EXPECT_EQ(result[0].id, 10);
}

TEST(MutableIndex, SerdeRoundTripPreservesSlotStateAfterChurn) {
  const std::size_t dim = 10;
  const Matrix rows = RandomRows(150, dim, 5);
  MutableGraphIndex index(dim, SmallGraph());
  for (std::size_t i = 0; i < rows.rows(); ++i) index.Insert(rows.Row(i));
  for (VectorId id = 0; id < 150; id += 5) ASSERT_TRUE(index.Delete(id));
  index.Consolidate();
  const Matrix fresh = RandomRows(7, dim, 6);
  for (std::size_t i = 0; i < fresh.rows(); ++i) index.Insert(fresh.Row(i));
  for (VectorId id = 77; id < 80; ++id) ASSERT_TRUE(index.Delete(id));

  std::stringstream buf;
  index.SaveTo(buf);
  // Through the magic-dispatching loader, like any other index file.
  const auto loaded = LoadIndex(buf);
  ASSERT_NE(loaded, nullptr);
  auto* mut = dynamic_cast<MutableGraphIndex*>(loaded.get());
  ASSERT_NE(mut, nullptr);

  EXPECT_EQ(mut->size(), index.size());
  EXPECT_EQ(mut->slot_count(), index.slot_count());
  EXPECT_EQ(mut->tombstone_count(), index.tombstone_count());
  EXPECT_EQ(mut->free_count(), index.free_count());
  EXPECT_EQ(mut->generation(), index.generation());
  for (std::size_t i = 0; i < 150; ++i) {
    const auto a = index.Search(rows.Row(i), 5);
    const auto b = mut->Search(rows.Row(i), 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
    }
  }
  // The loaded copy keeps mutating: slot reuse continues where the
  // original would (same free list, same ordering).
  const Matrix more = RandomRows(2, dim, 7);
  EXPECT_EQ(mut->Insert(more.Row(0)), index.Insert(more.Row(0)));
}

TEST(MutableIndex, ConsolidateUnderConcurrentQueriesNeverServesDeleted) {
  const std::size_t dim = 12;
  const std::size_t n = 600;
  const Matrix rows = RandomRows(n, dim, 8);
  MutableGraphOptions opts = SmallGraph();
  opts.consolidate_chunk = 16;  // many lock releases mid-consolidation
  MutableGraphIndex index(dim, opts);
  for (std::size_t i = 0; i < n; ++i) index.Insert(rows.Row(i));

  // Every odd id dies; queries race the chunked consolidation.
  std::set<VectorId> doomed;
  for (VectorId id = 1; id < static_cast<VectorId>(n); id += 2) {
    ASSERT_TRUE(index.Delete(id));
    doomed.insert(id);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> leaks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = index.Search(rows.Row(i % n), 10);
        for (const auto& nb : result) {
          if (doomed.count(nb.id) != 0) {
            leaks.fetch_add(1, std::memory_order_relaxed);
          }
        }
        i += 7;
      }
    });
  }
  EXPECT_EQ(index.Consolidate(), n / 2);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(leaks.load(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.size(), n / 2);
}

TEST(MutableIndex, GenerationIsMonotonePerMutation) {
  const std::size_t dim = 8;
  MutableGraphIndex index(dim, SmallGraph());
  EXPECT_EQ(index.generation(), 0u);
  const Matrix rows = RandomRows(20, dim, 9);
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    index.Insert(rows.Row(i));
    EXPECT_GT(index.generation(), last);
    last = index.generation();
  }
  ASSERT_TRUE(index.Delete(3));
  EXPECT_GT(index.generation(), last);
  last = index.generation();
  EXPECT_EQ(index.Consolidate(), 1u);
  EXPECT_GT(index.generation(), last);
  last = index.generation();
  // A failed delete is not a mutation; the counter must not move.
  EXPECT_FALSE(index.Delete(3));
  EXPECT_EQ(index.generation(), last);
  // A no-op consolidation reclaims nothing and must not move it either.
  EXPECT_EQ(index.Consolidate(), 0u);
  EXPECT_EQ(index.generation(), last);
}

TEST(MutableIndex, FactoryBuildsAndRecallTracksFlat) {
  const std::size_t dim = 24;
  const std::size_t n = 800;
  const Matrix rows = RandomRows(n, dim, 10);
  IndexSpec spec;
  spec.kind = "mutable";
  const auto index = BuildIndex(spec, rows);
  EXPECT_TRUE(index->SupportsMutation());
  EXPECT_EQ(index->size(), n);

  IndexSpec flat;
  flat.kind = "flat";
  const auto oracle = BuildIndex(flat, rows);
  const Matrix queries = RandomRows(50, dim, 11);
  std::size_t overlap = 0, total = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto got = index->Search(queries.Row(q), 10);
    const auto want = oracle->Search(queries.Row(q), 10);
    std::set<VectorId> gold;
    for (const auto& nb : want) gold.insert(nb.id);
    for (const auto& nb : got) overlap += gold.count(nb.id);
    total += want.size();
  }
  EXPECT_GE(static_cast<double>(overlap) / static_cast<double>(total),
            0.9);
  // Build-once indexes refuse Delete with a useful error instead.
  EXPECT_THROW((void)oracle->Delete(0), std::logic_error);
  EXPECT_FALSE(oracle->SupportsMutation());
}

TEST(ShardedMutation, RoutesByGlobalIdAndKeepsGenerationsMonotone) {
  const std::size_t dim = 16;
  const std::size_t n = 400;
  const Matrix rows = RandomRows(n, dim, 12);
  IndexSpec spec;
  spec.kind = "mutable";
  ShardedIndexOptions sopts;
  sopts.num_shards = 4;
  const auto index = BuildShardedIndex(spec, rows, sopts);
  ASSERT_TRUE(index->SupportsMutation());
  EXPECT_EQ(index->size(), n);

  std::vector<std::uint64_t> gens(index->num_shards());
  for (std::size_t s = 0; s < index->num_shards(); ++s) {
    gens[s] = index->shard_generation(s);
  }

  // Delete a spread of global ids; search never returns them again.
  std::set<VectorId> deleted;
  for (VectorId id = 0; id < static_cast<VectorId>(n); id += 4) {
    ASSERT_TRUE(index->Delete(id)) << id;
    deleted.insert(id);
  }
  EXPECT_FALSE(index->Delete(0));  // already gone
  EXPECT_EQ(index->size(), n - n / 4);
  for (std::size_t q = 0; q < 40; ++q) {
    for (const auto& nb : index->Search(rows.Row(q * 7 % n), 10)) {
      EXPECT_EQ(deleted.count(nb.id), 0u);
    }
  }
  // Per-shard generations only ever moved forward.
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < index->num_shards(); ++s) {
    EXPECT_GE(index->shard_generation(s), gens[s]);
    moved += index->shard_generation(s) - gens[s];
  }
  EXPECT_EQ(moved, n / 4);  // one bump per delete, summed across shards

  // Inserts land on the smallest shard and get stable global ids;
  // after consolidation, reclaimed global ids are reused in place.
  const Matrix fresh = RandomRows(8, dim, 13);
  const VectorId grown = index->Insert(fresh.Row(0));
  EXPECT_GE(grown, static_cast<VectorId>(n));  // no free slots yet
  index->Consolidate();
  const VectorId reused = index->Insert(fresh.Row(1));
  EXPECT_LT(reused, static_cast<VectorId>(n));  // a reclaimed global id
  EXPECT_TRUE(deleted.count(reused) != 0);
  const auto found = index->Search(fresh.Row(1), 1);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].id, reused);
}

// The three staleness policies, observed purely through the public
// cache API: fill at generation 0, bump, and watch what a hit does.
TEST(StalenessPolicy, ServeStaleServesAndCounts) {
  ApproxCacheOptions opts;
  opts.capacity = 8;
  opts.tolerance = 0.5f;
  opts.staleness = StalenessPolicy::kServeStale;
  ProximityCache cache(4, opts);
  const std::vector<float> q{1.0f, 0.0f, 0.0f, 0.0f};
  cache.Insert(q, {1, 2, 3});
  cache.set_generation(7);
  const auto hit = cache.Lookup(q);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
  EXPECT_EQ(cache.stats().stale_evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StalenessPolicy, RevalidateMissesAndEvictsTheEntry) {
  ApproxCacheOptions opts;
  opts.capacity = 8;
  opts.tolerance = 0.5f;
  opts.staleness = StalenessPolicy::kRevalidate;
  ProximityCache cache(4, opts);
  const std::vector<float> q{1.0f, 0.0f, 0.0f, 0.0f};
  cache.Insert(q, {1, 2, 3});
  cache.set_generation(7);
  EXPECT_FALSE(cache.Lookup(q).hit);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The refill is stamped with the NEW generation and serves again.
  cache.Insert(q, {4, 5, 6});
  const auto hit = cache.Lookup(q);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.value[0], 4);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
}

TEST(StalenessPolicy, InvalidateRegionEvictsTheWholeNeighborhood) {
  ApproxCacheOptions opts;
  opts.capacity = 8;
  opts.tolerance = 1.0f;
  opts.staleness = StalenessPolicy::kInvalidateRegion;
  ProximityCache cache(4, opts);
  // Two entries within τ of the probe, one far away.
  const std::vector<float> near_a{1.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> near_b{1.2f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> far_q{9.0f, 9.0f, 9.0f, 9.0f};
  const std::vector<float> probe{1.1f, 0.0f, 0.0f, 0.0f};
  cache.Insert(near_a, {1});
  cache.Insert(near_b, {2});
  cache.Insert(far_q, {3});
  cache.set_generation(3);
  EXPECT_FALSE(cache.Lookup(probe).hit);
  EXPECT_EQ(cache.stats().stale_evictions, 2u);
  // Region eviction is scoped: the far entry is outside τ of the probe
  // and survives, even though it is just as stale.
  EXPECT_EQ(cache.size(), 1u);
  // A probe AT the far entry is its own stale hit and purges it too —
  // the policy evicts rather than serves on every stale touch.
  EXPECT_FALSE(cache.Lookup(far_q).hit);
  EXPECT_EQ(cache.stats().stale_hits, 2u);
  EXPECT_EQ(cache.size(), 0u);
  // A post-mutation refill at the current generation serves normally.
  cache.Insert(far_q, {4});
  EXPECT_TRUE(cache.Lookup(far_q).hit);
  EXPECT_EQ(cache.stats().stale_hits, 2u);
}

TEST(StalenessPolicy, CacheSerdeCarriesPolicyGenerationAndStamps) {
  ApproxCacheOptions opts;
  opts.capacity = 8;
  opts.tolerance = 0.5f;
  opts.staleness = StalenessPolicy::kRevalidate;
  ProximityCache cache(4, opts);
  const std::vector<float> old_q{1.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> new_q{0.0f, 1.0f, 0.0f, 0.0f};
  cache.Insert(old_q, {1});
  cache.set_generation(5);
  cache.Insert(new_q, {2});  // stamped gen 5

  std::stringstream buf;
  cache.SaveTo(buf);
  ProximityCache loaded(4, {});
  loaded.LoadFrom(buf);
  EXPECT_EQ(loaded.staleness(), StalenessPolicy::kRevalidate);
  EXPECT_EQ(loaded.generation(), 5u);
  // The gen-5 entry is fresh, the gen-0 entry stale: only the former
  // survives a revalidate-policy lookup.
  EXPECT_TRUE(loaded.Lookup(new_q).hit);
  EXPECT_FALSE(loaded.Lookup(old_q).hit);
}

// End-to-end: mutations through the driver bump the generation, the
// pull-at-probe stamp reaches the tenant cache, and the conservation
// invariant extends to the `mutations` outcome.
TEST(DriverMutation, InsertDeleteRoundTripAndConservation) {
  HashEmbedder embedder;
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    corpus.push_back("seed document number " + std::to_string(i));
  }
  IndexSpec spec;
  spec.kind = "mutable";
  const auto index = BuildIndex(spec, embedder.EmbedBatch(corpus));

  ApproxCacheOptions copts;
  copts.capacity = 32;
  copts.tolerance = 0.05f;
  copts.staleness = StalenessPolicy::kRevalidate;
  BatchingDriverOptions dopts;
  dopts.max_batch = 8;
  OneTenant stack(*index, copts, &embedder, dopts);
  BatchingDriver& driver = stack.driver;
  const ProximityCache& cache = stack.cache();
  driver.EnableMutation(*index);
  ASSERT_TRUE(driver.mutation_enabled());

  // Warm the cache with a query, then mutate: the next probe must see
  // the bumped generation and revalidate instead of serving stale.
  (void)driver.SubmitText("what is document forty two").get();
  driver.Flush();

  std::promise<BatchResult> inserted;
  driver.SubmitMutationAsync(
      MutationOp::kInsert, "a brand new live document", kInvalidVector, {},
      [&](BatchResult r) { inserted.set_value(std::move(r)); });
  const BatchResult ins = inserted.get_future().get();
  EXPECT_EQ(ins.status, RequestStatus::kOk);
  ASSERT_EQ(ins.documents.size(), 1u);
  const VectorId new_id = ins.documents[0];
  EXPECT_EQ(new_id, 64);

  // The cache saw the new generation via pull-at-probe.
  (void)driver.SubmitText("what is document forty two").get();
  driver.Flush();
  EXPECT_EQ(cache.generation(), index->generation());
  EXPECT_GE(cache.stats().stale_hits, 1u);

  std::promise<BatchResult> deleted;
  driver.SubmitMutationAsync(
      MutationOp::kDelete, "", new_id, {},
      [&](BatchResult r) { deleted.set_value(std::move(r)); });
  EXPECT_EQ(deleted.get_future().get().status, RequestStatus::kOk);

  // Deleting an id that never existed is INVALID_ARGUMENT, and still
  // counts as a (processed) mutation in the conservation equation.
  std::promise<BatchResult> bogus;
  driver.SubmitMutationAsync(
      MutationOp::kDelete, "", 99999, {},
      [&](BatchResult r) { bogus.set_value(std::move(r)); });
  EXPECT_EQ(bogus.get_future().get().status,
            RequestStatus::kInvalidArgument);

  // Malformed mutations are refused inline.
  std::promise<BatchResult> empty_insert;
  driver.SubmitMutationAsync(
      MutationOp::kInsert, "", kInvalidVector, {},
      [&](BatchResult r) { empty_insert.set_value(std::move(r)); });
  EXPECT_EQ(empty_insert.get_future().get().status,
            RequestStatus::kInvalidArgument);

  driver.Shutdown();
  const BatchingDriverStats s = driver.stats();
  EXPECT_EQ(s.mutations, 3u);
  EXPECT_EQ(s.hits + s.retrieved + s.coalesced + s.shed + s.expired +
                s.quota_shed + s.mutations,
            s.submitted);
}

// On a mutation-armed server a read pipelined right behind a write on
// one connection sees the write: every request of such a driver rides
// the queue, so the read cannot be answered from the cache ahead of it.
// The write deletes the read's nearest document, which the read cached.
TEST(DriverMutation, PipelinedReadAfterWriteSeesTheWrite) {
  HashEmbedder embedder;
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    corpus.push_back("seed document number " + std::to_string(i));
  }
  IndexSpec spec;
  spec.kind = "mutable";
  const auto index = BuildIndex(spec, embedder.EmbedBatch(corpus));
  ApproxCacheOptions copts;
  copts.capacity = 32;
  copts.tolerance = 0.05f;
  copts.staleness = StalenessPolicy::kRevalidate;
  OneTenant stack(*index, copts, &embedder);
  stack.driver.EnableMutation(*index);
  net::Server server(stack.driver);
  server.Start();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::Request read;
  read.text = "what is document forty two";
  read.id = 1;
  net::Response before;
  ASSERT_TRUE(client.Call(read, &before));  // cached before the write
  ASSERT_EQ(before.status, RequestStatus::kOk);
  ASSERT_FALSE(before.documents.empty());
  const VectorId nearest = before.documents.front();

  net::Request write;
  write.id = 2;
  write.mutation_op = net::kMutationDelete;
  write.mutation_target = static_cast<std::uint64_t>(nearest);
  read.id = 3;
  ASSERT_TRUE(client.Send(write));
  ASSERT_TRUE(client.Send(read));
  net::Response written, after;
  ASSERT_TRUE(client.Recv(&written));
  ASSERT_TRUE(client.Recv(&after));
  ASSERT_EQ(written.id, 2u);
  EXPECT_EQ(written.status, RequestStatus::kOk);
  ASSERT_EQ(after.id, 3u);
  ASSERT_EQ(after.status, RequestStatus::kOk);
  EXPECT_FALSE(after.cache_hit());
  EXPECT_EQ(std::find(after.documents.begin(), after.documents.end(),
                      nearest),
            after.documents.end());

  server.Stop();
  stack.driver.Shutdown();
}

TEST(DriverMutation, EnableMutationRejectsForeignAndBuildOnceIndexes) {
  const std::size_t dim = 8;
  const Matrix rows = RandomRows(32, dim, 14);
  IndexSpec flat;
  flat.kind = "flat";
  const auto frozen = BuildIndex(flat, rows);
  IndexSpec mut;
  mut.kind = "mutable";
  const auto other = BuildIndex(mut, rows);

  ApproxCacheOptions copts;
  copts.capacity = 8;
  OneTenant stack(*frozen, copts);
  BatchingDriver& driver = stack.driver;
  EXPECT_THROW(driver.EnableMutation(*frozen), std::invalid_argument);
  EXPECT_THROW(driver.EnableMutation(*other), std::invalid_argument);
  EXPECT_FALSE(driver.mutation_enabled());
  driver.Shutdown();
}

// Concurrent churn through the sharded index: inserts, deletes and
// queries race; afterwards the id space is consistent. TSan's main
// course for this suite.
TEST(ShardedMutation, ConcurrentChurnKeepsInvariants) {
  const std::size_t dim = 12;
  const std::size_t n = 300;
  const Matrix rows = RandomRows(n, dim, 15);
  IndexSpec spec;
  spec.kind = "mutable";
  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  const auto index = BuildShardedIndex(spec, rows, sopts);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> inserted{0}, deleted{0};
  std::thread writer([&] {
    const Matrix extra = RandomRows(200, dim, 16);
    for (std::size_t i = 0; i < extra.rows(); ++i) {
      const VectorId id = index->Insert(extra.Row(i));
      inserted.fetch_add(1, std::memory_order_relaxed);
      if (i % 2 == 0 && index->Delete(id)) {
        deleted.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 64 == 63) index->Consolidate();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = index->Search(rows.Row(i % n), 5);
        EXPECT_LE(result.size(), 5u);
        i += 11;
      }
    });
  }
  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(index->size(), n + inserted.load() - deleted.load());
  // Generation moved once per applied mutation (consolidations may add
  // more); it is at least the mutation count.
  EXPECT_GE(index->generation(), inserted.load() + deleted.load());
}

}  // namespace
}  // namespace proximity
