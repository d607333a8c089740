// Telemetry-layer suite (`ctest -L obs`): shard merge exactness, span
// nesting, exporter goldens, and the PROXIMITY_OBS=OFF no-op contract.
// The suite is built in both obs modes by tools/check.sh; the OFF-only
// sections are compiled in under PROXIMITY_OBS_ENABLED=0.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "obs/stage.h"

namespace proximity::obs {
namespace {

TEST(MetricsRegistryTest, CounterMergesShardsExactly) {
  MetricsRegistry registry;
  const MetricId hits = registry.Counter("hits");
  const MetricId misses = registry.Counter("misses");
  ASSERT_NE(hits, kInvalidMetric);

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.Add(hits);
        if ((i & 3) == 0) registry.Add(misses, 2);
      }
    });
  }
  for (auto& t : pool) t.join();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("hits"), kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue("misses"), kThreads * (kPerThread / 4) * 2);
  EXPECT_EQ(snap.CounterValue("never-registered"), 0u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  const MetricId a = registry.Counter("same");
  const MetricId b = registry.Counter("same");
  EXPECT_EQ(a, b);
  registry.Add(a);
  registry.Add(b);
  EXPECT_EQ(registry.Snapshot().CounterValue("same"), 2u);
}

TEST(MetricsRegistryTest, HistogramShardMergeMatchesSerialReference) {
  MetricsRegistry registry;
  const MetricId lat = registry.Histogram("lat");
  ASSERT_NE(lat, kInvalidMetric);

  // Deterministic per-thread sample streams spanning several decades.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 4000;
  auto sample = [](std::size_t t, std::size_t i) -> Nanos {
    std::uint64_t x = t * 2654435761ull + i * 1315423911ull + 17;
    x ^= x >> 13;
    return static_cast<Nanos>(x % 50'000'000ull);  // up to 50 ms
  };

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        registry.Record(lat, sample(t, i));
      }
    });
  }
  for (auto& t : pool) t.join();

  LatencyHistogram reference;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      reference.Record(sample(t, i));
    }
  }

  const MetricsSnapshot snap = registry.Snapshot();
  const LatencyHistogram* merged = snap.FindHistogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), reference.count());
  EXPECT_EQ(merged->MinNanos(), reference.MinNanos());
  EXPECT_EQ(merged->MaxNanos(), reference.MaxNanos());
  EXPECT_DOUBLE_EQ(merged->MeanNanos(), reference.MeanNanos());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged->QuantileNanos(q), reference.QuantileNanos(q))
        << "q=" << q;
  }
}

TEST(MetricsRegistryTest, GaugesAreLastWriteAndAdd) {
  MetricsRegistry registry;
  const MetricId g = registry.Gauge("tau");
  registry.GaugeSet(g, 2.5);
  registry.GaugeAdd(g, 0.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().GaugeValue("tau"), 3.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().GaugeValue("nope"), 0.0);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry registry;
  const MetricId c = registry.Counter("c");
  const MetricId g = registry.Gauge("g");
  const MetricId h = registry.Histogram("h");
  registry.Add(c, 7);
  registry.GaugeSet(g, 1.5);
  registry.Record(h, 1000);
  ASSERT_FALSE(registry.Snapshot().Empty());

  registry.Reset();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.Empty());
  ASSERT_EQ(snap.counters.size(), 1u);  // names survive a Reset
  EXPECT_EQ(snap.counters[0].name, "c");
  EXPECT_EQ(snap.CounterValue("c"), 0u);
  const LatencyHistogram* hist = snap.FindHistogram("h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);

  // The shard stays usable after Reset.
  registry.Add(c, 3);
  EXPECT_EQ(registry.Snapshot().CounterValue("c"), 3u);
}

TEST(MetricsRegistryTest, OverflowingRegistrationIsSafeNoop) {
  MetricsRegistry registry;
  MetricId last = kInvalidMetric;
  for (std::size_t i = 0; i <= MetricsRegistry::kMaxCounters; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    last = registry.Counter(name);
  }
  EXPECT_EQ(last, kInvalidMetric);
  registry.Add(last);        // must not crash or corrupt
  registry.Record(kInvalidMetric, 100);
  registry.GaugeSet(kInvalidMetric, 1.0);
  EXPECT_EQ(registry.Snapshot().counters.size(),
            MetricsRegistry::kMaxCounters);
}

TEST(MetricsRegistryTest, RecordStageFeedsPreRegisteredHistogram) {
  MetricsRegistry registry;
  registry.RecordStage(Stage::kCacheScan, 1500);
  registry.RecordStage(Stage::kCacheScan, 2500);
  const MetricsSnapshot snap = registry.Snapshot();
  const LatencyHistogram* h = snap.FindHistogram("stage.cache_scan_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->MinNanos(), 1500);
  EXPECT_EQ(h->MaxNanos(), 2500);
}

TEST(StageTest, NamesCoverAllStages) {
  for (std::size_t s = 0; s < kNumStages; ++s) {
    EXPECT_STRNE(StageName(static_cast<Stage>(s)), "");
  }
  EXPECT_STREQ(StageName(Stage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(StageName(Stage::kIndexSearch), "index_search");
}

TEST(ExportTest, PrometheusNameSanitizes) {
  EXPECT_EQ(PrometheusName("cache.hits"), "proximity_cache_hits");
  EXPECT_EQ(PrometheusName("stage.embed_ns"), "proximity_stage_embed_ns");
  EXPECT_EQ(PrometheusName("a-b c"), "proximity_a_b_c");
}

TEST(ExportTest, PrometheusGolden) {
  MetricsSnapshot snap;
  snap.counters.push_back({"cache.hits", 42});
  snap.gauges.push_back({"cache.occupancy", 7.0});
  LatencyHistogram h;
  h.Record(1000);
  h.Record(1000);
  snap.histograms.push_back({"stage.embed_ns", h});

  const std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE proximity_cache_hits counter\n"
                      "proximity_cache_hits 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE proximity_cache_occupancy gauge\n"
                      "proximity_cache_occupancy 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE proximity_stage_embed_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("proximity_stage_embed_ns_count 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("proximity_stage_embed_ns_sum 2000\n"),
            std::string::npos);
  EXPECT_NE(text.find("proximity_stage_embed_ns{quantile=\"0.5\"}"),
            std::string::npos);
}

TEST(ExportTest, JsonGolden) {
  MetricsSnapshot snap;
  snap.counters.push_back({"cache.hits", 42});
  LatencyHistogram h;
  h.Record(500);
  snap.histograms.push_back({"lat", h});

  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"cache.hits\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"lat\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"min_ns\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\": 500"), std::string::npos);
}

TEST(RunReportTest, StageBreakdownListsActiveStagesAndHitMissSplit) {
  MetricsRegistry registry;
  registry.RecordStage(Stage::kIndexSearch, 200000);
  registry.Record(registry.Histogram("retrieve.hit_ns"), 5000);
  registry.Record(registry.Histogram("retrieve.miss_ns"), 250000);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::vector<StageRow> rows = StageBreakdown(snap);
  ASSERT_EQ(rows.size(), 3u);  // empty stage histograms are skipped
  EXPECT_EQ(rows[0].name, "index_search");
  EXPECT_EQ(rows[1].name, "retrieve.hit");
  EXPECT_EQ(rows[2].name, "retrieve.miss");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_GT(rows[2].mean_ns, rows[1].mean_ns);  // miss slower than hit

  const std::string table = RenderStageTable(snap);
  EXPECT_NE(table.find("index_search"), std::string::npos);
  EXPECT_NE(table.find("retrieve.miss"), std::string::npos);

  RunReport report;
  report.command = "test";
  report.queries = 1;
  report.tau_trajectory = {0.5, 1.0};
  report.snapshot = snap;
  const std::string json = RunReportToJson(report);
  EXPECT_NE(json.find("\"command\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"tau_trajectory\": [0.5, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"index_search\""), std::string::npos);
}

TEST(RunReportTest, EmptySnapshotRendersNothing) {
  MetricsSnapshot empty;
  EXPECT_TRUE(RenderStageTable(empty).empty());
  EXPECT_TRUE(RenderStagePlot(empty).empty());
  EXPECT_TRUE(StageBreakdown(empty).empty());
}

#if PROXIMITY_OBS_ENABLED

TEST(SpanTest, SpanFeedsDefaultRegistryStageHistogram) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const std::uint64_t before =
      reg.Snapshot().FindHistogram("stage.evict_ns")->count();
  {
    const Span s(Stage::kEvict);
    (void)s;
  }
  EXPECT_EQ(reg.Snapshot().FindHistogram("stage.evict_ns")->count(),
            before + 1);
}

TEST(HandlesTest, HandlesRecordIntoDefaultRegistry) {
  const CounterHandle counter("obs_test.unique_counter");
  const GaugeHandle gauge("obs_test.unique_gauge");
  const HistogramHandle hist("obs_test.unique_hist");
  counter.Inc(5);
  gauge.Set(2.0);
  hist.Record(1234);

  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_GE(snap.CounterValue("obs_test.unique_counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("obs_test.unique_gauge"), 2.0);
  const LatencyHistogram* h = snap.FindHistogram("obs_test.unique_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count(), 1u);
}

#else  // PROXIMITY_OBS_ENABLED == 0

TEST(ObsOffTest, SpansAndHandlesAreNoops) {
  // Everything below must compile and do nothing.
  const Span s(Stage::kCacheScan);
  (void)s;
  const CounterHandle counter("off.counter");
  const HistogramHandle hist("off.hist");
  counter.Inc();
  hist.Record(1000);
  // Handles never registered anything: the default registry still carries
  // only the pre-registered (all-empty) stage histograms.
  EXPECT_TRUE(MetricsRegistry::Default().Snapshot().Empty());
}

#endif  // PROXIMITY_OBS_ENABLED

}  // namespace
}  // namespace proximity::obs
