// Tests for the extension surface: history-based cache warm-up and the
// ASCII plot renderer.
#include <gtest/gtest.h>

#include <atomic>

#include "common/ascii_plot.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "rag/warmup.h"

namespace proximity {
namespace {

TEST(WarmupTest, SeedsCacheAndCoversHistory) {
  // Historical queries in three tight clusters.
  Rng rng(5);
  Matrix history(0, 4);
  const float centers[3][4] = {{0, 0, 0, 0}, {10, 0, 0, 0}, {0, 10, 0, 0}};
  for (int i = 0; i < 90; ++i) {
    const auto& c = centers[i % 3];
    std::vector<float> q(4);
    for (int j = 0; j < 4; ++j) {
      q[j] = c[j] + static_cast<float>(rng.Gaussian(0, 0.1));
    }
    history.AppendRow(q);
  }

  ApproxCacheOptions copts;
  copts.capacity = 16;
  copts.tolerance = 1.0f;
  ProximityCache cache(4, copts);

  std::atomic<int> retrievals{0};
  WarmupOptions wopts;
  wopts.budget = 3;
  const auto report = WarmCacheFromHistory(
      cache, history,
      [&](std::span<const float>) {
        ++retrievals;
        return std::vector<VectorId>{static_cast<VectorId>(retrievals)};
      },
      wopts);

  EXPECT_EQ(report.entries_seeded, 3u);
  EXPECT_EQ(report.retrievals_performed, 3u);
  EXPECT_EQ(retrievals.load(), 3);
  EXPECT_GT(report.estimated_coverage, 0.95);
  // Cold queries near the historical clusters hit immediately.
  EXPECT_TRUE(cache.Lookup(std::vector<float>{0.1f, 0, 0, 0}).hit);
  EXPECT_TRUE(cache.Lookup(std::vector<float>{10, 0.1f, 0, 0}).hit);
  // Unrelated queries still miss.
  EXPECT_FALSE(cache.Lookup(std::vector<float>{5, 5, 5, 5}).hit);
}

TEST(WarmupTest, BudgetClampedToCapacity) {
  Matrix history(0, 2);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    history.AppendRow(std::vector<float>{
        static_cast<float>(rng.Gaussian(0, 5)),
        static_cast<float>(rng.Gaussian(0, 5))});
  }
  ApproxCacheOptions copts;
  copts.capacity = 4;
  ProximityCache cache(2, copts);
  WarmupOptions wopts;
  wopts.budget = 100;
  const auto report = WarmCacheFromHistory(
      cache, history,
      [](std::span<const float>) { return std::vector<VectorId>{1}; },
      wopts);
  EXPECT_LE(report.entries_seeded, 4u);
  EXPECT_LE(cache.size(), 4u);
}

TEST(WarmupTest, EmptyHistoryIsNoop) {
  Matrix history(0, 2);
  ProximityCache cache(2, {});
  const auto report = WarmCacheFromHistory(
      cache, history,
      [](std::span<const float>) { return std::vector<VectorId>{}; });
  EXPECT_EQ(report.entries_seeded, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(WarmupTest, RejectsDimensionMismatch) {
  Matrix history(3, 8);
  ProximityCache cache(4, {});
  EXPECT_THROW(
      WarmCacheFromHistory(
          cache, history,
          [](std::span<const float>) { return std::vector<VectorId>{}; }),
      std::invalid_argument);
}

// ------------------------------------------------------------ AsciiPlot --

TEST(AsciiPlotTest, RendersSeriesGlyphsAndLegend) {
  PlotSeries s1{.label = "alpha", .points = {{0, 0}, {1, 1}, {2, 4}}};
  PlotSeries s2{.label = "beta", .points = {{0, 4}, {1, 2}, {2, 0}}};
  const std::string out = RenderAsciiPlot({s1, s2});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(AsciiPlotTest, EmptyDataHandled) {
  EXPECT_EQ(RenderAsciiPlot({}), "(no data)\n");
  PlotSeries empty{.label = "x", .points = {}};
  EXPECT_EQ(RenderAsciiPlot({empty}), "(no data)\n");
}

TEST(AsciiPlotTest, TitleAndAxisLabelsShown) {
  PlotSeries s{.label = "s", .points = {{0, 1}, {5, 2}}};
  PlotOptions opts;
  opts.title = "my chart";
  opts.x_label = "tau";
  const std::string out = RenderAsciiPlot({s}, opts);
  EXPECT_EQ(out.find("my chart"), 0u);
  EXPECT_NE(out.find("tau"), std::string::npos);
}

TEST(AsciiPlotTest, YRangeLabelsReflectData) {
  PlotSeries s{.label = "s", .points = {{0, 0.25}, {1, 0.75}}};
  const std::string out = RenderAsciiPlot({s});
  EXPECT_NE(out.find("0.750"), std::string::npos);
  EXPECT_NE(out.find("0.250"), std::string::npos);
}

TEST(AsciiPlotTest, SinglePointDoesNotCrash) {
  PlotSeries s{.label = "dot", .points = {{1, 1}}};
  const std::string out = RenderAsciiPlot({s});
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlotTest, LogXHandlesZero) {
  PlotSeries s{.label = "s", .points = {{0, 1}, {0.5, 2}, {10, 3}}};
  PlotOptions opts;
  opts.log_x = true;
  EXPECT_NO_THROW(RenderAsciiPlot({s}, opts));
}

}  // namespace
}  // namespace proximity
