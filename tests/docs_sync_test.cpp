// Documentation that cannot drift: docs/METRICS.md is a machine-checked
// contract. This test instantiates every instrumented subsystem (which
// links their translation units, so every namespace-scope metric handle
// registers), snapshots the default registry, and diffs the registered
// names against the tables in docs/METRICS.md — in BOTH directions. A
// metric added without a doc row fails; a doc row whose metric was
// removed or renamed fails.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/approx_cache.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "index/mutable_index.h"
#include "index/sharded_index.h"
#include "net/admin.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rag/batching_driver.h"
#include "rag/retriever.h"
#include "tenant/tenant_registry.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

// The helpers serve only the checks that run with the metrics compiled
// in; under PROXIMITY_OBS=OFF every test below skips.
#if PROXIMITY_OBS_ENABLED

constexpr std::size_t kDim = 8;

/// A documented metric: name plus its documented type column.
using MetricTable = std::map<std::string, std::string>;

/// Parses the tables of docs/METRICS.md: rows are
/// `| \`name\` | counter|gauge|histogram | ... |`.
MetricTable ParseMetricsDoc(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  MetricTable table;
  const std::regex row(R"(^\|\s*`([^`]+)`\s*\|\s*(\w+)\s*\|)");
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (!std::regex_search(line, m, row)) continue;
    const std::string type = m[2];
    if (type != "counter" && type != "gauge" && type != "histogram") {
      continue;  // header or separator row
    }
    EXPECT_TRUE(table.emplace(m[1], type).second)
        << "duplicate row for " << m[1];
  }
  return table;
}

/// Collapses per-tenant families onto the documented placeholder:
/// `tenant.search.hits` -> `tenant.<tenant>.hits`. `tenant.registered`
/// has no second dot and passes through unchanged. Per-shard-group
/// router families collapse the same way: `cluster.backend.0.inflight`
/// -> `cluster.backend.<backend>.inflight`.
std::string Normalize(const std::string& name) {
  static const std::regex tenant(R"(^tenant\.([^.]+)\.(.+)$)");
  static const std::regex backend(R"(^cluster\.backend\.([^.]+)\.(.+)$)");
  const std::string collapsed =
      std::regex_replace(name, tenant, "tenant.<tenant>.$2");
  return std::regex_replace(collapsed, backend, "cluster.backend.<backend>.$2");
}

/// Touches every instrumented subsystem so each translation unit with
/// namespace-scope metric handles is linked into this binary, and the
/// runtime-registered families (per-tenant) actually register.
void InstantiateTheStack() {
  Rng rng(5);
  std::vector<float> vec(kDim);
  for (auto& x : vec) x = static_cast<float>(rng.Gaussian(0, 1));

  // cache.* — and via ShardedIndex, shard.*.
  FlatIndex index(kDim);
  index.Add(vec);
  ProximityCache cache(kDim, {});
  cache.Insert(vec, {1});
  (void)cache.Lookup(vec);

  // cache.stale_* — a stale hit under the default serve-stale policy.
  cache.set_generation(1);
  (void)cache.Lookup(vec);

  // index.* — one full live-corpus mutation cycle (DESIGN.md §13).
  MutableGraphIndex mutable_index(kDim, {});
  const VectorId mid = mutable_index.Insert(vec);
  (void)mutable_index.Delete(mid);
  (void)mutable_index.Consolidate();

  // shard.*
  std::vector<std::unique_ptr<VectorIndex>> shards;
  auto shard = std::make_unique<FlatIndex>(kDim);
  shard->Add(vec);
  shards.push_back(std::move(shard));
  ShardedIndex sharded(std::move(shards), {{0}});
  (void)sharded.Search(vec, 1);

  // tenant.* — enough tenants to cross the cardinality cap, so the
  // shared `tenant.other.*` family registers too.
  TenantRegistryOptions topts;
  topts.max_obs_tenants = 2;
  TenantRegistry registry(kDim, topts);
  for (TenantId id = 1; id <= 3; ++id) {
    TenantSpec spec;
    spec.id = id;
    if (id == 1) spec.name = "search";
    registry.Register(spec);
    registry.Record(id, {});
  }
  (void)registry.CacheFor(kDefaultTenant).Lookup(vec);

  // serve.* (+ net.* via the server TU's handles).
  BatchingDriverOptions dopts;
  dopts.max_batch = 4;
  dopts.top_k = 1;
  BatchingDriver driver(index, registry, nullptr, dopts);
  (void)driver.Query(vec);

  // retriever.* / retrieve.*
  Retriever retriever(driver);
  (void)retriever.Retrieve(vec);
  driver.Shutdown();
  volatile auto drain =
      static_cast<void (*)(net::Server*)>(&net::InstallSignalDrain);
  (void)drain;

  // cluster.* — constructing a Router links the router TU (its
  // namespace-scope handles register) and mints the per-group inflight
  // gauge; no sockets are opened until Start().
  {
    const cluster::Router router(
        cluster::ShardMap::Parse("shard 0 rpc=127.0.0.1:1\n"));
    (void)router.stats();
  }

  // trace.* — emit one span into the rings and complete the trace
  // through the tail sampler so its counters/gauge register.
  {
    const obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
    obs::EmitTraceSpan({ctx.trace_id, obs::NewSpanId(), ctx.span_id,
                        obs::TraceOp::kRequest, 0, 1, 2});
    (void)obs::TraceCollector::Default().Complete(ctx, RequestStatus::kOk,
                                                  1000);
  }

  // admin.* — route one hit and one 404 through the introspection plane
  // (no sockets needed; Handle() is the whole routed surface).
  {
    const net::AdminServer admin;
    (void)admin.Handle("/healthz");
    (void)admin.Handle("/no-such-endpoint");
  }

  // run.*
  obs::PublishRunGauges(obs::RunReport{});
}

#endif  // PROXIMITY_OBS_ENABLED

TEST(DocsSyncTest, MetricsDocMatchesRegistryExactly) {
#if !PROXIMITY_OBS_ENABLED
  GTEST_SKIP() << "metrics are compiled out under PROXIMITY_OBS=OFF";
#else
  InstantiateTheStack();

  const MetricTable documented =
      ParseMetricsDoc(std::string(PROXIMITY_DOCS_DIR) + "/METRICS.md");
  ASSERT_FALSE(documented.empty()) << "no metric rows parsed";

  MetricTable registered;
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Default().Snapshot();
  for (const auto& c : snap.counters) {
    registered.emplace(Normalize(c.name), "counter");
  }
  for (const auto& g : snap.gauges) {
    registered.emplace(Normalize(g.name), "gauge");
  }
  for (const auto& h : snap.histograms) {
    registered.emplace(Normalize(h.name), "histogram");
  }

  for (const auto& [name, type] : registered) {
    const auto it = documented.find(name);
    if (it == documented.end()) {
      ADD_FAILURE() << "metric `" << name << "` (" << type
                    << ") is registered but missing from "
                       "docs/METRICS.md — add a table row for it";
    } else {
      EXPECT_EQ(it->second, type)
          << "docs/METRICS.md documents `" << name << "` as "
          << it->second << " but it registers as a " << type;
    }
  }
  for (const auto& [name, type] : documented) {
    if (!registered.count(name)) {
      ADD_FAILURE() << "docs/METRICS.md documents `" << name << "` ("
                    << type
                    << ") but nothing registers it — the metric was "
                       "removed or renamed; update the doc";
    }
  }
#endif
}

// The doc promises fixed registry capacities stay comfortably above the
// registered population; a silent kInvalidMetric overflow would make
// new metrics vanish without failing the sync above.
TEST(DocsSyncTest, RegistryCapacityHasHeadroom) {
#if !PROXIMITY_OBS_ENABLED
  GTEST_SKIP() << "metrics are compiled out under PROXIMITY_OBS=OFF";
#else
  InstantiateTheStack();
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Default().Snapshot();
  EXPECT_LT(snap.counters.size(), obs::MetricsRegistry::kMaxCounters);
  EXPECT_LT(snap.gauges.size(), obs::MetricsRegistry::kMaxGauges);
  EXPECT_LT(snap.histograms.size(), obs::MetricsRegistry::kMaxHistograms);
#endif
}

// The RunReport stage table is the other half of the coverage audit:
// every histogram family with samples must surface as a row, so a new
// timing metric cannot silently miss the per-run report.
TEST(DocsSyncTest, StageTableCoversEveryPopulatedHistogram) {
#if !PROXIMITY_OBS_ENABLED
  GTEST_SKIP() << "metrics are compiled out under PROXIMITY_OBS=OFF";
#else
  InstantiateTheStack();
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Default().Snapshot();

  std::set<std::string> rows;
  for (const auto& row : obs::StageBreakdown(snap)) {
    EXPECT_TRUE(rows.insert(row.name).second)
        << "duplicate stage row `" << row.name << "`";
  }
  std::size_t populated = 0;
  for (const auto& h : snap.histograms) {
    if (h.histogram.count() == 0) continue;
    ++populated;
  }
  // Every populated histogram produced exactly one row (stage.* rows
  // are renamed to their stage; everything else keeps its family name
  // minus a trailing `_ns`), so the counts must line up.
  EXPECT_EQ(rows.size(), populated)
      << "StageBreakdown dropped or duplicated a histogram family — "
         "new timing metrics must appear in the run report";
  ASSERT_FALSE(rows.empty());
  const std::string table = obs::RenderStageTable(snap);
  for (const auto& name : rows) {
    EXPECT_NE(table.find(name), std::string::npos)
        << "rendered table is missing row `" << name << "`";
  }
#endif
}

}  // namespace
}  // namespace proximity
