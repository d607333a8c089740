// Cluster router plane bench (DESIGN.md §14). Emits BENCH_cluster.json.
//
// Three experiments over an in-process cluster (backend net::Servers on
// loopback ports + a cluster::Router in the same process — the wire
// protocol, scatter-gather and failover paths are all real, only the
// machine boundary is elided):
//
//   single vs routed   The same closed-loop load against one
//                      single-process server over the whole corpus and
//                      against a router over P partitioned backends;
//                      reports qps and p99 for both so the router's
//                      per-hop cost is visible.
//   kill-a-replica     Stops one of a group's two replicas mid-load
//                      (graceful drain, the rolling-restart shape) and
//                      reports the recovery time — the window from the
//                      kill to the first post-kill OK answer — plus how
//                      many client requests failed during it. With the
//                      router retrying drained legs on the surviving
//                      replica the expected failure count is zero.
//   hedged vs unhedged The same 2-group × 2-replica cluster with one
//                      replica of each group stalling every 8th
//                      response by a few ms (ServerOptions debug stall —
//                      the GC/compaction-pause shape). The gate:
//                      hedged p99 <= unhedged p99. Mirrors
//                      shard_scaling's machine-readable skip on <4-core
//                      hosts ("skip_reason" non-null, gate field null).
//
// Flags: --json=PATH --corpus=N --requests=N --quick --force-gate
// (--force-gate runs the hedging comparison even on <4-core hosts — the
// numbers are then noise-prone, but the path stays debuggable there.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/load_gen.h"
#include "cache/approx_cache.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

using SteadyClock = std::chrono::steady_clock;
using bench::ClosedCell;
using bench::EmitStatsJson;
using bench::LoadStats;

// One backend shard server over partition `part`/`parts` — what
// `proximity_cli serve partition=I/N` boots, minus the process
// boundary.
struct Backend {
  HashEmbedder embedder;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<BatchingDriver> driver;
  std::unique_ptr<net::Server> server;

  Backend(const Matrix& corpus, std::size_t part, std::size_t parts,
          net::ServerOptions nopts = {}) {
    IndexSpec spec;
    spec.kind = "flat";
    index = BuildPartitionedIndex(spec, corpus, part, parts);
    ApproxCacheOptions copts;
    copts.capacity = 512;
    copts.tolerance = 2.0f;
    registry = std::make_unique<TenantRegistry>(
        embedder.dim(), TenantRegistryOptions{.cache_defaults = copts});
    BatchingDriverOptions dopts;
    dopts.top_k = 5;
    driver = std::make_unique<BatchingDriver>(*index, *registry, &embedder,
                                              dopts);
    server = std::make_unique<net::Server>(*driver, nopts);
    server->Start();
  }

  std::uint16_t port() const { return server->port(); }

  void Stop() {
    if (server) server->Stop();
    if (driver) driver->Shutdown();
  }

  ~Backend() { Stop(); }
};

std::string MapLine(std::uint32_t group, std::uint16_t port) {
  return "shard " + std::to_string(group) + " rpc=127.0.0.1:" +
         std::to_string(port) + "\n";
}

struct KillCell {
  double recovery_ms = 0;
  std::uint64_t failed_during_failover = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
  LoadStats stats;
};

// Offers closed-loop load from one thread while the main thread kills a
// replica; recovery time is the gap from the kill to the next OK.
KillCell RunKillReplica(const Matrix& corpus,
                        const std::vector<std::string>& texts,
                        std::size_t requests) {
  KillCell cell;
  auto victim = std::make_unique<Backend>(corpus, 0, 1);
  Backend survivor(corpus, 0, 1);
  cluster::RouterOptions ropts;
  ropts.workers = 2;
  ropts.hedge = false;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, victim->port()) +
                               MapLine(0, survivor.port())),
      ropts);
  router.Start();

  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> killed{false};
  SteadyClock::time_point kill_at{};
  SteadyClock::time_point recovered_at{};
  std::atomic<bool> recovered{false};

  std::thread load([&] {
    net::Client client;
    if (!client.Connect("127.0.0.1", router.port())) return;
    for (std::size_t i = 0; i < requests; ++i) {
      net::Request req;
      req.id = i + 1;
      req.text = texts[i % texts.size()];
      net::Response resp;
      const auto sent = SteadyClock::now();
      if (!client.Call(req, &resp)) {
        ++cell.stats.transport;
        if (!client.Connect("127.0.0.1", router.port())) break;
        continue;
      }
      cell.stats.Record(resp,
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            SteadyClock::now() - sent)
                            .count());
      if (killed.load(std::memory_order_acquire)) {
        if (resp.status != RequestStatus::kOk) {
          ++failed;
        } else if (!recovered.load(std::memory_order_relaxed)) {
          recovered_at = SteadyClock::now();
          recovered.store(true, std::memory_order_release);
        }
      }
    }
  });

  // Let the load warm up, then gracefully stop the victim — the
  // rolling-restart shape: its drain FSM answers in-flight work, new
  // legs get UNAVAILABLE and the router reroutes them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kill_at = SteadyClock::now();
  killed.store(true, std::memory_order_release);
  victim->Stop();
  victim.reset();
  load.join();

  cell.failed_during_failover = failed.load();
  if (recovered.load()) {
    cell.recovery_ms =
        std::chrono::duration<double, std::milli>(recovered_at - kill_at)
            .count();
  } else {
    cell.recovery_ms = -1;  // never recovered — the failure count tells
  }
  const cluster::RouterStats rs = router.stats();
  cell.failovers = rs.failovers;
  cell.retries = rs.retries;
  router.Stop();
  return cell;
}

// 2 groups x 2 replicas; one replica per group stalls every 8th
// response. Returns the client-observed stats with hedging on or off.
ClosedCell RunHedgeCell(const Matrix& corpus,
                        const std::vector<std::string>& texts,
                        std::size_t requests, bool hedge) {
  net::ServerOptions stall;
  stall.debug_stall_every = 8;
  stall.debug_stall_us = 4000;
  Backend slow0(corpus, 0, 2, stall);
  Backend fast0(corpus, 0, 2);
  Backend slow1(corpus, 1, 2, stall);
  Backend fast1(corpus, 1, 2);

  cluster::RouterOptions ropts;
  ropts.workers = 2;
  ropts.hedge = hedge;
  ropts.hedge_quantile = 0.9;
  ropts.hedge_warmup = 16;
  cluster::Router router(
      cluster::ShardMap::Parse(
          MapLine(0, slow0.port()) + MapLine(0, fast0.port()) +
          MapLine(1, slow1.port()) + MapLine(1, fast1.port())),
      ropts);
  router.Start();

  bench::ClosedLoopOptions lopts;
  lopts.conns = 2;
  lopts.requests = requests;
  lopts.trace = false;
  ClosedCell cell =
      bench::RunClosedLoop("127.0.0.1", router.port(), texts, lopts);
  router.Stop();
  return cell;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_cluster.json";
  std::size_t corpus_n = 8000;
  std::size_t requests = 2000;
  bool quick = false;
  bool force_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus_n = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<std::size_t>(std::atoll(argv[i] + 11));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--force-gate") == 0) {
      force_gate = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (quick) {
    corpus_n = std::min<std::size_t>(corpus_n, 3000);
    requests = std::min<std::size_t>(requests, 600);
  }

  const std::size_t cores = std::thread::hardware_concurrency();
  std::printf("cluster_scaling: corpus=%zu requests=%zu cores=%zu\n",
              corpus_n, requests, cores);

  // Workload: the MMLU-like spec the serving benches share, embedded
  // once — every backend partition and the single-process reference
  // index are built over the same matrix.
  Workload workload = BuildWorkload(MmluLikeSpec(corpus_n, 42));
  QueryStreamOptions sopts;
  sopts.variants_per_question = 4;
  sopts.seed = 1;
  const std::vector<StreamEntry> stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  texts.reserve(stream.size());
  for (const auto& entry : stream) texts.push_back(entry.text);
  HashEmbedder embedder;
  const Matrix corpus = embedder.EmbedBatch(workload.passages);

  // --- single process vs routed cluster ------------------------------
  bench::ClosedLoopOptions lopts;
  lopts.conns = 4;
  lopts.requests = requests;
  lopts.trace = false;

  ClosedCell single;
  {
    Backend whole(corpus, 0, 1);
    single = bench::RunClosedLoop("127.0.0.1", whole.port(), texts, lopts);
  }
  const double single_qps =
      single.wall_s > 0 ? single.stats.all.count() / single.wall_s : 0;
  std::printf("single          qps=%9.1f p99=%.2fms ok=%llu\n", single_qps,
              bench::LoadMs(single.stats.all.QuantileNanos(0.99)),
              static_cast<unsigned long long>(single.stats.ok));

  constexpr std::size_t kParts = 3;
  ClosedCell routed;
  cluster::RouterStats routed_stats;
  {
    std::vector<std::unique_ptr<Backend>> backends;
    std::string map_text;
    for (std::size_t p = 0; p < kParts; ++p) {
      backends.push_back(std::make_unique<Backend>(corpus, p, kParts));
      map_text +=
          MapLine(static_cast<std::uint32_t>(p), backends[p]->port());
    }
    cluster::RouterOptions ropts;
    ropts.workers = 4;
    ropts.hedge = false;
    cluster::Router router(cluster::ShardMap::Parse(map_text), ropts);
    router.Start();
    routed = bench::RunClosedLoop("127.0.0.1", router.port(), texts, lopts);
    routed_stats = router.stats();
    router.Stop();
  }
  const double routed_qps =
      routed.wall_s > 0 ? routed.stats.all.count() / routed.wall_s : 0;
  std::printf("routed parts=%zu qps=%9.1f p99=%.2fms ok=%llu legs=%llu\n",
              kParts, routed_qps,
              bench::LoadMs(routed.stats.all.QuantileNanos(0.99)),
              static_cast<unsigned long long>(routed.stats.ok),
              static_cast<unsigned long long>(routed_stats.legs));

  // --- kill-a-replica recovery ---------------------------------------
  const KillCell kill = RunKillReplica(corpus, texts, requests);
  std::printf(
      "kill-replica    recovery=%.1fms failed_during_failover=%llu "
      "failovers=%llu retries=%llu\n",
      kill.recovery_ms,
      static_cast<unsigned long long>(kill.failed_during_failover),
      static_cast<unsigned long long>(kill.failovers),
      static_cast<unsigned long long>(kill.retries));

  // --- hedged vs unhedged tail ---------------------------------------
  // The gate needs 4 backends + router workers + the load loop to run
  // genuinely concurrently; on <4 cores the stall injection serializes
  // and the comparison is noise. Machine-readable skip, mirroring
  // shard_scaling.
  const bool gate_runs = cores >= 4 || force_gate;
  ClosedCell unhedged, hedged;
  double unhedged_p99 = 0, hedged_p99 = 0;
  const char* verdict = "null";
  const char* skip_reason = "null";
  if (gate_runs) {
    unhedged = RunHedgeCell(corpus, texts, requests, /*hedge=*/false);
    hedged = RunHedgeCell(corpus, texts, requests, /*hedge=*/true);
    unhedged_p99 = unhedged.stats.all.QuantileNanos(0.99);
    hedged_p99 = hedged.stats.all.QuantileNanos(0.99);
    verdict = hedged_p99 <= unhedged_p99 ? "true" : "false";
    std::printf("hedging         unhedged_p99=%.2fms hedged_p99=%.2fms "
                "gate=%s\n",
                bench::LoadMs(unhedged_p99), bench::LoadMs(hedged_p99),
                verdict);
  } else {
    skip_reason = "\"cores<4: hedging gate needs real concurrency\"";
    std::printf("hedging         skipped (cores=%zu < 4)\n", cores);
  }

  std::ofstream os(json_path);
  os << "{\n  \"bench\": \"cluster_scaling\",\n  \"corpus\": " << corpus_n
     << ",\n  \"requests\": " << requests
     << ",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"cores\": " << cores << ",\n  \"parts\": " << kParts
     << ",\n  \"single\": {";
  EmitStatsJson(os, single.stats, single.wall_s);
  os << "},\n  \"routed\": {";
  EmitStatsJson(os, routed.stats, routed.wall_s);
  os << ", \"legs\": " << routed_stats.legs
     << ", \"merge_fallbacks\": " << routed_stats.merge_fallbacks
     << "},\n  \"kill_replica\": {\"recovery_ms\": " << kill.recovery_ms
     << ", \"failed_during_failover\": " << kill.failed_during_failover
     << ", \"failovers\": " << kill.failovers
     << ", \"retries\": " << kill.retries << ", ";
  EmitStatsJson(os, kill.stats, 0);
  os << "},\n  \"hedging\": {\"gate_hedged_p99_le_unhedged\": " << verdict
     << ", \"skip_reason\": " << skip_reason;
  if (gate_runs) {
    os << ",\n    \"unhedged\": {";
    EmitStatsJson(os, unhedged.stats, unhedged.wall_s);
    os << "},\n    \"hedged\": {";
    EmitStatsJson(os, hedged.stats, hedged.wall_s);
    os << "}";
  }
  os << "\n  }\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  // Hard failures: a routed request that never succeeded, a failover
  // that dropped client requests, or a hedging gate regression.
  if (routed.stats.ok == 0) {
    std::fprintf(stderr, "cluster_scaling: no routed request succeeded\n");
    return 1;
  }
  if (kill.failed_during_failover != 0 || kill.recovery_ms < 0) {
    std::fprintf(stderr,
                 "cluster_scaling: failover dropped %llu client requests "
                 "(recovery_ms=%.1f)\n",
                 static_cast<unsigned long long>(
                     kill.failed_during_failover),
                 kill.recovery_ms);
    return 1;
  }
  // Enforced only when the host gives the gate real concurrency; a
  // --force-gate run still reports the numbers without failing on them.
  if (gate_runs && !force_gate && hedged_p99 > unhedged_p99) {
    std::fprintf(stderr,
                 "cluster_scaling: hedged p99 %.2fms > unhedged %.2fms\n",
                 bench::LoadMs(hedged_p99), bench::LoadMs(unhedged_p99));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
