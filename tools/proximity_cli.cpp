// proximity_cli — command-line front end for the library.
//
// Subcommands:
//   sweep      grid sweep (capacity x tolerance) over a workload; the
//              generalized form of the Figure-3 benches
//   run        one pipeline configuration
//   adaptive   one run under the adaptive-tau controller
//   serve      concurrent serving over a sharded index with dynamic
//              microbatching (DESIGN.md §8); with listen=HOST:PORT the
//              same stack fronts the epoll RPC server (DESIGN.md §9)
//   client     closed-loop RPC client against a `serve listen=` server
//   route      cluster router front-end: one endpoint fanning queries
//              over the backend shard servers of a shard map, with
//              replica failover and hedged requests (DESIGN.md §14)
//   trace-gen  write a query trace (TSV) for a workload to a file
//   replay     run one configuration over a previously saved trace
//   info       effective defaults and build information
//
// SIGINT/SIGTERM during `serve` trigger a graceful drain in both modes:
// in-flight work completes, partial metrics are reported, and
// --metrics-out files are still written.
//
// All parameters are key=value pairs; `proximity_cli <cmd> help=true`
// lists the knobs of a subcommand. The one exception is telemetry:
// `--metrics-out FILE` (or `metrics_out=FILE`) writes the end-of-run
// metric snapshot; a `.prom`/`.txt` extension selects Prometheus text
// exposition, anything else the JSON run report. Several files may be
// given comma-separated to get both formats from one run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/config.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "llm/answer_model.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"
#include "vecmath/compressed_store.h"
#include "vecmath/kernels.h"
#include "rag/experiment.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/trace.h"

namespace proximity {
namespace {

WorkloadSpec SpecFor(const std::string& name, std::size_t corpus,
                     std::uint64_t seed) {
  if (name == "mmlu") return MmluLikeSpec(corpus, seed);
  if (name == "medrag") return MedragLikeSpec(corpus, seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (use mmlu or medrag)");
}

AnswerModelParams AnswerParamsFor(const std::string& name) {
  return name == "medrag" ? MedragAnswerParams() : MmluAnswerParams();
}

obs::RunReport MakeReport(const Config& cfg, const std::string& command) {
  obs::RunReport report;
  report.command = command;
  report.workload = cfg.GetString("workload", "mmlu");
  report.index_kind = cfg.GetString(
      "index", report.workload == "medrag" ? "flat" : "hnsw");
  return report;
}

// Snapshots the process-wide registry, prints the stage breakdown (unless
// quiet=true) and writes each comma-separated metrics_out path.
void EmitTelemetry(const Config& cfg, obs::RunReport report) {
  obs::PublishRunGauges(report);
  report.snapshot = obs::MetricsRegistry::Default().Snapshot();

  if (!cfg.GetBool("quiet", false)) {
    const std::string table = obs::RenderStageTable(report.snapshot);
    if (!table.empty()) {
      std::fputs("\n-- stage breakdown --\n", stdout);
      std::fputs(table.c_str(), stdout);
      std::fputs(obs::RenderStagePlot(report.snapshot).c_str(), stdout);
    }
  }

  const std::string out = cfg.GetString("metrics_out", "");
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t comma = out.find(',', start);
    if (comma == std::string::npos) comma = out.size();
    const std::string path = out.substr(start, comma - start);
    if (!path.empty()) {
      obs::WriteRunReport(report, path);
      LogInfo("metrics written -> {}", path);
    }
    start = comma + 1;
  }
}

SweepConfig ConfigFrom(const Config& cfg) {
  const std::string workload = cfg.GetString("workload", "mmlu");
  SweepConfig sc;
  sc.workload_spec = SpecFor(
      workload, static_cast<std::size_t>(cfg.GetInt("corpus", 10000)),
      static_cast<std::uint64_t>(cfg.GetInt("workload_seed", 42)));
  sc.answer_params = AnswerParamsFor(workload);
  sc.index_spec.kind =
      cfg.GetString("index", workload == "medrag" ? "flat" : "hnsw");
  sc.index_spec.hnsw_ef_construction =
      static_cast<std::size_t>(cfg.GetInt("ef_construction", 100));
  sc.index_spec.hnsw_ef_search =
      static_cast<std::size_t>(cfg.GetInt("ef_search", 64));
  sc.index_spec.ivf_nprobe =
      static_cast<std::size_t>(cfg.GetInt("nprobe", 8));
  sc.index_spec.storage = cfg.GetString("storage", "float32");
  sc.index_spec.rerank_factor =
      static_cast<std::size_t>(cfg.GetInt("rerank", 4));
  sc.capacities = cfg.GetIntList("capacities", {10, 50, 100, 200, 300});
  sc.tolerances =
      cfg.GetDoubleList("tolerances", workload == "medrag"
                                          ? std::vector<double>{0, 2, 5, 10}
                                          : std::vector<double>{0, 0.5, 1, 2,
                                                                5, 10});
  sc.num_seeds = static_cast<std::size_t>(cfg.GetInt("seeds", 3));
  sc.top_k = static_cast<std::size_t>(cfg.GetInt("top_k", 10));
  sc.variants_per_question =
      static_cast<std::size_t>(cfg.GetInt("variants", 4));
  sc.eviction = EvictionFromName(cfg.GetString("eviction", "fifo"));
  if (cfg.GetInt("storage_delay_us", 0) > 0) {
    sc.storage = StorageModel{
        .fixed_ns = cfg.GetInt("storage_delay_us", 0) * 1000,
        .per_result_ns = 0};
  }
  return sc;
}

int CmdSweep(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "sweep knobs: workload=mmlu|medrag corpus=N seeds=N\n"
        "  capacities=10,50,... tolerances=0,0.5,... index=flat|hnsw|...\n"
        "  storage=float32|sq8|sq4 rerank=N (compressed primary scan)\n"
        "  eviction=fifo|lru|lfu|random top_k=N variants=N\n"
        "  storage_delay_us=N (slow-storage model) quiet=true\n"
        "  --metrics-out FILE[.prom|.json][,FILE...]");
    return 0;
  }
  SweepRunner runner(ConfigFrom(cfg));
  const auto cells = runner.Run();
  SweepRunner::ToCsv(cells).Write(std::cout);
  std::printf("\n");
  SweepRunner::LatencyReductionSummary(cells).Write(std::cout);
  // A sweep aggregates many runs; the run-level triple stays zero and the
  // snapshot carries the cross-run stage totals.
  EmitTelemetry(cfg, MakeReport(cfg, "sweep"));
  return 0;
}

int CmdRun(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "run knobs: workload, corpus, capacity=N tau=X seed=N plus the\n"
        "  sweep knobs that configure index/workload\n"
        "  --metrics-out FILE[.prom|.json][,FILE...]");
    return 0;
  }
  SweepConfig sc = ConfigFrom(cfg);
  sc.capacities = {cfg.GetInt("capacity", 100)};
  sc.tolerances = {cfg.GetDouble("tau", 2.0)};
  sc.num_seeds = 1;
  SweepRunner runner(sc);
  const RunMetrics m = runner.RunOne(
      sc.capacities[0], sc.tolerances[0],
      static_cast<std::uint64_t>(cfg.GetInt("seed", 1)) == 0
          ? 1
          : static_cast<std::uint64_t>(cfg.GetInt("seed", 1)));
  std::printf("queries=%zu accuracy=%.4f hit_rate=%.4f "
              "mean_latency_ms=%.4f p50=%.4f p99=%.4f relevance=%.3f "
              "misleading=%.3f\n",
              m.queries, m.accuracy, m.hit_rate, m.mean_latency_ms,
              m.p50_latency_ms, m.p99_latency_ms, m.mean_relevance,
              m.mean_misleading);
  obs::RunReport report = MakeReport(cfg, "run");
  report.queries = m.queries;
  report.accuracy = m.accuracy;
  report.hit_rate = m.hit_rate;
  report.mean_latency_ms = m.mean_latency_ms;
  report.p50_latency_ms = m.p50_latency_ms;
  report.p99_latency_ms = m.p99_latency_ms;
  EmitTelemetry(cfg, std::move(report));
  return 0;
}

int CmdAdaptive(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "adaptive knobs: target=0.6 window=N period=N step=X capacity=N\n"
        "  plus the sweep knobs\n"
        "  --metrics-out FILE[.prom|.json][,FILE...] (JSON includes the\n"
        "  per-query tau trajectory)");
    return 0;
  }
  SweepConfig sc = ConfigFrom(cfg);
  sc.num_seeds = 1;
  SweepRunner runner(sc);
  AdaptiveTauOptions opts;
  opts.target_hit_rate = cfg.GetDouble("target", 0.6);
  opts.window = static_cast<std::size_t>(cfg.GetInt("window", 64));
  opts.period = static_cast<std::size_t>(cfg.GetInt("period", 8));
  opts.step = cfg.GetDouble("step", 1.25);
  opts.initial_tau = cfg.GetDouble("initial_tau", 0.5);
  opts.max_tau = cfg.GetDouble("max_tau", 20.0);
  const auto result =
      runner.RunAdaptive(cfg.GetInt("capacity", 200), opts, 1);
  std::printf("accuracy=%.4f hit_rate=%.4f mean_latency_ms=%.4f "
              "final_tau=%.3f mean_tau=%.3f adjustments=%llu\n",
              result.metrics.accuracy, result.metrics.hit_rate,
              result.metrics.mean_latency_ms, result.final_tau,
              result.mean_tau,
              static_cast<unsigned long long>(result.adjustments));
  obs::RunReport report = MakeReport(cfg, "adaptive");
  report.queries = result.metrics.queries;
  report.accuracy = result.metrics.accuracy;
  report.hit_rate = result.metrics.hit_rate;
  report.mean_latency_ms = result.metrics.mean_latency_ms;
  report.p50_latency_ms = result.metrics.p50_latency_ms;
  report.p99_latency_ms = result.metrics.p99_latency_ms;
  report.tau_trajectory = result.tau_trajectory;
  EmitTelemetry(cfg, std::move(report));
  return 0;
}

// SIGINT/SIGTERM stop flag for the synthetic (non-listening) serve mode:
// workers stop claiming stream entries, in-flight batches complete, and
// the partial run still reaches --metrics-out. The handler only stores an
// atomic, which is async-signal-safe; the network mode routes the same
// signals to net::Server::RequestDrain via net::InstallSignalDrain.
std::atomic<bool> g_serve_stop{false};

void ServeStopHandler(int /*signum*/) { g_serve_stop.store(true); }

void InstallServeStop(bool install) {
  struct sigaction sa{};
  sa.sa_handler = install ? ServeStopHandler : SIG_DFL;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Splits "HOST:PORT" (numeric IPv4). Throws on a malformed spec.
std::pair<std::string, std::uint16_t> ParseHostPort(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw std::invalid_argument("expected HOST:PORT, got '" + spec + "'");
  }
  const int port = std::stoi(spec.substr(colon + 1));
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("port out of range in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

void PrintDriverStats(const BatchingDriverStats& dstats) {
  std::printf("driver: batches=%llu hits=%llu answer_hits=%llu "
              "retrieved=%llu "
              "coalesced=%llu shed=%llu expired=%llu quota_shed=%llu\n",
              static_cast<unsigned long long>(dstats.batches),
              static_cast<unsigned long long>(dstats.hits),
              static_cast<unsigned long long>(dstats.answer_hits),
              static_cast<unsigned long long>(dstats.retrieved),
              static_cast<unsigned long long>(dstats.coalesced),
              static_cast<unsigned long long>(dstats.shed),
              static_cast<unsigned long long>(dstats.expired),
              static_cast<unsigned long long>(dstats.quota_shed));
}

// One line per tenant, printed after the global driver stats in the
// multi-tenant serve mode.
void PrintTenantStats(
    const std::map<TenantId, BatchingDriverStats>& per_tenant) {
  for (const auto& [id, s] : per_tenant) {
    std::printf("tenant %u: submitted=%llu hits=%llu answer_hits=%llu "
                "retrieved=%llu "
                "coalesced=%llu shed=%llu expired=%llu quota_shed=%llu\n",
                static_cast<unsigned>(id),
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.answer_hits),
                static_cast<unsigned long long>(s.retrieved),
                static_cast<unsigned long long>(s.coalesced),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.expired),
                static_cast<unsigned long long>(s.quota_shed));
  }
}

// /statusz body for the admin plane: the resolved runtime environment
// plus (in network mode) the live per-tenant quotas and queue depths.
// Called from the admin thread — everything it reads is an atomic, a
// short-mutex snapshot, or fixed at startup.
std::string ServeStatusz(const std::string& storage,
                         const std::string& index_desc,
                         const VectorIndex* index, BatchingDriver* driver,
                         TenantRegistry* registry) {
  std::string out;
  char line[320];
  out += "protocol: v" + std::to_string(net::kProtocolVersion) + "\n";
  out += "simd: " + std::string(SimdLevelName(ActiveSimdLevel())) + "\n";
  out += "storage: " + storage + "\n";
  out += "index: " + index_desc + "\n";
  // The live-corpus line: generation is read live (mutations bump it),
  // staleness/stale_hits come from the default tenant's cache — the one
  // every tenant shares a policy with in CLI serving.
  if (index != nullptr && index->SupportsMutation()) {
    std::uint64_t stale_hits = 0;
    const char* policy = "serve-stale";
    if (registry != nullptr) {
      const ProximityCache& cache = registry->CacheFor(kDefaultTenant);
      stale_hits = cache.stats().stale_hits;
      policy = StalenessPolicyName(cache.staleness());
    }
    std::snprintf(line, sizeof(line),
                  "mutation: enabled generation=%llu staleness=%s "
                  "stale_hits=%llu\n",
                  static_cast<unsigned long long>(index->generation()),
                  policy,
                  static_cast<unsigned long long>(stale_hits));
    out += line;
  } else {
    out += "mutation: disabled (build-once index)\n";
  }
#if PROXIMITY_OBS_ENABLED
  out += "obs: compiled ON\n";
#else
  out += "obs: compiled OFF\n";
#endif
  if (driver == nullptr || registry == nullptr) return out;
  // The answer-reuse line: whether the driver classifies answer hits,
  // and the registry-default τ_answer (OPERATIONS.md "Answer reuse").
  if (driver->options().answer_reuse) {
    std::snprintf(
        line, sizeof(line), "answer_reuse: enabled tau=%.3f\n",
        static_cast<double>(registry->options().answer_defaults.tolerance));
    out += line;
  } else {
    out += "answer_reuse: disabled\n";
  }
  const auto depths = driver->queue_depths();
  const auto served = driver->tenant_stats();
  std::snprintf(line, sizeof(line), "queued: %zu\n", driver->pending());
  out += line;
  for (const auto& info : registry->Infos()) {
    const auto depth_it = depths.find(info.id);
    const auto served_it = served.find(info.id);
    std::snprintf(
        line, sizeof(line),
        "tenant %u (%s): qps=%.1f burst=%.1f max_inflight=%zu "
        "weight=%.2f tau=%.3f answer_tau=%.3f cache_entries=%zu "
        "hit_rate=%.3f answer_hits=%llu inflight=%zu queued=%zu\n",
        static_cast<unsigned>(info.id), info.name.c_str(), info.quota.qps,
        info.quota.burst, info.quota.max_inflight, info.weight,
        static_cast<double>(info.tolerance),
        static_cast<double>(info.answer_tau), info.cache_entries,
        info.cache.HitRate(),
        static_cast<unsigned long long>(
            served_it == served.end() ? 0 : served_it->second.answer_hits),
        info.inflight,
        depth_it == depths.end() ? std::size_t{0} : depth_it->second);
    out += line;
  }
  return out;
}

int CmdServe(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "serve knobs: workload=mmlu|medrag corpus=N capacity=N tau=X\n"
        "  index=flat|hnsw|... shards=N (0 = one per core) threads=N\n"
        "  partition=I/N (serve only stripe I of an N-way split; the\n"
        "  stripes match shards=N, global ids are corpus rows — the\n"
        "  backend mode for `route`, see DESIGN.md §14)\n"
        "  index=mutable enables live INSERT/DELETE (protocol v4);\n"
        "  staleness=serve-stale|revalidate|invalidate-region (cache\n"
        "  policy when an entry predates the index generation)\n"
        "  storage=float32|sq8|sq4 rerank=N (compressed primary scan)\n"
        "  answer_tau=X (turns answer reuse on: a current-generation\n"
        "  cache entry within X is an answer hit, served with no\n"
        "  generation; DESIGN.md §15, docs/OPERATIONS.md runbook)\n"
        "  max_batch=N coalesce=true|false top_k=N\n"
        "  variants=N order=shuffled|grouped|zipf seed=N\n"
        "  --metrics-out FILE[.prom|.json][,FILE...]\n"
        "network mode (--listen HOST:PORT or listen=HOST:PORT):\n"
        "  port_file=PATH (write the bound port; useful with :0)\n"
        "  queue_bound=N (driver admission bound, 0 = unbounded)\n"
        "  max_connections=N max_inflight=N default_deadline_us=N\n"
        "  drain_timeout_ms=N; SIGINT/SIGTERM drain gracefully\n"
        "  --admin HOST:PORT (live introspection plane: /metrics\n"
        "  /healthz /statusz /tracez; admin_port_file=PATH with :0)\n"
        "multi-tenant (network mode): --tenants FILE (tenant roster:\n"
        "  one `id=N name=S qps=X burst=N max_inflight=N capacity=N\n"
        "  tau=X answer_tau=X weight=X adaptive=true\n"
        "  target_hit_rate=X` per line);\n"
        "  fair=true|false (weighted deficit-round-robin vs FIFO)");
    return 0;
  }
  // A retired key fails loudly: ignoring it would let an old config
  // silently change meaning.
  if (cfg.Has("max_wait_us")) {
    throw std::invalid_argument(
        "serve: max_wait_us= is retired (the batch flush is "
        "work-conserving: a batch is what arrived while the previous one "
        "ran, with no timer to set); drop the key");
  }
  if (cfg.Has("answer_cache")) {
    throw std::invalid_argument(
        "serve: answer_cache= is retired (answer reuse is a second radius "
        "on the one cache, sized by capacity=); set answer_tau= to turn "
        "it on");
  }
  const std::string workload_name = cfg.GetString("workload", "mmlu");
  const Workload workload = BuildWorkload(SpecFor(
      workload_name, static_cast<std::size_t>(cfg.GetInt("corpus", 10000)),
      static_cast<std::uint64_t>(cfg.GetInt("workload_seed", 42))));

  QueryStreamOptions sopts;
  const std::string order = cfg.GetString("order", "shuffled");
  sopts.order = order == "grouped"  ? StreamOrder::kGrouped
                : order == "zipf"   ? StreamOrder::kZipf
                                    : StreamOrder::kShuffled;
  sopts.variants_per_question =
      static_cast<std::size_t>(cfg.GetInt("variants", 4));
  sopts.seed = static_cast<std::uint64_t>(cfg.GetInt("stream_seed", 1));
  const auto stream = BuildQueryStream(workload, sopts);

  HashEmbedder embedder;
  std::vector<std::string> texts;
  texts.reserve(stream.size());
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  IndexSpec ispec;
  ispec.kind =
      cfg.GetString("index", workload_name == "medrag" ? "flat" : "hnsw");
  ispec.hnsw_ef_construction =
      static_cast<std::size_t>(cfg.GetInt("ef_construction", 100));
  ispec.hnsw_ef_search =
      static_cast<std::size_t>(cfg.GetInt("ef_search", 64));
  ispec.ivf_nprobe = static_cast<std::size_t>(cfg.GetInt("nprobe", 8));
  ispec.storage = cfg.GetString("storage", "float32");
  ispec.rerank_factor = static_cast<std::size_t>(cfg.GetInt("rerank", 4));
  ShardedIndexOptions shard_opts;
  shard_opts.num_shards =
      static_cast<std::size_t>(cfg.GetInt("shards", 0));
  // partition=I/N serves only stripe I of an N-way corpus split with
  // global ids; N such backends behind `route` answer exactly like one
  // process serving the whole corpus (DESIGN.md §14).
  const std::string partition = cfg.GetString("partition", "");
  std::unique_ptr<VectorIndex> index;
  if (!partition.empty()) {
    const auto slash = partition.find('/');
    std::size_t part = 0;
    std::size_t parts = 0;
    if (slash != std::string::npos) {
      try {
        part = static_cast<std::size_t>(
            std::stoul(partition.substr(0, slash)));
        parts = static_cast<std::size_t>(
            std::stoul(partition.substr(slash + 1)));
      } catch (const std::exception&) {
        parts = 0;
      }
    }
    if (parts == 0 || part >= parts) {
      std::fprintf(stderr, "serve: bad partition '%s' (want I/N, I < N)\n",
                   partition.c_str());
      return 2;
    }
    index = BuildPartitionedIndex(ispec, embedder.EmbedBatch(workload.passages),
                                  part, parts, shard_opts);
    LogInfo("serving partition {}/{} over {}", part, parts,
            index->Describe());
  } else {
    index = BuildShardedIndex(ispec, embedder.EmbedBatch(workload.passages),
                              shard_opts);
    LogInfo("serving over {}", index->Describe());
  }

  ApproxCacheOptions copts;
  copts.capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  copts.tolerance = static_cast<float>(cfg.GetDouble("tau", 2.0));
  copts.metric = index->metric();
  const std::string staleness_name =
      cfg.GetString("staleness", "serve-stale");
  if (!ParseStalenessPolicy(staleness_name, &copts.staleness)) {
    std::fprintf(stderr, "serve: unknown staleness policy '%s'\n",
                 staleness_name.c_str());
    return 2;
  }

  // Requests are routed through a TenantRegistry: per-tenant caches,
  // quotas, and fair batching (DESIGN.md §10). The flags above configure
  // tenant 0, the always-present default tenant every request lands on
  // without a roster.
  TenantRegistryOptions topts;
  topts.cache_defaults = copts;
  topts.answer_defaults.metric = copts.metric;
  // Answer reuse (DESIGN.md §15): a second radius on each tenant's cache.
  const bool answer_reuse = cfg.Has("answer_tau");
  if (answer_reuse) {
    topts.answer_defaults.tolerance =
        static_cast<float>(cfg.GetDouble("answer_tau", 0.0));
    LogInfo("serve: answer reuse enabled (tau={})",
            topts.answer_defaults.tolerance);
  }
  const std::string roster = cfg.GetString("tenants", "");
  // With an explicit roster, unknown tenant ids fall back to the
  // default tenant instead of minting unbounded per-tenant state.
  topts.unknown_policy = roster.empty()
                             ? UnknownTenantPolicy::kAutoRegister
                             : UnknownTenantPolicy::kMapToDefault;
  TenantRegistry registry(embedder.dim(), topts);
  if (!roster.empty()) {
    for (const auto& spec : LoadTenantSpecs(roster)) {
      registry.Register(spec);
    }
    LogInfo("serve: {} tenants registered (unknown ids -> tenant 0)",
            registry.tenant_count());
  }

  BatchingDriverOptions dopts;
  dopts.answer_reuse = answer_reuse;
  dopts.max_batch = static_cast<std::size_t>(cfg.GetInt("max_batch", 32));
  dopts.top_k = static_cast<std::size_t>(cfg.GetInt("top_k", 10));
  dopts.coalesce = cfg.GetBool("coalesce", true);
  dopts.queue_bound =
      static_cast<std::size_t>(cfg.GetInt("queue_bound", 0));
  dopts.fair = cfg.GetBool("fair", true);
  const std::size_t threads =
      static_cast<std::size_t>(cfg.GetInt("threads", 8));

  const std::string listen = cfg.GetString("listen", "");
  if (!listen.empty()) {
    // Network mode: the microbatching stack fronts the epoll RPC server.
    const auto [host, port] = ParseHostPort(listen);
    BatchingDriver driver(*index, registry, &embedder, dopts);
    if (index->SupportsMutation()) {
      driver.EnableMutation(*index);
      LogInfo("serve: live-corpus mutations enabled (protocol v4)");
    }
    net::ServerOptions nopts;
    nopts.host = host;
    nopts.port = port;
    nopts.max_connections =
        static_cast<std::size_t>(cfg.GetInt("max_connections", 256));
    nopts.max_inflight =
        static_cast<std::size_t>(cfg.GetInt("max_inflight", 1024));
    nopts.default_deadline_us = static_cast<std::uint64_t>(
        cfg.GetInt("default_deadline_us", 0));
    nopts.drain_timeout_ms = static_cast<std::uint64_t>(
        cfg.GetInt("drain_timeout_ms", 10000));
    net::Server server(driver, nopts);
    server.Start();
    const std::string port_file = cfg.GetString("port_file", "");
    if (!port_file.empty()) {
      // Scripts binding :0 read the ephemeral port from here.
      std::ofstream pf(port_file);
      pf << server.port() << "\n";
    }

    // Live introspection plane (--admin HOST:PORT): /healthz follows the
    // drain FSM, /statusz reports quotas and queue depths live.
    std::unique_ptr<net::AdminServer> admin;
    const std::string admin_spec = cfg.GetString("admin", "");
    if (!admin_spec.empty()) {
      const auto [admin_host, admin_port] = ParseHostPort(admin_spec);
      net::AdminHooks hooks;
      net::Server* srv = &server;
      hooks.health = [srv] {
        switch (srv->health()) {
          case net::ServerHealth::kServing:
            return net::HealthState::kServing;
          case net::ServerHealth::kDraining:
            return net::HealthState::kDraining;
          case net::ServerHealth::kStopped: break;
        }
        return net::HealthState::kUnavailable;
      };
      const std::string storage = ispec.storage;
      const std::string index_desc = index->Describe();
      const VectorIndex* vidx = index.get();
      BatchingDriver* drv = &driver;
      TenantRegistry* reg = &registry;
      hooks.statusz = [storage, index_desc, vidx, drv, reg] {
        return ServeStatusz(storage, index_desc, vidx, drv, reg);
      };
      admin = std::make_unique<net::AdminServer>(
          std::move(hooks),
          net::AdminOptions{admin_host, admin_port});
      admin->Start();
      const std::string admin_port_file =
          cfg.GetString("admin_port_file", "");
      if (!admin_port_file.empty()) {
        std::ofstream pf(admin_port_file);
        pf << admin->port() << "\n";
      }
    }

    net::InstallSignalDrain(&server);
    LogInfo("serve: ready on {}:{} (SIGINT/SIGTERM drains)", host,
            server.port());
    server.Join();
    net::InstallSignalDrain(nullptr);
    if (admin) admin->Stop();
    driver.Shutdown();

    const net::ServerStats ns = server.stats();
    const BatchingDriverStats dstats = driver.stats();
    std::printf("net: accepted=%llu requests=%llu responses=%llu "
                "shed=%llu unavailable=%llu deadline_exceeded=%llu "
                "abandoned=%llu protocol_errors=%llu\n",
                static_cast<unsigned long long>(ns.accepted),
                static_cast<unsigned long long>(ns.requests),
                static_cast<unsigned long long>(ns.responses),
                static_cast<unsigned long long>(ns.shed),
                static_cast<unsigned long long>(ns.unavailable),
                static_cast<unsigned long long>(ns.deadline_exceeded),
                static_cast<unsigned long long>(ns.abandoned),
                static_cast<unsigned long long>(ns.protocol_errors));
    PrintDriverStats(dstats);
    const auto per_tenant = driver.tenant_stats();
    if (per_tenant.size() > 1) PrintTenantStats(per_tenant);

    obs::RunReport report = MakeReport(cfg, "serve");
    report.queries = dstats.completed;
    report.hit_rate = dstats.completed > 0
                          ? static_cast<double>(dstats.hits) /
                                static_cast<double>(dstats.completed)
                          : 0.0;
    EmitTelemetry(cfg, std::move(report));
    return 0;
  }

  BatchingDriverStats dstats;
  InstallServeStop(true);
  Stopwatch wall;
  const ConcurrentRunResult result = RunStreamBatched(
      workload, *index, registry, AnswerModel(AnswerParamsFor(workload_name)),
      static_cast<std::uint64_t>(cfg.GetInt("seed", 1)), stream, embeddings,
      threads, dopts, &dstats, &g_serve_stop);
  const double wall_ms = wall.ElapsedMillis();
  InstallServeStop(false);
  if (g_serve_stop.load()) {
    LogWarn("serve: interrupted after {} of {} queries; partial metrics "
            "follow",
            result.metrics.queries, stream.size());
  }
  const double qps =
      wall_ms > 0
          ? static_cast<double>(result.metrics.queries) / (wall_ms / 1e3)
          : 0.0;

  std::printf("queries=%zu threads=%zu qps=%.1f accuracy=%.4f "
              "hit_rate=%.4f mean_latency_ms=%.4f p99=%.4f\n",
              result.metrics.queries, threads, qps, result.metrics.accuracy,
              result.metrics.hit_rate, result.metrics.mean_latency_ms,
              result.metrics.p99_latency_ms);
  PrintDriverStats(dstats);

  obs::RunReport report = MakeReport(cfg, "serve");
  report.queries = result.metrics.queries;
  report.accuracy = result.metrics.accuracy;
  report.hit_rate = result.metrics.hit_rate;
  report.mean_latency_ms = result.metrics.mean_latency_ms;
  report.p50_latency_ms = result.metrics.p50_latency_ms;
  report.p99_latency_ms = result.metrics.p99_latency_ms;
  EmitTelemetry(cfg, std::move(report));
  return 0;
}

int CmdClient(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "client knobs: connect=HOST:PORT n=200 conns=4 deadline_us=0\n"
        "  --tenant ID (tenant id stamped on every request; 0 = default)\n"
        "  trace=true (stamp a fresh trace context on every request so\n"
        "  the server's /tracez stitches client call + server spans)\n"
        "  workload=mmlu|medrag corpus=N variants=N order=... (the text\n"
        "  source; match the server's workload for meaningful hits)\n"
        "live-corpus mutations (server must run index=mutable):\n"
        "  insert_text=STR (send one v4 INSERT; prints the assigned id)\n"
        "  delete_inserted=true (then DELETE the id just assigned)\n"
        "  delete_id=N (send one v4 DELETE of id N)\n"
        "  A mutation invocation performs only the mutations and exits\n"
        "  (no query loop); exit is non-zero unless every round-trip OK.\n"
        "Closed loop: each connection sends its next request as soon as\n"
        "the previous response arrives. Prints client-observed latency\n"
        "percentiles split by cache hit vs miss. Exits non-zero when any\n"
        "request did not complete OK (per-status table on stderr).");
    return 0;
  }
  const std::string connect = cfg.GetString("connect", "");
  if (connect.empty()) {
    std::fputs("client: connect=HOST:PORT is required\n", stderr);
    return 2;
  }
  const auto [host, port] = ParseHostPort(connect);
  const std::size_t total = static_cast<std::size_t>(cfg.GetInt("n", 200));
  const std::size_t conns =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cfg.GetInt("conns", 4)));
  const std::uint64_t deadline_us =
      static_cast<std::uint64_t>(cfg.GetInt("deadline_us", 0));
  const auto tenant = static_cast<TenantId>(cfg.GetInt("tenant", 0));
  const bool trace = cfg.GetBool("trace", false);

  // Mutation round-trip mode: one connection, INSERT and/or DELETE,
  // parseable one-line results, then exit — the scripted building block
  // of tools/serve_smoke.sh's churn section.
  const std::string insert_text = cfg.GetString("insert_text", "");
  const long long delete_id = cfg.GetInt("delete_id", -1);
  const bool delete_inserted = cfg.GetBool("delete_inserted", false);
  if (!insert_text.empty() || delete_id >= 0) {
    net::Client client;
    if (!client.Connect(host, port)) {
      std::fputs("client: connect failed\n", stderr);
      return 2;
    }
    int failures = 0;
    VectorId inserted = kInvalidVector;
    std::uint64_t next_id = 1;
    if (!insert_text.empty()) {
      net::Request req;
      req.id = next_id++;
      req.tenant = tenant;
      req.mutation_op = net::kMutationInsert;
      req.text = insert_text;
      net::Response resp;
      if (!client.Call(req, &resp)) {
        std::fputs("client: transport error on INSERT\n", stderr);
        return 1;
      }
      if (resp.status == RequestStatus::kOk && !resp.documents.empty()) {
        inserted = resp.documents[0];
      } else {
        ++failures;
      }
      std::printf("insert: status=%s id=%lld\n",
                  RequestStatusName(resp.status),
                  static_cast<long long>(inserted));
    }
    const VectorId target =
        delete_id >= 0 ? static_cast<VectorId>(delete_id) : inserted;
    if (delete_id >= 0 || (delete_inserted && inserted != kInvalidVector)) {
      net::Request req;
      req.id = next_id++;
      req.tenant = tenant;
      req.mutation_op = net::kMutationDelete;
      req.mutation_target = static_cast<std::uint64_t>(target);
      net::Response resp;
      if (!client.Call(req, &resp)) {
        std::fputs("client: transport error on DELETE\n", stderr);
        return 1;
      }
      if (resp.status != RequestStatus::kOk) ++failures;
      std::printf("delete: status=%s id=%lld\n",
                  RequestStatusName(resp.status),
                  static_cast<long long>(target));
    }
    return failures == 0 ? 0 : 1;
  }

  const Workload workload = BuildWorkload(SpecFor(
      cfg.GetString("workload", "mmlu"),
      static_cast<std::size_t>(cfg.GetInt("corpus", 10000)),
      static_cast<std::uint64_t>(cfg.GetInt("workload_seed", 42))));
  QueryStreamOptions sopts;
  const std::string order = cfg.GetString("order", "shuffled");
  sopts.order = order == "grouped"  ? StreamOrder::kGrouped
                : order == "zipf"   ? StreamOrder::kZipf
                                    : StreamOrder::kShuffled;
  sopts.variants_per_question =
      static_cast<std::size_t>(cfg.GetInt("variants", 4));
  sopts.seed = static_cast<std::uint64_t>(cfg.GetInt("stream_seed", 1));
  const auto stream = BuildQueryStream(workload, sopts);
  if (stream.empty()) {
    std::fputs("client: empty query stream\n", stderr);
    return 2;
  }

  struct ConnResult {
    LatencyHistogram all, hit, miss;
    std::uint64_t ok = 0, deadline = 0, shed = 0, unavailable = 0,
                  other = 0, transport = 0;
  };
  std::vector<ConnResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  Stopwatch wall;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& r = results[c];
      net::Client client;
      if (!client.Connect(host, port)) {
        r.transport = total / conns + 1;
        return;
      }
      // Static request partition; ids are globally unique across conns.
      for (std::size_t i = c; i < total; i += conns) {
        net::Request req;
        req.id = static_cast<std::uint64_t>(i) + 1;
        req.deadline_us = deadline_us;
        req.tenant = tenant;
        req.text = stream[i % stream.size()].text;
        net::Response resp;
        Stopwatch sw;
        bool called;
        {
          // trace=true: a fresh root context per request; Client::Call
          // picks it up, stamps the frame (protocol v3 trace field) and
          // emits the client-call span. A no-op with PROXIMITY_OBS=OFF
          // (NewTraceId() returns 0 -> context inactive).
          const obs::ScopedTraceContext scope(
              trace ? obs::TraceContext{obs::NewTraceId(), 0}
                    : obs::TraceContext{});
          called = client.Call(req, &resp);
        }
        if (!called) {
          ++r.transport;
          break;  // connection is gone; stop this loop
        }
        const auto ns = static_cast<Nanos>(sw.ElapsedNanos());
        r.all.Record(ns);
        switch (resp.status) {
          case RequestStatus::kOk:
            ++r.ok;
            (resp.cache_hit() ? r.hit : r.miss).Record(ns);
            break;
          case RequestStatus::kDeadlineExceeded: ++r.deadline; break;
          case RequestStatus::kResourceExhausted: ++r.shed; break;
          case RequestStatus::kUnavailable: ++r.unavailable; break;
          default: ++r.other; break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = wall.ElapsedMillis();

  ConnResult merged;
  for (const auto& r : results) {
    merged.all.Merge(r.all);
    merged.hit.Merge(r.hit);
    merged.miss.Merge(r.miss);
    merged.ok += r.ok;
    merged.deadline += r.deadline;
    merged.shed += r.shed;
    merged.unavailable += r.unavailable;
    merged.other += r.other;
    merged.transport += r.transport;
  }
  const double qps =
      wall_ms > 0
          ? static_cast<double>(merged.all.count()) / (wall_ms / 1e3)
          : 0.0;
  std::printf("client: sent=%llu ok=%llu deadline_exceeded=%llu "
              "shed=%llu unavailable=%llu other=%llu transport_errors=%llu "
              "qps=%.1f\n",
              static_cast<unsigned long long>(merged.all.count()),
              static_cast<unsigned long long>(merged.ok),
              static_cast<unsigned long long>(merged.deadline),
              static_cast<unsigned long long>(merged.shed),
              static_cast<unsigned long long>(merged.unavailable),
              static_cast<unsigned long long>(merged.other),
              static_cast<unsigned long long>(merged.transport), qps);
  std::printf("latency all:  %s\n", merged.all.Summary().c_str());
  if (merged.hit.count() > 0) {
    std::printf("latency hit:  %s\n", merged.hit.Summary().c_str());
  }
  if (merged.miss.count() > 0) {
    std::printf("latency miss: %s\n", merged.miss.Summary().c_str());
  }
  // Scriptable failure contract: any request that did not complete OK
  // makes the client exit non-zero, with a per-status breakdown on
  // stderr (stdout keeps the parseable summary lines above).
  const std::uint64_t failed = merged.deadline + merged.shed +
                               merged.unavailable + merged.other +
                               merged.transport;
  if (failed > 0) {
    std::fprintf(stderr, "client: %llu of %llu requests failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(merged.all.count() +
                                                 merged.transport));
    const struct {
      const char* status;
      std::uint64_t count;
    } table[] = {
        {RequestStatusName(RequestStatus::kDeadlineExceeded),
         merged.deadline},
        {RequestStatusName(RequestStatus::kResourceExhausted), merged.shed},
        {RequestStatusName(RequestStatus::kUnavailable),
         merged.unavailable},
        {"OTHER", merged.other},
        {"TRANSPORT_ERROR", merged.transport},
    };
    for (const auto& row : table) {
      if (row.count == 0) continue;
      std::fprintf(stderr, "  %-20s %llu\n", row.status,
                   static_cast<unsigned long long>(row.count));
    }
  }
  return failed == 0 ? 0 : 1;
}

int CmdRoute(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "route knobs: shard_map=FILE (required; one replica per line:\n"
        "  `shard G rpc=HOST:PORT [admin=HOST:PORT]`, see OPERATIONS.md)\n"
        "  --listen HOST:PORT (default 127.0.0.1:0)\n"
        "  port_file=PATH (write the bound port; useful with :0)\n"
        "  workers=N connect_timeout_ms=N recv_timeout_ms=N\n"
        "  hedge=true|false hedge_quantile=X hedge_min_us=N\n"
        "  hedge_warmup=N (leg latencies per group before hedging arms)\n"
        "  probe_interval_ms=N probe_timeout_ms=N replica_retry_ms=N\n"
        "  max_leg_attempts=N\n"
        "  max_connections=N max_inflight=N default_deadline_us=N\n"
        "  drain_timeout_ms=N; SIGINT/SIGTERM drain gracefully\n"
        "  --admin HOST:PORT (/metrics /healthz /statusz;\n"
        "  admin_port_file=PATH with :0)\n"
        "Backends are `serve partition=I/N --listen ...` processes; every\n"
        "replica of group g must serve partition g/G of the same workload\n"
        "configuration (DESIGN.md §14).");
    return 0;
  }
  const std::string map_path = cfg.GetString("shard_map", "");
  if (map_path.empty()) {
    std::fputs("route: shard_map=FILE is required\n", stderr);
    return 2;
  }
  cluster::ShardMap map = cluster::ShardMap::Load(map_path);

  cluster::RouterOptions ropts;
  const auto [host, port] =
      ParseHostPort(cfg.GetString("listen", "127.0.0.1:0"));
  ropts.server.host = host;
  ropts.server.port = port;
  ropts.server.max_connections =
      static_cast<std::size_t>(cfg.GetInt("max_connections", 256));
  ropts.server.max_inflight =
      static_cast<std::size_t>(cfg.GetInt("max_inflight", 1024));
  ropts.server.default_deadline_us =
      static_cast<std::uint64_t>(cfg.GetInt("default_deadline_us", 0));
  ropts.server.drain_timeout_ms =
      static_cast<std::uint64_t>(cfg.GetInt("drain_timeout_ms", 10000));
  ropts.workers = static_cast<std::size_t>(cfg.GetInt("workers", 4));
  ropts.connect_timeout_ms =
      static_cast<int>(cfg.GetInt("connect_timeout_ms", 1000));
  ropts.recv_timeout_ms =
      static_cast<int>(cfg.GetInt("recv_timeout_ms", 5000));
  ropts.hedge = cfg.GetBool("hedge", true);
  ropts.hedge_quantile = cfg.GetDouble("hedge_quantile", 0.99);
  ropts.hedge_min_us =
      static_cast<std::uint64_t>(cfg.GetInt("hedge_min_us", 500));
  ropts.hedge_warmup =
      static_cast<std::size_t>(cfg.GetInt("hedge_warmup", 16));
  ropts.probe_interval_ms =
      static_cast<int>(cfg.GetInt("probe_interval_ms", 200));
  ropts.probe_timeout_ms =
      static_cast<int>(cfg.GetInt("probe_timeout_ms", 500));
  ropts.replica_retry_ms =
      static_cast<int>(cfg.GetInt("replica_retry_ms", 1000));
  ropts.max_leg_attempts =
      static_cast<std::size_t>(cfg.GetInt("max_leg_attempts", 3));

  cluster::Router router(std::move(map), ropts);
  router.Start();
  const std::string port_file = cfg.GetString("port_file", "");
  if (!port_file.empty()) {
    // Scripts binding :0 read the ephemeral port from here.
    std::ofstream pf(port_file);
    pf << router.port() << "\n";
  }

  // The admin plane mirrors `serve --admin`: /healthz follows the
  // front-end drain FSM (a probing upstream router would see this
  // router drain, too), /statusz adds per-group replica health.
  std::unique_ptr<net::AdminServer> admin;
  const std::string admin_spec = cfg.GetString("admin", "");
  if (!admin_spec.empty()) {
    const auto [admin_host, admin_port] = ParseHostPort(admin_spec);
    net::AdminHooks hooks;
    cluster::Router* rt = &router;
    hooks.health = [rt] {
      switch (rt->health()) {
        case net::ServerHealth::kServing:
          return net::HealthState::kServing;
        case net::ServerHealth::kDraining:
          return net::HealthState::kDraining;
        case net::ServerHealth::kStopped: break;
      }
      return net::HealthState::kUnavailable;
    };
    hooks.statusz = [rt] { return rt->Statusz(); };
    admin = std::make_unique<net::AdminServer>(
        std::move(hooks), net::AdminOptions{admin_host, admin_port});
    admin->Start();
    const std::string admin_port_file =
        cfg.GetString("admin_port_file", "");
    if (!admin_port_file.empty()) {
      std::ofstream pf(admin_port_file);
      pf << admin->port() << "\n";
    }
  }

  net::InstallSignalDrain(&router.frontend());
  LogInfo("route: ready on {}:{} with {} shard groups "
          "(SIGINT/SIGTERM drains)",
          host, router.port(), router.map().num_groups());
  router.Join();
  net::InstallSignalDrain(nullptr);
  if (admin) admin->Stop();

  const net::ServerStats ns = router.server_stats();
  std::printf("net: accepted=%llu requests=%llu responses=%llu "
              "shed=%llu unavailable=%llu deadline_exceeded=%llu "
              "abandoned=%llu protocol_errors=%llu\n",
              static_cast<unsigned long long>(ns.accepted),
              static_cast<unsigned long long>(ns.requests),
              static_cast<unsigned long long>(ns.responses),
              static_cast<unsigned long long>(ns.shed),
              static_cast<unsigned long long>(ns.unavailable),
              static_cast<unsigned long long>(ns.deadline_exceeded),
              static_cast<unsigned long long>(ns.abandoned),
              static_cast<unsigned long long>(ns.protocol_errors));
  // The same lines /statusz serves live, as the final stats block —
  // tools/cluster_smoke.sh greps these.
  std::fputs(router.Statusz().c_str(), stdout);

  const cluster::RouterStats rs = router.stats();
  obs::RunReport report = MakeReport(cfg, "route");
  report.queries = rs.queries;
  EmitTelemetry(cfg, std::move(report));
  return 0;
}

int CmdTraceGen(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "trace-gen knobs: workload=mmlu|medrag corpus=N out=PATH\n"
        "  order=shuffled|grouped|zipf variants=N stream_seed=N\n"
        "  zipf_length=N zipf_exponent=X");
    return 0;
  }
  const std::string out = cfg.GetString("out", "");
  if (out.empty()) {
    std::fputs("trace-gen: out=PATH is required\n", stderr);
    return 2;
  }
  const Workload workload = BuildWorkload(SpecFor(
      cfg.GetString("workload", "mmlu"),
      static_cast<std::size_t>(cfg.GetInt("corpus", 10000)),
      static_cast<std::uint64_t>(cfg.GetInt("workload_seed", 42))));
  QueryStreamOptions sopts;
  const std::string order = cfg.GetString("order", "shuffled");
  sopts.order = order == "grouped"  ? StreamOrder::kGrouped
                : order == "zipf"   ? StreamOrder::kZipf
                                    : StreamOrder::kShuffled;
  sopts.variants_per_question =
      static_cast<std::size_t>(cfg.GetInt("variants", 4));
  sopts.zipf_length =
      static_cast<std::size_t>(cfg.GetInt("zipf_length", 2000));
  sopts.zipf_exponent = cfg.GetDouble("zipf_exponent", 1.0);
  sopts.seed = static_cast<std::uint64_t>(cfg.GetInt("stream_seed", 1));
  const auto stream = BuildQueryStream(workload, sopts);
  SaveTraceToFile(stream, out);
  std::printf("wrote %zu queries -> %s\n", stream.size(), out.c_str());
  return 0;
}

int CmdReplay(const Config& cfg) {
  if (cfg.GetBool("help", false)) {
    std::puts(
        "replay knobs: trace=PATH plus the run knobs (workload, corpus,\n"
        "  capacity, tau, index, ...). The workload parameters must match\n"
        "  the ones the trace was generated with.");
    return 0;
  }
  const std::string path = cfg.GetString("trace", "");
  if (path.empty()) {
    std::fputs("replay: trace=PATH is required\n", stderr);
    return 2;
  }
  const std::string workload_name = cfg.GetString("workload", "mmlu");
  const Workload workload = BuildWorkload(SpecFor(
      workload_name, static_cast<std::size_t>(cfg.GetInt("corpus", 10000)),
      static_cast<std::uint64_t>(cfg.GetInt("workload_seed", 42))));
  const auto stream = LoadTraceFromFile(path, workload.questions.size());

  HashEmbedder embedder;
  IndexSpec ispec;
  ispec.kind =
      cfg.GetString("index", workload_name == "medrag" ? "flat" : "hnsw");
  ispec.hnsw_ef_construction =
      static_cast<std::size_t>(cfg.GetInt("ef_construction", 100));
  ispec.storage = cfg.GetString("storage", "float32");
  ispec.rerank_factor = static_cast<std::size_t>(cfg.GetInt("rerank", 4));
  auto index = BuildIndex(ispec, embedder.EmbedBatch(workload.passages));

  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  ApproxCacheOptions copts;
  copts.capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 100));
  copts.tolerance = static_cast<float>(cfg.GetDouble("tau", 2.0));
  copts.metric = index->metric();
  TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
  BatchingDriver driver(
      *index, registry, nullptr,
      {.top_k = static_cast<std::size_t>(cfg.GetInt("top_k", 10))});
  Retriever retriever(driver);
  RagPipeline pipeline(&workload, &retriever,
                       AnswerModel(AnswerParamsFor(workload_name)),
                       static_cast<std::uint64_t>(cfg.GetInt("seed", 1)));
  const RunMetrics m = pipeline.RunStream(stream, embeddings);
  std::printf("replayed %zu queries: accuracy=%.4f hit_rate=%.4f "
              "mean_latency_ms=%.4f\n",
              m.queries, m.accuracy, m.hit_rate, m.mean_latency_ms);
  obs::RunReport report = MakeReport(cfg, "replay");
  report.queries = m.queries;
  report.accuracy = m.accuracy;
  report.hit_rate = m.hit_rate;
  report.mean_latency_ms = m.mean_latency_ms;
  report.p50_latency_ms = m.p50_latency_ms;
  report.p99_latency_ms = m.p99_latency_ms;
  EmitTelemetry(cfg, std::move(report));
  return 0;
}

int CmdInfo(const Config& cfg) {
  std::puts("proximity_cli — Proximity approximate RAG cache (C++ repro)");
  std::puts("workloads: mmlu (131 q, HNSW), medrag (200 q, FLAT)");
  std::printf("indexes:  ");
  for (std::string_view kind : kIndexKinds) {
    std::printf(" %.*s", static_cast<int>(kind.size()), kind.data());
  }
  std::puts("");
  std::puts("eviction:  fifo (paper) lru lfu random clock");
  std::puts("subcommands: sweep run adaptive serve client route "
            "trace-gen replay info");
  std::puts("cluster:    route shard_map=FILE (router front-end over\n"
            "            `serve partition=I/N` backends; DESIGN.md §14)");
  std::puts("telemetry:  --metrics-out FILE (.prom/.txt -> Prometheus,");
  std::puts("            else JSON run report; comma-separate for both)");
  std::puts("net:        serve --listen HOST:PORT / client connect=...");
  std::puts("admin:      serve --admin HOST:PORT (/metrics /healthz "
            "/statusz /tracez)");
  std::printf("protocol:   v%u (length-prefixed PRXQ/PRXR; v1 frames "
              "accepted; optional trace field)\n",
              static_cast<unsigned>(net::kProtocolVersion));
  // With `--tenants FILE` the roster is parsed (not served) so operators
  // can validate a config and see the resulting tenant count up front.
  // Registering into a throwaway registry is what `serve` does, so a
  // conflicting repeated id fails here too.
  std::size_t tenants = 1;  // the default tenant always exists
  const std::string roster = cfg.GetString("tenants", "");
  if (!roster.empty()) {
    TenantRegistry registry(HashEmbedder().dim());
    for (const auto& spec : LoadTenantSpecs(roster)) registry.Register(spec);
    tenants = registry.tenant_count();
  }
  std::printf("tenants:    %zu registered (default tenant 0%s)\n", tenants,
              roster.empty() ? "" : ", roster validated");
  // The resolved runtime environment: which SIMD tier the dispatcher
  // actually picked on this host, and the parallelism it will use.
  std::printf("simd:       %s (runtime-dispatched)\n",
              std::string(SimdLevelName(ActiveSimdLevel())).c_str());
  // Active storage layout: what `storage=` resolves to for this
  // invocation. Quantized scans run the SIMD tier above.
  {
    const std::string storage = cfg.GetString("storage", "float32");
    StorageLayout layout = StorageLayout::kFloat32;
    const std::string name = ParseStorageLayout(storage, &layout)
                                 ? std::string(StorageLayoutName(layout))
                                 : "unknown";
    std::printf("storage:    %s layout\n", name.c_str());
  }
  std::printf("cores:      %u hardware threads\n",
              std::thread::hardware_concurrency());
#if PROXIMITY_OBS_ENABLED
  std::puts("obs:        compiled ON (spans + stage histograms active)");
#else
  std::puts("obs:        compiled OFF (spans are no-ops)");
#endif
  return 0;
}

int Main(int argc, char** argv) {
  // Everything else is key=value, but the telemetry flag follows the
  // conventional CLI spelling; rewrite it before parsing.
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    constexpr std::string_view kMetricsPrefix = "--metrics-out=";
    constexpr std::string_view kListenPrefix = "--listen=";
    constexpr std::string_view kAdminPrefix = "--admin=";
    constexpr std::string_view kTenantsPrefix = "--tenants=";
    constexpr std::string_view kTenantPrefix = "--tenant=";
    if (arg == "--metrics-out" && i + 1 < argc) {
      arg = std::string("metrics_out=") + argv[++i];
    } else if (arg.rfind(kMetricsPrefix, 0) == 0) {
      arg = "metrics_out=" + arg.substr(kMetricsPrefix.size());
    } else if (arg == "--admin" && i + 1 < argc) {
      arg = std::string("admin=") + argv[++i];
    } else if (arg.rfind(kAdminPrefix, 0) == 0) {
      arg = "admin=" + arg.substr(kAdminPrefix.size());
    } else if (arg == "--listen" && i + 1 < argc) {
      arg = std::string("listen=") + argv[++i];
    } else if (arg.rfind(kListenPrefix, 0) == 0) {
      arg = "listen=" + arg.substr(kListenPrefix.size());
    } else if (arg == "--tenants" && i + 1 < argc) {
      arg = std::string("tenants=") + argv[++i];
    } else if (arg.rfind(kTenantsPrefix, 0) == 0) {
      arg = "tenants=" + arg.substr(kTenantsPrefix.size());
    } else if (arg == "--tenant" && i + 1 < argc) {
      arg = std::string("tenant=") + argv[++i];
    } else if (arg.rfind(kTenantPrefix, 0) == 0) {
      arg = "tenant=" + arg.substr(kTenantPrefix.size());
    }
    args.push_back(std::move(arg));
  }
  std::vector<char*> argp;
  argp.reserve(args.size());
  for (auto& a : args) argp.push_back(a.data());
  const Config cfg =
      Config::FromArgs(static_cast<int>(argp.size()), argp.data());
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);
  const std::string cmd =
      cfg.positional().empty() ? "info" : cfg.positional().front();
  if (cmd == "sweep") return CmdSweep(cfg);
  if (cmd == "run") return CmdRun(cfg);
  if (cmd == "adaptive") return CmdAdaptive(cfg);
  if (cmd == "serve") return CmdServe(cfg);
  if (cmd == "client") return CmdClient(cfg);
  if (cmd == "route") return CmdRoute(cfg);
  if (cmd == "trace-gen") return CmdTraceGen(cfg);
  if (cmd == "replay") return CmdReplay(cfg);
  if (cmd == "info" || cmd == "help") return CmdInfo(cfg);
  std::fprintf(stderr, "unknown subcommand '%s' (try: info)\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) {
  try {
    return proximity::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
