// Load generator for the net serving front-end (DESIGN.md §9).
//
// Boots the full serving stack in-process (workload -> embedder ->
// sharded index -> concurrent cache -> BatchingDriver -> net::Server on
// an ephemeral loopback port) and drives it two ways:
//
//   closed loop  N connections, each sending its next request the moment
//                the previous response lands. Measures the service
//                capacity of the stack and the client-observed
//                hit-vs-miss latency split.
//   open loop    Poisson arrivals at a target offered QPS, send time
//                decoupled from response time (one sender + one receiver
//                thread per connection; TCP is full duplex). Latency is
//                measured from the *scheduled* arrival, so sender lag
//                cannot hide queueing delay (no coordinated omission).
//
// The open-loop sweep deliberately offers more load than the stack can
// serve at its top rate; with the driver's admission queue bounded, the
// surplus must surface as RESOURCE_EXHAUSTED sheds while the p99 of
// accepted requests stays bounded — the backpressure contract.
//
// Emits BENCH_net.json.
//
// Flags: --json=PATH --corpus=N --requests=N --quick
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/load_gen.h"
#include "cache/approx_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "rag/batching_driver.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Stats, the per-status latency split and the closed-loop driver are
// shared with bench/cluster_scaling through bench/load_gen.h.
using bench::ClosedCell;
using bench::EmitStatsJson;
using bench::LoadStats;

// The serving stack under test, owned for the bench's lifetime.
struct Stack {
  Workload workload;
  HashEmbedder embedder;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<BatchingDriver> driver;
  std::unique_ptr<net::Server> server;
  std::vector<StreamEntry> stream;

  void Boot(std::size_t corpus, std::size_t queue_bound) {
    workload = BuildWorkload(MmluLikeSpec(corpus, 42));
    QueryStreamOptions sopts;
    sopts.variants_per_question = 4;
    sopts.seed = 1;
    stream = BuildQueryStream(workload, sopts);

    IndexSpec ispec;
    ispec.kind = "hnsw";
    index = BuildShardedIndex(ispec, embedder.EmbedBatch(workload.passages),
                              {});

    ApproxCacheOptions copts;
    copts.capacity = 200;
    copts.tolerance = 2.0f;
    copts.metric = index->metric();
    registry = std::make_unique<TenantRegistry>(
        embedder.dim(), TenantRegistryOptions{.cache_defaults = copts});

    BatchingDriverOptions dopts;
    dopts.queue_bound = queue_bound;
    driver = std::make_unique<BatchingDriver>(*index, *registry,
                                              &embedder, dopts);
    server = std::make_unique<net::Server>(*driver, net::ServerOptions{});
    server->Start();
  }

  void Teardown() {
    server->Stop();
    driver->Shutdown();
    server.reset();
    driver.reset();
  }
};

ClosedCell RunClosedLoop(const Stack& stack,
                         const std::vector<std::string>& texts,
                         std::size_t conns, std::size_t requests) {
  bench::ClosedLoopOptions opts;
  opts.conns = conns;
  opts.requests = requests;
  // Fresh trace per request: client call + server spans land in the
  // same in-process rings, so the tail sampler keeps whole cross-side
  // traces (exported via --trace-out).
  opts.trace = true;
  return bench::RunClosedLoop("127.0.0.1", stack.server->port(), texts,
                              opts);
}

struct OpenCell {
  double offered_qps = 0;
  std::size_t conns = 0;
  std::size_t requests = 0;
  double wall_s = 0;
  LoadStats stats;
};

OpenCell RunOpenLoop(const Stack& stack, double offered_qps,
                     std::size_t conns, std::size_t requests) {
  OpenCell cell;
  cell.offered_qps = offered_qps;
  cell.conns = conns;
  cell.requests = requests;

  // One global Poisson schedule, partitioned round-robin so every
  // connection carries the same mean rate.
  Rng rng(7);
  std::vector<double> arrival_s(requests);
  double t = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    t += rng.Exponential(offered_qps);
    arrival_s[i] = t;
  }

  std::vector<LoadStats> per_conn(conns);
  std::vector<std::thread> threads;
  threads.reserve(2 * conns);

  std::vector<net::Client> clients(conns);
  std::vector<std::size_t> expected(conns, 0);
  for (std::size_t c = 0; c < conns; ++c) {
    if (!clients[c].Connect("127.0.0.1", stack.server->port())) {
      ++per_conn[c].transport;
      continue;
    }
    for (std::size_t i = c; i < requests; i += conns) ++expected[c];
  }

  const auto t0 = SteadyClock::now();
  for (std::size_t c = 0; c < conns; ++c) {
    if (!clients[c].connected()) continue;
    // Receiver: latency from the *scheduled* arrival of the request id,
    // not the actual send — coordinated-omission-safe.
    threads.emplace_back([&, c] {
      LoadStats& s = per_conn[c];
      for (std::size_t n = 0; n < expected[c]; ++n) {
        net::Response resp;
        if (!clients[c].Recv(&resp)) {
          ++s.transport;
          return;
        }
        const std::size_t idx = static_cast<std::size_t>(resp.id - 1);
        const auto scheduled =
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(arrival_s[idx]));
        s.Record(resp,
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     SteadyClock::now() - scheduled)
                     .count());
      }
    });
    // Sender: paces sends against the absolute schedule.
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < requests; i += conns) {
        const auto when =
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(arrival_s[i]));
        std::this_thread::sleep_until(when);
        net::Request req;
        req.id = i + 1;
        req.text = stack.stream[i % stack.stream.size()].text;
        if (!clients[c].Send(req)) {
          ++per_conn[c].transport;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  cell.wall_s = std::chrono::duration<double>(SteadyClock::now() - t0)
                    .count();
  for (const auto& s : per_conn) cell.stats.Merge(s);
  return cell;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_net.json";
  std::string trace_out;
  std::size_t corpus = 10000;
  std::size_t requests = 2000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<std::size_t>(std::atoll(argv[i] + 11));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (quick) {
    corpus = std::min<std::size_t>(corpus, 4000);
    requests = std::min<std::size_t>(requests, 600);
  }

  // Bound the admission queue so the overload points of the open-loop
  // sweep shed instead of queueing without bound.
  Stack stack;
  stack.Boot(corpus, /*queue_bound=*/512);
  std::printf("serve_load: corpus=%zu requests=%zu port=%u\n", corpus,
              requests, stack.server->port());

  std::vector<std::string> texts;
  texts.reserve(stack.stream.size());
  for (const auto& entry : stack.stream) texts.push_back(entry.text);

  // Closed loop: capacity and the hit-vs-miss split.
  const std::size_t conn_sweep_full[] = {1, 4, 16};
  const std::size_t conn_sweep_quick[] = {1, 4};
  const auto* conn_sweep = quick ? conn_sweep_quick : conn_sweep_full;
  const std::size_t conn_n = quick ? 2 : 3;

  std::vector<ClosedCell> closed;
  double top_qps = 0;
  for (std::size_t i = 0; i < conn_n; ++i) {
    ClosedCell cell = RunClosedLoop(stack, texts, conn_sweep[i], requests);
    const double qps = cell.wall_s > 0
                           ? static_cast<double>(cell.stats.all.count()) /
                                 cell.wall_s
                           : 0.0;
    top_qps = std::max(top_qps, qps);
    std::printf("closed conns=%-3zu qps=%9.1f p50=%s p99=%s "
                "(hit n=%llu p50=%s | miss n=%llu p50=%s)\n",
                cell.conns, qps,
                FormatNanos(cell.stats.all.QuantileNanos(0.5)).c_str(),
                FormatNanos(cell.stats.all.QuantileNanos(0.99)).c_str(),
                static_cast<unsigned long long>(cell.stats.hit.count()),
                FormatNanos(cell.stats.hit.QuantileNanos(0.5)).c_str(),
                static_cast<unsigned long long>(cell.stats.miss.count()),
                FormatNanos(cell.stats.miss.QuantileNanos(0.5)).c_str());
    closed.push_back(std::move(cell));
  }

  // Open loop: fractions of the measured top rate, the last point past
  // saturation so backpressure has to act.
  const double rates[] = {0.25, 0.75, 1.5};
  std::vector<OpenCell> open;
  for (const double frac : rates) {
    const double offered = std::max(50.0, top_qps * frac);
    OpenCell cell =
        RunOpenLoop(stack, offered, quick ? 2 : 8, requests);
    const double achieved =
        cell.wall_s > 0 ? static_cast<double>(cell.stats.all.count()) /
                              cell.wall_s
                        : 0.0;
    std::printf("open   offered=%9.1f achieved=%9.1f p50=%s p99=%s "
                "shed=%llu\n",
                offered, achieved,
                FormatNanos(cell.stats.all.QuantileNanos(0.5)).c_str(),
                FormatNanos(cell.stats.all.QuantileNanos(0.99)).c_str(),
                static_cast<unsigned long long>(cell.stats.shed));
    open.push_back(std::move(cell));
  }

  const net::ServerStats ns = stack.server->stats();
  const BatchingDriverStats ds = stack.driver->stats();
  stack.Teardown();

  // --trace-out: export the slowest tail-sampled trace of the run as
  // Chrome/Perfetto trace_event JSON (client call + server spans, one
  // process). An empty document is still written when nothing was
  // sampled (PROXIMITY_OBS=OFF) so artifact uploads never break.
  if (!trace_out.empty()) {
    const auto sampled = obs::TraceCollector::Default().Sampled();
    std::ofstream ts(trace_out);
    if (sampled.empty()) {
      ts << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n";
      std::printf("wrote %s (no sampled traces)\n", trace_out.c_str());
    } else {
      // Prefer the slowest trace that still has its client-call span in
      // the rings (closed-loop requests; the open loop sends raw frames)
      // so the artifact shows both sides of the wire.
      const auto has_client_side = [](const obs::SampledTrace& t) {
        return std::any_of(t.spans.begin(), t.spans.end(),
                           [](const obs::TraceSpanRecord& s) {
                             return s.op == obs::TraceOp::kClientCall;
                           });
      };
      std::optional<obs::SampledTrace> best;
      bool best_client = false;
      for (const auto& t : sampled) {
        auto full = obs::TraceCollector::Default().Find(t.trace_id);
        if (!full.has_value()) full = t;
        const bool client_side = has_client_side(*full);
        const bool better =
            !best.has_value() || (client_side && !best_client) ||
            (client_side == best_client &&
             full->duration_ns > best->duration_ns);
        if (better) {
          best = std::move(full);
          best_client = client_side;
        }
      }
      const auto& trace = *best;
      ts << obs::ToTraceEventJson(trace);
      std::printf("wrote %s (trace 0x%016llx, %zu spans)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(trace.trace_id),
                  trace.spans.size());
    }
  }

  std::ofstream os(json_path);
  os << "{\n  \"bench\": \"serve_load\",\n  \"corpus\": " << corpus
     << ",\n  \"requests_per_cell\": " << requests
     << ",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"closed_loop\": [\n";
  for (std::size_t i = 0; i < closed.size(); ++i) {
    os << "    {\"conns\": " << closed[i].conns << ", ";
    EmitStatsJson(os, closed[i].stats, closed[i].wall_s);
    os << "}" << (i + 1 < closed.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open.size(); ++i) {
    os << "    {\"offered_qps\": " << open[i].offered_qps
       << ", \"conns\": " << open[i].conns << ", ";
    EmitStatsJson(os, open[i].stats, open[i].wall_s);
    os << "}" << (i + 1 < open.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"server\": {\"requests\": " << ns.requests
     << ", \"responses\": " << ns.responses << ", \"shed\": " << ns.shed
     << ", \"abandoned\": " << ns.abandoned
     << ", \"protocol_errors\": " << ns.protocol_errors
     << "},\n  \"driver\": {\"submitted\": " << ds.submitted
     << ", \"completed\": " << ds.completed << ", \"hits\": " << ds.hits
     << ", \"retrieved\": " << ds.retrieved
     << ", \"coalesced\": " << ds.coalesced << ", \"shed\": " << ds.shed
     << ", \"expired\": " << ds.expired << "}\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  // Sanity gate: every request answered, nothing leaked.
  const bool balanced = ns.requests == ns.responses &&
                        ds.hits + ds.retrieved + ds.coalesced + ds.shed +
                                ds.expired ==
                            ds.submitted;
  if (!balanced) {
    std::fprintf(stderr,
                 "serve_load: conservation violated (requests=%llu "
                 "responses=%llu)\n",
                 static_cast<unsigned long long>(ns.requests),
                 static_cast<unsigned long long>(ns.responses));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
