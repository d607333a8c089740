// Noisy-neighbor isolation bench for the multi-tenant serving layer
// (DESIGN.md §10).
//
// Drives the BatchingDriver directly (pre-embedded queries, so every
// phase measures queueing + cache + search, not the embedder) through
// three phases over the same sharded index:
//
//   solo   the compliant tenant alone, open-loop Poisson pacing at a
//          modest fraction of measured capacity. Its p99 is the
//          baseline any isolation story is judged against.
//   fair   the same compliant load, plus a hostile tenant flooding at
//          10x the compliant rate. The hostile tenant carries a
//          token-bucket quota and the flush runs weighted
//          deficit-round-robin — the isolation machinery under test.
//   fifo   the identical flood with quotas off and `fair=false`
//          (strict global FIFO, the pre-tenancy behavior), recorded as
//          the contrast: what the compliant tenant would have suffered.
//
// Latency is measured from the *scheduled* Poisson arrival to callback
// completion (no coordinated omission). The verdict gate: compliant
// p99 under the fair-mode flood must stay within 2x of solo p99.
//
// Emits BENCH_tenant.json.
//
// Flags: --json=PATH --corpus=N --requests=N --quick
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr std::size_t kDim = 64;
constexpr TenantId kHostile = 1;
constexpr TenantId kCompliant = 2;

/// One tenant's client-observed outcome tallies. Callbacks arrive from
/// the flusher thread while the sender records transport state, so the
/// mutex is part of the struct.
struct TenantLoad {
  std::mutex mu;
  LatencyHistogram latency;  // scheduled arrival -> completion, kOk only
  std::uint64_t ok = 0, shed = 0, deadline = 0, other = 0;
  std::uint64_t hits = 0;
  /// Submissions per second the sender achieved (it falls short of its
  /// target when SubmitAsync or the host cannot keep pace).
  double sent_qps = 0;

  void Record(const BatchResult& r, Nanos ns) {
    std::lock_guard<std::mutex> lock(mu);
    switch (r.status) {
      case RequestStatus::kOk:
        ++ok;
        if (r.cache_hit) ++hits;
        latency.Record(ns);
        break;
      case RequestStatus::kResourceExhausted: ++shed; break;
      case RequestStatus::kDeadlineExceeded: ++deadline; break;
      default: ++other; break;
    }
  }
};

/// A tenant's query pool: a bounded set of reusable embeddings (corpus
/// rows + noise), so a warm cache sees repeats — each tenant draws from
/// a DISJOINT corpus region, so any cross-tenant cache reuse would be
/// an isolation bug, not a hit.
Matrix BuildQueryPool(const Matrix& corpus, std::size_t pool,
                      std::size_t lo, std::size_t hi, std::uint64_t seed) {
  Rng rng(seed);
  Matrix queries(pool, corpus.dim());
  for (std::size_t q = 0; q < pool; ++q) {
    const auto row = corpus.Row(lo + rng.Below(hi - lo));
    auto out = queries.MutableRow(q);
    for (std::size_t d = 0; d < corpus.dim(); ++d) {
      out[d] = row[d] + static_cast<float>(rng.Gaussian(0, 0.01));
    }
  }
  return queries;
}

/// Paces `n` submissions for one tenant against an absolute Poisson
/// schedule and records completion latency from the scheduled arrival.
void RunSender(BatchingDriver& driver, TenantId tenant,
               const Matrix& pool, double qps, std::size_t n,
               SteadyClock::time_point t0, std::uint64_t seed,
               TenantLoad& load) {
  Rng rng(seed);
  double at_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at_s += rng.Exponential(qps);
    const auto scheduled =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(at_s));
    std::this_thread::sleep_until(scheduled);
    const auto row = pool.Row(rng.Below(pool.rows()));
    SubmitOptions opts;
    opts.tenant = tenant;
    driver.SubmitAsync(std::vector<float>(row.begin(), row.end()), opts,
                       [&load, scheduled](BatchResult r) {
                         const Nanos ns =
                             std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(
                                 SteadyClock::now() - scheduled)
                                 .count();
                         load.Record(r, ns);
                       });
  }
  const double sent_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  if (sent_s > 0) load.sent_qps = static_cast<double>(n) / sent_s;
}

/// Checks hits + retrieved + coalesced + shed + expired + quota_shed ==
/// submitted for every tenant of a drained driver.
bool Conserved(const std::map<TenantId, BatchingDriverStats>& per_tenant) {
  for (const auto& [id, s] : per_tenant) {
    if (s.hits + s.retrieved + s.coalesced + s.shed + s.expired +
            s.quota_shed !=
        s.submitted) {
      std::fprintf(stderr,
                   "tenant %u: conservation violated (submitted=%llu)\n",
                   static_cast<unsigned>(id),
                   static_cast<unsigned long long>(s.submitted));
      return false;
    }
  }
  return true;
}

struct PhaseResult {
  TenantLoad compliant, hostile;
  std::map<TenantId, BatchingDriverStats> per_tenant;
  double wall_s = 0;
};

BatchingDriverOptions DriverOptions(bool fair) {
  BatchingDriverOptions dopts;
  dopts.max_batch = 32;
  dopts.top_k = 10;
  dopts.queue_bound = 2048;
  dopts.fair = fair;
  return dopts;
}

std::unique_ptr<TenantRegistry> MakeRegistry(const ShardedIndex& index,
                                             double hostile_qps,
                                             double hostile_burst) {
  ApproxCacheOptions copts;
  copts.capacity = 256;
  copts.tolerance = 2.0f;
  copts.metric = index.metric();
  TenantRegistryOptions topts;
  topts.cache_defaults = copts;
  auto registry = std::make_unique<TenantRegistry>(index.dim(), topts);

  TenantSpec hostile;
  hostile.id = kHostile;
  hostile.name = "hostile";
  hostile.quota.qps = hostile_qps;  // 0 = unlimited (fifo contrast)
  hostile.quota.burst = hostile_burst;
  registry->Register(hostile);

  TenantSpec compliant;
  compliant.id = kCompliant;
  compliant.name = "compliant";
  registry->Register(compliant);
  return registry;
}

/// One phase: the compliant tenant paced at `compliant_qps`; if
/// `flood_qps` > 0 the hostile tenant floods alongside at that rate.
/// `result` is an out-param (TenantLoad owns mutexes, so PhaseResult
/// cannot be returned by value).
void RunPhase(const ShardedIndex& index, const Matrix& compliant_pool,
              const Matrix& hostile_pool, bool fair,
              double hostile_quota_qps, double compliant_qps,
              double flood_qps, std::size_t requests,
              PhaseResult& result) {
  // The hostile bucket holds a tenth of what its quota refills over the
  // phase (requests / compliant_qps seconds). The default depth, one
  // second of quota, outlasts a --quick phase: with a fast enough host it
  // admits the whole flood and quota_shed reads 0.
  const double hostile_burst = 0.1 * hostile_quota_qps *
                               static_cast<double>(requests) / compliant_qps;
  auto registry = MakeRegistry(index, hostile_quota_qps, hostile_burst);
  BatchingDriver driver(index, *registry, nullptr, DriverOptions(fair));

  const auto t0 = SteadyClock::now();
  std::thread compliant([&] {
    RunSender(driver, kCompliant, compliant_pool, compliant_qps, requests,
              t0, 11, result.compliant);
  });
  std::thread hostile;
  if (flood_qps > 0) {
    const std::size_t flood_n = static_cast<std::size_t>(
        static_cast<double>(requests) * flood_qps / compliant_qps);
    hostile = std::thread([&] {
      RunSender(driver, kHostile, hostile_pool, flood_qps, flood_n, t0, 13,
                result.hostile);
    });
  }
  compliant.join();
  if (hostile.joinable()) hostile.join();
  driver.Shutdown();
  result.wall_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  result.per_tenant = driver.tenant_stats();
}

/// Closed-loop capacity probe: `threads` workers submit back-to-back for
/// the compliant tenant; returns completed queries per second.
double MeasureCapacity(const ShardedIndex& index, const Matrix& pool,
                       std::size_t threads, std::size_t per_thread) {
  auto registry = MakeRegistry(index, 0, 0);
  BatchingDriver driver(index, *registry, nullptr, DriverOptions(true));
  const auto t0 = SteadyClock::now();
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(100 + w);
      for (std::size_t i = 0; i < per_thread; ++i) {
        const auto row = pool.Row(rng.Below(pool.rows()));
        (void)driver.Query(row);
      }
    });
  }
  for (auto& t : workers) t.join();
  const double wall_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  driver.Shutdown();
  return wall_s > 0
             ? static_cast<double>(threads * per_thread) / wall_s
             : 0.0;
}

double Ms(double ns) { return ns / 1e6; }

void EmitTenantJson(std::ofstream& os, TenantLoad& load) {
  std::lock_guard<std::mutex> lock(load.mu);
  os << "{\"sent_qps\": " << load.sent_qps << ", \"ok\": " << load.ok
     << ", \"cache_hits\": " << load.hits
     << ", \"shed\": " << load.shed
     << ", \"deadline_exceeded\": " << load.deadline
     << ", \"other\": " << load.other
     << ", \"p50_ms\": " << Ms(load.latency.QuantileNanos(0.50))
     << ", \"p99_ms\": " << Ms(load.latency.QuantileNanos(0.99)) << "}";
}

void EmitDriverJson(std::ofstream& os, const BatchingDriverStats& s) {
  os << "{\"submitted\": " << s.submitted << ", \"hits\": " << s.hits
     << ", \"retrieved\": " << s.retrieved
     << ", \"coalesced\": " << s.coalesced << ", \"shed\": " << s.shed
     << ", \"expired\": " << s.expired
     << ", \"quota_shed\": " << s.quota_shed << "}";
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_tenant.json";
  std::size_t corpus_n = 20000;
  std::size_t requests = 2000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus_n = static_cast<std::size_t>(std::atoll(argv[i] + 9));
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
    corpus_n = std::min<std::size_t>(corpus_n, 5000);
    requests = std::min<std::size_t>(requests, 500);
  }

  // Random corpus, hnsw shards (the serving default); each tenant's
  // query pool draws from its own half of the corpus.
  Rng rng(42);
  Matrix corpus(corpus_n, kDim);
  for (std::size_t r = 0; r < corpus_n; ++r) {
    auto row = corpus.MutableRow(r);
    for (auto& x : row) x = static_cast<float>(rng.Gaussian(0, 1));
  }
  IndexSpec ispec;
  ispec.kind = "hnsw";
  auto index = BuildShardedIndex(ispec, corpus, {});

  const Matrix compliant_pool =
      BuildQueryPool(corpus, 200, 0, corpus_n / 2, 7);
  const Matrix hostile_pool =
      BuildQueryPool(corpus, 200, corpus_n / 2, corpus_n, 9);

  const double capacity =
      MeasureCapacity(*index, compliant_pool, 4, quick ? 200 : 500);
  // Compliant load sits well inside capacity; the flood offers 10x that
  // — around or beyond what the stack can absorb.
  const double compliant_qps = std::max(100.0, capacity * 0.08);
  const double flood_qps = 10.0 * compliant_qps;
  // The hostile quota admits twice the compliant rate: generous, yet
  // the 10x flood must overflow it, so quota_shed has to show up.
  const double hostile_quota = 2.0 * compliant_qps;
  std::printf(
      "tenant_isolation: corpus=%zu requests=%zu capacity=%.0f qps "
      "compliant=%.0f flood=%.0f quota=%.0f\n",
      corpus_n, requests, capacity, compliant_qps, flood_qps,
      hostile_quota);

  PhaseResult solo, fair, fifo;
  RunPhase(*index, compliant_pool, hostile_pool, true, 0, compliant_qps,
           0, requests, solo);
  RunPhase(*index, compliant_pool, hostile_pool, true, hostile_quota,
           compliant_qps, flood_qps, requests, fair);
  RunPhase(*index, compliant_pool, hostile_pool, false, 0, compliant_qps,
           flood_qps, requests, fifo);

  const double solo_p99 = solo.compliant.latency.QuantileNanos(0.99);
  const double fair_p99 = fair.compliant.latency.QuantileNanos(0.99);
  const double fifo_p99 = fifo.compliant.latency.QuantileNanos(0.99);
  const double ratio = solo_p99 > 0 ? fair_p99 / solo_p99 : 0.0;
  // The 2x gate carries a small absolute slack: both phases' p99 sits
  // in the hundreds of microseconds, where a single scheduler stall of
  // the flusher thread shows up whole. Real starvation — queueing
  // behind a queue_bound-deep flood backlog — is tens of milliseconds
  // and sails past the slack.
  constexpr double kSlackNs = 2e6;  // 2 ms
  const bool within_2x = fair_p99 <= 2.0 * solo_p99 + kSlackNs;
  const std::uint64_t quota_shed = fair.per_tenant.count(kHostile)
                                       ? fair.per_tenant[kHostile].quota_shed
                                       : 0;
  std::printf("solo  compliant p99=%s (sent %.0f qps)\n",
              FormatNanos(solo_p99).c_str(), solo.compliant.sent_qps);
  std::printf(
      "fair  compliant p99=%s (hostile quota_shed=%llu; sent %.0f / %.0f "
      "qps)\n",
      FormatNanos(fair_p99).c_str(),
      static_cast<unsigned long long>(quota_shed), fair.compliant.sent_qps,
      fair.hostile.sent_qps);
  std::printf("fifo  compliant p99=%s (sent %.0f / %.0f qps)\n",
              FormatNanos(fifo_p99).c_str(), fifo.compliant.sent_qps,
              fifo.hostile.sent_qps);
  std::printf("verdict: fair/solo p99 ratio %.2f -> %s\n", ratio,
              within_2x ? "within 2x" : "ISOLATION BREACH");

  std::ofstream os(json_path);
  os << "{\n  \"bench\": \"tenant_isolation\",\n  \"corpus\": " << corpus_n
     << ",\n  \"requests\": " << requests
     << ",\n  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"capacity_qps\": " << capacity
     << ",\n  \"compliant_qps\": " << compliant_qps
     << ",\n  \"flood_qps\": " << flood_qps
     << ",\n  \"hostile_quota_qps\": " << hostile_quota
     << ",\n  \"solo\": {\"compliant\": ";
  EmitTenantJson(os, solo.compliant);
  os << "},\n  \"fair\": {\"compliant\": ";
  EmitTenantJson(os, fair.compliant);
  os << ", \"hostile\": ";
  EmitTenantJson(os, fair.hostile);
  os << ",\n    \"driver_compliant\": ";
  EmitDriverJson(os, fair.per_tenant[kCompliant]);
  os << ",\n    \"driver_hostile\": ";
  EmitDriverJson(os, fair.per_tenant[kHostile]);
  os << "},\n  \"fifo\": {\"compliant\": ";
  EmitTenantJson(os, fifo.compliant);
  os << ", \"hostile\": ";
  EmitTenantJson(os, fifo.hostile);
  os << "},\n  \"verdict\": {\"fair_over_solo_p99\": " << ratio
     << ", \"slack_ms\": " << Ms(kSlackNs)
     << ", \"within_2x\": " << (within_2x ? "true" : "false")
     << ", \"hostile_quota_shed\": " << quota_shed << "}\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  // Gates: per-tenant conservation in every phase; the quota must have
  // actually fired under the fair-mode flood; isolation must hold.
  if (!Conserved(solo.per_tenant) || !Conserved(fair.per_tenant) ||
      !Conserved(fifo.per_tenant)) {
    return 1;
  }
  if (quota_shed == 0) {
    std::fprintf(stderr, "tenant_isolation: flood never hit the quota\n");
    return 1;
  }
  if (!within_2x) {
    std::fprintf(stderr,
                 "tenant_isolation: fair-mode compliant p99 %.2fx solo "
                 "(past the %.0fms slack)\n",
                 ratio, Ms(kSlackNs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
