// A-kernels (DESIGN.md): throughput of the SIMD distance kernels that both
// the flat index scan and the cache key scan are built on (§2.2 premise:
// NNS cost is dominated by distance evaluations; §4.1: the original uses
// Rust Portable-SIMD for the same purpose).
//
// The binary has two halves:
//   1. A portable-vs-dispatched comparison sweep (per metric, dims
//      64/128/768, batch sizes 1/64/4096) that writes machine-readable
//      results to BENCH_kernels.json (path override: --json=PATH).
//   2. The google-benchmark suite below, run on whatever remaining CLI
//      flags google-benchmark understands.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host_info.h"
#include "vecmath/kernels.h"

namespace proximity {
namespace {

// --quick: reduced calibration budget, fewer reps, and a sweep
// restricted to the l2 cells the CI smoke gate checks (dim 768,
// batches 64/4096). Keeps tools/bench_smoke.sh under a minute.
bool g_quick = false;

std::vector<float> RandomVec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
  return v;
}

void BM_L2Squared(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = RandomVec(dim, 1), b = RandomVec(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2SquaredDistance(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim) * 2 * 4);
}
BENCHMARK(BM_L2Squared)->Arg(64)->Arg(128)->Arg(256)->Arg(768)->Arg(1536);

void BM_InnerProduct(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = RandomVec(dim, 3), b = RandomVec(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InnerProduct(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim) * 2 * 4);
}
BENCHMARK(BM_InnerProduct)->Arg(64)->Arg(768)->Arg(1536);

void BM_Cosine(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = RandomVec(dim, 5), b = RandomVec(dim, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineDistance(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim) * 2 * 4);
}
BENCHMARK(BM_Cosine)->Arg(64)->Arg(768)->Arg(1536);

// The level the dispatcher picked at startup, pinned before any benchmark
// or sweep toggles the active table.
SimdLevel DefaultDispatchLevel() {
  static const SimdLevel level = ActiveSimdLevel();
  return level;
}

// The batched scan used by FlatIndex and the cache (row-major block),
// parameterized by SIMD level: range(0) = rows, range(1) = SimdLevel
// (-1 = whatever the dispatcher picked at startup).
void BM_BatchDistance(benchmark::State& state) {
  constexpr std::size_t kDim = 768;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const SimdLevel level = state.range(1) < 0
                              ? DefaultDispatchLevel()
                              : static_cast<SimdLevel>(state.range(1));
  if (!SetActiveSimdLevel(level)) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  Rng rng(7);
  std::vector<float> base(rows * kDim);
  for (auto& x : base) x = static_cast<float>(rng.Gaussian(0, 1));
  const auto query = RandomVec(kDim, 8);
  std::vector<float> out(rows);
  for (auto _ : state) {
    BatchDistance(Metric::kL2, query, base.data(), rows, kDim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
  state.SetLabel(std::string(SimdLevelName(level)));
}
BENCHMARK(BM_BatchDistance)
    ->ArgsProduct({{100, 1000, 10000},
                   {static_cast<std::int64_t>(SimdLevel::kPortable), -1}});

// ---------------------------------------------------------------------------
// Portable-vs-dispatched sweep + BENCH_kernels.json emission.
// ---------------------------------------------------------------------------

struct SweepResult {
  const char* metric;
  std::size_t dim;
  std::size_t batch;
  double portable_ns;
  double dispatched_ns;
  double speedup;
  // Effective scan bandwidth (base rows + one query read per call,
  // decimal GB/s): how close each kernel gets to memory-bound.
  double portable_gbps;
  double dispatched_gbps;
};

double NowNs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::nano>(
             Clock::now().time_since_epoch())
      .count();
}

// One timed run of `iters` back-to-back batch scans, in ns per call.
double TimedRun(Metric metric, const std::vector<float>& query,
                const std::vector<float>& base, std::size_t batch,
                std::size_t dim, std::vector<float>& out, std::size_t iters) {
  const double t0 = NowNs();
  for (std::size_t i = 0; i < iters; ++i) {
    BatchDistance(metric, query, base.data(), batch, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  return (NowNs() - t0) / static_cast<double>(iters);
}

// Iteration count that makes one timed run last >= 25ms, so the steady
// clock resolves well above its granularity.
std::size_t CalibrateIters(Metric metric, const std::vector<float>& query,
                           const std::vector<float>& base, std::size_t batch,
                           std::size_t dim, std::vector<float>& out) {
  std::size_t iters = 1;
  for (;;) {
    const double per_call = TimedRun(metric, query, base, batch, dim, out,
                                     iters);
    if (per_call * static_cast<double>(iters) >= (g_quick ? 2.5e6 : 2.5e7) ||
        iters >= (1ull << 28)) {
      return iters;
    }
    iters *= 4;
  }
}

struct PairedTimes {
  double portable_ns;
  double dispatched_ns;
  double speedup;
};

// Portable and dispatched runs alternate back-to-back, so scheduler noise
// on a shared machine hits both sides of each pair roughly equally; the
// reported speedup is the median of the per-pair ratios.
PairedTimes MeasurePair(Metric metric, SimdLevel dispatched_level,
                        const std::vector<float>& query,
                        const std::vector<float>& base, std::size_t batch,
                        std::size_t dim, std::vector<float>& out) {
  SetActiveSimdLevel(SimdLevel::kPortable);
  const std::size_t p_iters =
      CalibrateIters(metric, query, base, batch, dim, out);
  SetActiveSimdLevel(dispatched_level);
  const std::size_t d_iters =
      CalibrateIters(metric, query, base, batch, dim, out);

  const std::size_t reps = g_quick ? 5 : 11;
  std::vector<double> p(reps), d(reps), ratio(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    SetActiveSimdLevel(SimdLevel::kPortable);
    p[rep] = TimedRun(metric, query, base, batch, dim, out, p_iters);
    SetActiveSimdLevel(dispatched_level);
    d[rep] = TimedRun(metric, query, base, batch, dim, out, d_iters);
    ratio[rep] = d[rep] > 0.0 ? p[rep] / d[rep] : 0.0;
  }
  std::sort(p.begin(), p.end());
  std::sort(d.begin(), d.end());
  std::sort(ratio.begin(), ratio.end());
  return {p[reps / 2], d[reps / 2], ratio[reps / 2]};
}

std::vector<SweepResult> RunSweep() {
  struct MetricCase {
    Metric metric;
    const char* name;
  };
  const std::vector<MetricCase> metrics =
      g_quick ? std::vector<MetricCase>{{Metric::kL2, "l2"}}
              : std::vector<MetricCase>{{Metric::kL2, "l2"},
                                        {Metric::kInnerProduct, "ip"},
                                        {Metric::kCosine, "cosine"}};
  const std::vector<std::size_t> dims =
      g_quick ? std::vector<std::size_t>{768}
              : std::vector<std::size_t>{64, 128, 768};
  const std::vector<std::size_t> batches =
      g_quick ? std::vector<std::size_t>{64, 4096}
              : std::vector<std::size_t>{1, 64, 4096};

  const SimdLevel best = DefaultDispatchLevel();
  std::vector<SweepResult> results;
  for (const auto& mc : metrics) {
    for (const std::size_t dim : dims) {
      Rng rng(11);
      const auto query = RandomVec(dim, 12);
      for (const std::size_t batch : batches) {
        std::vector<float> base(batch * dim);
        for (auto& x : base) x = static_cast<float>(rng.Gaussian(0, 1));
        std::vector<float> out(batch);

        const PairedTimes t =
            MeasurePair(mc.metric, best, query, base, batch, dim, out);

        SweepResult r;
        r.metric = mc.name;
        r.dim = dim;
        r.batch = batch;
        r.portable_ns = t.portable_ns;
        r.dispatched_ns = t.dispatched_ns;
        r.speedup = t.speedup;
        const double bytes =
            static_cast<double>((batch + 1) * dim * sizeof(float));
        r.portable_gbps = t.portable_ns > 0 ? bytes / t.portable_ns : 0.0;
        r.dispatched_gbps =
            t.dispatched_ns > 0 ? bytes / t.dispatched_ns : 0.0;
        results.push_back(r);
        std::printf("%-6s dim=%-4zu batch=%-5zu portable=%10.1fns "
                    "dispatched=%10.1fns speedup=%5.2fx "
                    "(%5.1f -> %5.1f GB/s)\n",
                    mc.name, dim, batch, t.portable_ns, t.dispatched_ns,
                    r.speedup, r.portable_gbps, r.dispatched_gbps);
      }
    }
  }
  SetActiveSimdLevel(best);
  return results;
}

void WriteJson(const std::string& path, const std::vector<SweepResult>& rs) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"distance_kernels\",\n"
     << "  " << HostJson() << ",\n"
     << "  \"dispatched_level\": \"" << SimdLevelName(ActiveSimdLevel())
     << "\",\n  \"supported_levels\": [";
  bool first = true;
  const SimdLevel all[] = {SimdLevel::kPortable, SimdLevel::kNeon,
                           SimdLevel::kAvx2, SimdLevel::kAvx512};
  for (const SimdLevel lvl : all) {
    if (!SimdLevelSupported(lvl)) continue;
    if (!first) os << ", ";
    os << '"' << SimdLevelName(lvl) << '"';
    first = false;
  }
  os << "],\n  \"results\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    os << "    {\"metric\": \"" << r.metric << "\", \"dim\": " << r.dim
       << ", \"batch\": " << r.batch << ", \"portable_ns_per_call\": "
       << r.portable_ns << ", \"dispatched_ns_per_call\": " << r.dispatched_ns
       << ", \"speedup_vs_portable\": " << r.speedup
       << ", \"portable_gbps\": " << r.portable_gbps
       << ", \"dispatched_gbps\": " << r.dispatched_gbps << "}"
       << (i + 1 < rs.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  bool sweep = true;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      proximity::g_quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const std::string level_name(
      proximity::SimdLevelName(proximity::DefaultDispatchLevel()));
  std::printf("active SIMD level: %s\n", level_name.c_str());
  if (sweep) {
    const auto results = proximity::RunSweep();
    proximity::WriteJson(json_path, results);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
