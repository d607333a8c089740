// A-scan (DESIGN.md): §3.2.1 claims the linear scan over cached keys is
// "negligible when compared to a database query". This google-benchmark
// binary quantifies that: cache lookup cost as a function of capacity c,
// against flat and HNSW database query cost at harness scale — and shows
// where the claim breaks (c approaching the corpus size).
//
// The BM_StreamScan rows compare the full key scan (BatchDistance plus
// argmin) with the early-abandon NearestL2 and with the cache's pick
// between them (NearestL2 after a query whose nearest key lay within τ,
// the full scan after one whose did not, as ApproxCache does) on the keys
// a served stream leaves in a capacity-300 cache: an MMLU-like Zipf
// stream (mostly hits) and a MedRAG-like stream of distinct questions
// (mostly misses), each with the arena hot in the CPU caches and flushed
// from them before every scan. Each iteration scans one query all three
// ways, in rotating order, and checks that all return the same slot and
// float bits; *_bytes is the share of the arena each variant read. The
// custom context lists the host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "embed/hash_embedder.h"
#include "host_info.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "vecmath/kernels.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

constexpr std::size_t kDim = 768;

Matrix RandomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Matrix m(rows, dim);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& x : m.MutableRow(r)) {
      x = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  return m;
}

std::vector<float> RandomQuery(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(kDim);
  for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 1));
  return q;
}

// Cache lookup latency vs capacity (always-miss scan of c keys).
void BM_CacheLookup(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  ApproxCacheOptions opts;
  opts.capacity = capacity;
  opts.tolerance = 0.0f;  // never hits: measures the full scan
  ProximityCache cache(kDim, opts);
  const Matrix keys = RandomMatrix(capacity, kDim, 7);
  for (std::size_t r = 0; r < capacity; ++r) {
    cache.Insert(keys.Row(r), {static_cast<VectorId>(r)});
  }
  const auto query = RandomQuery(11);
  for (auto _ : state) {
    auto result = cache.Lookup(query);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(capacity));
}
BENCHMARK(BM_CacheLookup)->RangeMultiplier(10)->Range(10, 100000);

// Database query latency: exact flat scan.
void BM_FlatSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FlatIndex index(kDim, {.metric = Metric::kL2});
  index.AddBatch(RandomMatrix(n, kDim, 13));
  const auto query = RandomQuery(17);
  for (auto _ : state) {
    auto result = index.Search(query, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FlatSearch)->RangeMultiplier(10)->Range(1000, 100000);

// Database query latency: HNSW.
void BM_HnswSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static std::unique_ptr<HnswIndex> index;  // build once per size
  static std::size_t built_for = 0;
  if (built_for != n) {
    index = std::make_unique<HnswIndex>(
        kDim, HnswOptions{.M = 16, .ef_construction = 100, .ef_search = 64});
    index->AddBatch(RandomMatrix(n, kDim, 19));
    built_for = n;
  }
  const auto query = RandomQuery(23);
  for (auto _ : state) {
    auto result = index->Search(query, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HnswSearch)->RangeMultiplier(10)->Range(1000, 10000);

// Cache hit fast path: lookup that matches the first key.
void BM_CacheHit(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  ApproxCacheOptions opts;
  opts.capacity = capacity;
  opts.tolerance = 1e9f;  // always hits
  ProximityCache cache(kDim, opts);
  const Matrix keys = RandomMatrix(capacity, kDim, 29);
  for (std::size_t r = 0; r < capacity; ++r) {
    cache.Insert(keys.Row(r), {static_cast<VectorId>(r)});
  }
  const auto query = RandomQuery(31);
  for (auto _ : state) {
    auto result = cache.Lookup(query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CacheHit)->RangeMultiplier(10)->Range(10, 10000);

// ---------------------------------------------- served-stream key scans --

constexpr std::size_t kStreamCapacity = 300;
constexpr float kStreamTau = 2.0f;        // perfbench's document radius
constexpr float kStreamAnswerTau = 1.0f;  // and its answer radius
constexpr std::size_t kProbeQueries = 2000;

/// A capacity-300 cache's keys after perfbench's warm-up share of a
/// stream (3000 MMLU-like or 600 MedRAG-like queries), and up to
/// `kProbeQueries` of the queries after it, embedded.
struct StreamArena {
  Matrix keys;
  Matrix probes;
};

StreamArena BuildArena(bool mmlu) {
  WorkloadSpec spec = mmlu ? MmluLikeSpec(6000) : MedragLikeSpec(12000);
  if (!mmlu) spec.num_questions = 2000;
  const Workload workload = BuildWorkload(spec);
  QueryStreamOptions sopts;
  sopts.seed = 5;
  sopts.variants_per_question = mmlu ? 4 : 1;
  if (mmlu) {
    sopts.order = StreamOrder::kZipf;
    sopts.zipf_length = 20000;
  }
  const std::vector<StreamEntry> stream = BuildQueryStream(workload, sopts);
  const std::size_t warm = mmlu ? 3000 : 600;
  const HashEmbedder embedder;
  ApproxCacheOptions copts;
  copts.capacity = kStreamCapacity;
  copts.tolerance = kStreamTau;
  ProximityCache cache(embedder.dim(), copts);
  Matrix probes(0, embedder.dim());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::vector<float> q = embedder.Embed(stream[i].text);
    if (i >= warm) {
      probes.AppendRow(q);
      if (probes.rows() == kProbeQueries) break;
    } else if (!cache.Lookup(q, kStreamAnswerTau).hit) {
      cache.Insert(q, {static_cast<VectorId>(i)});
    }
  }
  Matrix keys(0, embedder.dim());
  for (std::size_t slot = 0; slot < cache.size(); ++slot) {
    keys.AppendRow(cache.KeyAt(slot));
  }
  return {std::move(keys), std::move(probes)};
}

/// Evicts `bytes` at `p` from every CPU cache level.
void FlushFromCaches(const void* p, std::size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_clflush(c + off);
#elif defined(__aarch64__)
    asm volatile("dc civac, %0" ::"r"(c + off) : "memory");
#endif
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_mfence();
#elif defined(__aarch64__)
  asm volatile("dsb ish" ::: "memory");
#endif
}

std::uint32_t FloatBits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

// Range(0): 1 = MMLU-like stream, 0 = MedRAG-like; range(1): 1 = cold.
void BM_StreamScan(benchmark::State& state) {
  const bool mmlu = state.range(0) == 1;
  const bool cold = state.range(1) == 1;
#if !defined(__x86_64__) && !defined(__i386__) && !defined(__aarch64__)
  if (cold) {
    state.SkipWithError("no cache-line flush on this architecture");
    return;
  }
#endif
  static const StreamArena mmlu_arena = BuildArena(true);
  static const StreamArena medrag_arena = BuildArena(false);
  const StreamArena& arena = mmlu ? mmlu_arena : medrag_arena;
  const Matrix& keys = arena.keys;
  const std::size_t n = keys.rows();
  const std::size_t dim = keys.dim();
  std::vector<float> dists(n), scratch(n * kNearestL2ScratchPerRow);
  // Per variant: 0 = full scan, 1 = NearestL2 on every query, 2 = the
  // cache's pick (ApproxCache::ScanKeys): NearestL2 after a query whose
  // nearest key lay within τ, the full scan after one whose did not.
  double ns[3] = {}, floats_read[3] = {}, hits = 0.0;
  bool last_near = true;
  std::size_t probe = 0;
  using Clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const auto q = arena.probes.Row(probe % arena.probes.rows());
    NearestRow got[3];
    Clock::duration iteration{};
    for (int pass = 0; pass < 3; ++pass) {
      // Rotate which variant goes first, so none always runs on caches
      // another warmed (hot) or on the first clock read.
      const int v = static_cast<int>((probe + pass) % 3);
      if (cold) FlushFromCaches(keys.data(), n * dim * sizeof(float));
      const auto start = Clock::now();
      if (v == 0 || (v == 2 && !last_near)) {
        BatchDistance(Metric::kL2, q, keys.data(), n, dim, dists.data());
        const auto best = std::min_element(dists.begin(), dists.end());
        got[v] = {static_cast<std::size_t>(best - dists.begin()), *best,
                  n * dim};
      } else {
        got[v] = NearestL2(q, keys.data(), n, dim, kStreamTau, scratch.data());
      }
      const auto took = Clock::now() - start;
      iteration += took;
      ns[v] += std::chrono::duration<double, std::nano>(took).count();
      floats_read[v] += static_cast<double>(got[v].floats_read);
    }
    for (int v = 1; v < 3; ++v) {
      if (got[v].row != got[0].row ||
          FloatBits(got[v].distance) != FloatBits(got[0].distance)) {
        state.SkipWithError("early abandon differs from the full scan");
        return;
      }
    }
    last_near = got[0].distance <= kStreamTau;
    if (last_near) hits += 1.0;
    state.SetIterationTime(std::chrono::duration<double>(iteration).count());
    ++probe;
  }
  const double it = static_cast<double>(probe);
  const double floats = it * static_cast<double>(n * dim);
  state.counters["keys"] = static_cast<double>(n);
  state.counters["hit_rate"] = hits / it;
  state.counters["full_us"] = ns[0] / it / 1e3;
  state.counters["nearest_us"] = ns[1] / it / 1e3;
  state.counters["picked_us"] = ns[2] / it / 1e3;
  state.counters["speedup"] = ns[0] / ns[2];
  state.counters["nearest_bytes"] = floats_read[1] / floats;
  state.counters["picked_bytes"] = floats_read[2] / floats;
}
BENCHMARK(BM_StreamScan)
    ->ArgNames({"mmlu", "cold"})
    ->ArgsProduct({{1, 0}, {0, 1}})
    ->Iterations(kProbeQueries)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

[[maybe_unused]] const bool kHostContext = [] {
  benchmark::AddCustomContext(
      "host_cores", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("host_cpu_model", CpuModel());
  benchmark::AddCustomContext(
      "simd_level", std::string(SimdLevelName(ActiveSimdLevel())));
  return true;
}();

}  // namespace
}  // namespace proximity
