// A-scan (DESIGN.md): §3.2.1 claims the linear scan over cached keys is
// "negligible when compared to a database query". This google-benchmark
// binary quantifies that: cache lookup cost as a function of capacity c,
// against flat and HNSW database query cost at harness scale — and shows
// where the claim breaks (c approaching the corpus size).
#include <benchmark/benchmark.h>

#include <memory>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"

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

}  // namespace
}  // namespace proximity
