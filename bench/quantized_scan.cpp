// B-quant (DESIGN.md §11): the compressed-vector fast path end to end.
//
// Builds one corpus three times into FlatIndex — float32 (exact
// single-level scan), sq8, and sq4 (two-level: blocked quantized primary
// scan + float rerank of rerank_factor*k candidates) — and measures
// per-query latency, effective scan bandwidth, and recall@k against the
// float32 results. The headline acceptance gate of the compressed path
// lives here: sq8 must beat float32 by >= 2x ns/query at recall@10 >=
// 0.95 on the full 1M x 768-d run (>= 1.5x under --quick, which is what
// tools/bench_smoke.sh checks on 100k vectors).
//
// All scans run on the calling thread, as every FlatIndex scan does: the
// point is per-core bytes-per-query, not pool scaling (shard_scaling
// covers that).
//
// Flags: --quick (100k corpus, CI budget), --json=PATH (default
// BENCH_quant.json), --n=N, --dim=N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host_info.h"
#include "index/flat_index.h"
#include "vecmath/kernels.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

struct StorageResult {
  const char* storage;
  double ns_per_query;      // median over measured queries
  double gbps;              // bytes touched per query / ns_per_query
  double bytes_per_query;   // primary scan + rerank traffic
  double recall_at_k;       // vs the float32 top-k (1.0 for float32)
  double speedup_vs_float;  // float ns_per_query / this ns_per_query
};

double NowNs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::nano>(
             Clock::now().time_since_epoch())
      .count();
}

Matrix RandomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(0, dim);
  m.Reserve(rows);
  std::vector<float> row(dim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& x : row) x = static_cast<float>(rng.Gaussian(0, 1));
    m.AppendRow(row);
  }
  return m;
}

double RecallAtK(const std::vector<Neighbor>& truth,
                 const std::vector<Neighbor>& got) {
  if (truth.empty()) return 1.0;
  std::size_t hits = 0;
  for (const auto& t : truth) {
    for (const auto& g : got) {
      if (g.id == t.id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

// Runs every query twice for warm caches, then once timed; returns the
// median per-query ns and each query's results (for the recall side).
double MeasureSearch(const FlatIndex& index, const Matrix& queries,
                     std::size_t k,
                     std::vector<std::vector<Neighbor>>* results) {
  const std::size_t nq = queries.rows();
  results->assign(nq, {});
  for (std::size_t q = 0; q < std::min<std::size_t>(nq, 2); ++q) {
    (void)index.Search(queries.Row(q), k);  // warmup: touch the whole store
  }
  std::vector<double> ns(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    const double t0 = NowNs();
    (*results)[q] = index.Search(queries.Row(q), k);
    ns[q] = NowNs() - t0;
  }
  std::sort(ns.begin(), ns.end());
  return ns[nq / 2];
}

void WriteJson(const std::string& path, std::size_t n, std::size_t dim,
               std::size_t k, std::size_t rerank,
               const std::vector<StorageResult>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"quantized_scan\",\n"
     << "  " << HostJson() << ",\n"
     << "  \"simd_level\": \"" << SimdLevelName(ActiveSimdLevel()) << "\",\n"
     << "  \"n\": " << n << ",\n  \"dim\": " << dim << ",\n  \"k\": " << k
     << ",\n  \"rerank_factor\": " << rerank << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\"storage\": \"" << r.storage
       << "\", \"ns_per_query\": " << r.ns_per_query
       << ", \"gbps\": " << r.gbps
       << ", \"bytes_per_query\": " << r.bytes_per_query
       << ", \"recall_at_k\": " << r.recall_at_k
       << ", \"speedup_vs_float\": " << r.speedup_vs_float << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(std::size_t n, std::size_t dim, const std::string& json_path) {
  constexpr std::size_t kK = 10;
  constexpr std::size_t kRerank = 4;
  const std::size_t nq = n >= 500'000 ? 9 : 33;

  std::printf("corpus: %zu x %zu-d, k=%zu, rerank=%zu, %zu queries, "
              "simd=%s\n",
              n, dim, kK, kRerank, nq,
              std::string(SimdLevelName(ActiveSimdLevel())).c_str());

  const Matrix corpus = RandomMatrix(n, dim, /*seed=*/101);
  const Matrix queries = RandomMatrix(nq, dim, /*seed=*/202);

  const StorageLayout layouts[] = {StorageLayout::kFloat32,
                                   StorageLayout::kSq8, StorageLayout::kSq4};
  std::vector<StorageResult> rows;
  std::vector<std::vector<Neighbor>> truth;
  double float_ns = 0.0;

  for (const StorageLayout layout : layouts) {
    FlatIndexOptions opts;
    opts.metric = Metric::kL2;
    opts.storage = layout;
    opts.rerank_factor = kRerank;
    FlatIndex index(dim, opts);
    const double b0 = NowNs();
    index.AddBatch(corpus);
    const double build_ms = (NowNs() - b0) * 1e-6;

    std::vector<std::vector<Neighbor>> results;
    const double ns = MeasureSearch(index, queries, kK, &results);

    StorageResult r;
    r.storage = StorageLayoutName(layout).data();
    r.ns_per_query = ns;
    if (layout == StorageLayout::kFloat32) {
      r.bytes_per_query = static_cast<double>(n * dim * sizeof(float));
      r.recall_at_k = 1.0;
      truth = std::move(results);
      float_ns = ns;
      r.speedup_vs_float = 1.0;
    } else {
      // Primary traffic is the blocked code area; the rerank re-reads
      // rerank_factor*k float rows.
      r.bytes_per_query =
          static_cast<double>(n * index.compressed().block_stride()) +
          static_cast<double>(kRerank * kK * dim * sizeof(float));
      double recall = 0.0;
      for (std::size_t q = 0; q < results.size(); ++q) {
        recall += RecallAtK(truth[q], results[q]);
      }
      r.recall_at_k = recall / static_cast<double>(results.size());
      r.speedup_vs_float = ns > 0 ? float_ns / ns : 0.0;
    }
    r.gbps = ns > 0 ? r.bytes_per_query / ns : 0.0;
    rows.push_back(r);
    std::printf("%-8s build=%8.1fms search=%12.1fns/query %6.2f GB/s "
                "recall@%zu=%.4f speedup=%5.2fx\n",
                r.storage, build_ms, r.ns_per_query, r.gbps, kK,
                r.recall_at_k, r.speedup_vs_float);
  }

  WriteJson(json_path, n, dim, kK, kRerank, rows);
  return 0;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) {
  std::size_t n = 1'000'000;
  std::size_t dim = 768;
  std::string json_path = "BENCH_quant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 100'000;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = static_cast<std::size_t>(std::strtoull(argv[i] + 4, nullptr, 10));
    } else if (std::strncmp(argv[i], "--dim=", 6) == 0) {
      dim = static_cast<std::size_t>(std::strtoull(argv[i] + 6, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return proximity::Run(n, dim, json_path);
}
