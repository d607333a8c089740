// A-shard (DESIGN.md §8): throughput of the sharded scatter-gather layer.
//
// Sweeps shard count × microbatch size over a synthetic corpus and
// reports queries/sec of ShardedIndex::SearchBatch — the grouped-miss
// path the serving driver issues. On a multi-core host throughput should
// rise monotonically from 1 to 4 shards (the acceptance gate recorded in
// BENCH_shard.json as "monotonic_1_to_4"); when the gate cannot run the
// field is null and "skip_reason" says why, machine-readably.
//
// --threads=N forces the shared pool size before it is built, so the
// gate can run on small hosts (4 pool threads over 2 cores still
// exercises the scatter-gather paths, if not the speedup itself).
//
// A second row isolates the multi-query scan from pool parallelism: one
// FlatIndex (which always scans on its calling thread) over 100k x 768-d
// rows (--quick: 20k) times SearchBatch of 32 queries against 32 Search
// calls. The ratio is "multi_query_speedup" (gate: >= 2, checked
// by tools/bench_smoke.sh); the bench exits 1 if any batch result differs
// from its Search result.
//
// Flags: --json=PATH --rows=N --dim=N --queries=N --k=N --quick
//        --threads=N
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "host_info.h"
#include "index/flat_index.h"
#include "index/sharded_index.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

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

struct Cell {
  std::size_t shards = 0;
  std::size_t batch = 0;
  double qps = 0.0;
  double ns_per_query = 0.0;
};

// Runs all queries through SearchBatch in chunks of `batch`; returns the
// median-of-3 qps so one scheduler hiccup does not distort a cell.
double MeasureQps(const ShardedIndex& index, const Matrix& queries,
                  std::size_t batch, std::size_t k) {
  const std::size_t q_total = queries.rows();
  double runs[3];
  for (double& run : runs) {
    const double t0 = NowNs();
    for (std::size_t lo = 0; lo < q_total; lo += batch) {
      const std::size_t hi = std::min(q_total, lo + batch);
      Matrix chunk(0, queries.dim());
      chunk.Reserve(hi - lo);
      for (std::size_t q = lo; q < hi; ++q) chunk.AppendRow(queries.Row(q));
      const auto results = index.SearchBatch(chunk, k);
      if (results.size() != hi - lo) std::abort();  // keep results alive
    }
    const double elapsed_ns = NowNs() - t0;
    run = static_cast<double>(q_total) / (elapsed_ns * 1e-9);
  }
  std::sort(runs, runs + 3);
  return runs[1];
}

struct MultiQueryRow {
  std::size_t rows = 0;
  std::size_t dim = 768;
  std::size_t queries = 32;
  double search_ns_per_query = 0.0;  // 32 Search calls
  double batch_ns_per_query = 0.0;   // one SearchBatch of 32
  bool identical = true;
};

// Median of 5 interleaved runs of each side, on the calling thread only.
MultiQueryRow MeasureMultiQuery(std::size_t rows, std::size_t k) {
  MultiQueryRow row;
  row.rows = rows;
  FlatIndex index(row.dim);
  index.AddBatch(RandomMatrix(rows, row.dim, 303));
  const Matrix queries = RandomMatrix(row.queries, row.dim, 404);
  const auto per_query = static_cast<double>(row.queries);
  constexpr int kRuns = 5;
  double search_ns[kRuns], batch_ns[kRuns];
  for (int run = 0; run < kRuns; ++run) {
    std::vector<std::vector<Neighbor>> one(row.queries);
    double t0 = NowNs();
    for (std::size_t q = 0; q < row.queries; ++q) {
      one[q] = index.Search(queries.Row(q), k);
    }
    search_ns[run] = (NowNs() - t0) / per_query;
    t0 = NowNs();
    const auto batch = index.SearchBatch(queries, k);
    batch_ns[run] = (NowNs() - t0) / per_query;
    for (std::size_t q = 0; q < row.queries; ++q) {
      if (batch[q].size() != one[q].size()) row.identical = false;
      for (std::size_t i = 0; row.identical && i < one[q].size(); ++i) {
        row.identical = batch[q][i].id == one[q][i].id &&
                        batch[q][i].distance == one[q][i].distance;
      }
    }
  }
  std::sort(search_ns, search_ns + kRuns);
  std::sort(batch_ns, batch_ns + kRuns);
  row.search_ns_per_query = search_ns[kRuns / 2];
  row.batch_ns_per_query = batch_ns[kRuns / 2];
  return row;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_shard.json";
  std::size_t threads_override = 0;
  std::size_t rows = 100000;
  std::size_t dim = 64;
  std::size_t num_queries = 256;
  std::size_t k = 10;
  std::size_t multi_rows = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = static_cast<std::size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--dim=", 6) == 0) {
      dim = static_cast<std::size_t>(std::atoll(argv[i] + 6));
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = static_cast<std::size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--k=", 4) == 0) {
      k = static_cast<std::size_t>(std::atoll(argv[i] + 4));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads_override =
          static_cast<std::size_t>(std::atoll(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      rows = 20000;
      num_queries = 64;
      multi_rows = 20000;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  if (threads_override != 0 &&
      !ThreadPool::SetSharedSize(threads_override)) {
    std::fprintf(stderr,
                 "shard_scaling: --threads too late, pool already built\n");
    return 2;
  }

  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t pool = ThreadPool::Shared().size();
  std::printf("shard_scaling: rows=%zu dim=%zu queries=%zu k=%zu "
              "cores=%zu pool=%zu\n",
              rows, dim, num_queries, k, cores, pool);

  const Matrix corpus = RandomMatrix(rows, dim, 101);
  const Matrix queries = RandomMatrix(num_queries, dim, 202);

  const std::size_t shard_counts[] = {1, 2, 4, 8};
  const std::size_t batch_sizes[] = {1, 8, 32, 128};
  IndexSpec spec;
  spec.kind = "flat";

  std::vector<Cell> cells;
  for (const std::size_t S : shard_counts) {
    ShardedIndexOptions opts;
    opts.num_shards = S;
    const auto index = BuildShardedIndex(spec, corpus, opts);
    for (const std::size_t B : batch_sizes) {
      Cell cell;
      cell.shards = S;
      cell.batch = B;
      cell.qps = MeasureQps(*index, queries, B, k);
      cell.ns_per_query = 1e9 / cell.qps;
      cells.push_back(cell);
      std::printf("shards=%zu batch=%-4zu qps=%10.1f ns/query=%10.1f\n", S,
                  B, cell.qps, cell.ns_per_query);
    }
  }

  // Acceptance check at the largest batch: qps(1) < qps(2) < qps(4).
  // Only meaningful with >= 4 threads to scale onto; a --threads
  // override counts, so the gate can run on small hosts.
  double qps_by_shards[3] = {0, 0, 0};
  for (const auto& c : cells) {
    if (c.batch != batch_sizes[3]) continue;
    if (c.shards == 1) qps_by_shards[0] = c.qps;
    if (c.shards == 2) qps_by_shards[1] = c.qps;
    if (c.shards == 4) qps_by_shards[2] = c.qps;
  }
  const bool monotonic = qps_by_shards[0] < qps_by_shards[1] &&
                         qps_by_shards[1] < qps_by_shards[2];
  const bool gate_runs = cores >= 4 || pool >= 4;
  const char* verdict = gate_runs ? (monotonic ? "true" : "false")
                                  : "null";
  const char* skip_reason =
      gate_runs ? "null"
                : "\"cores<4: pass --threads=4 to run the gate anyway\"";
  std::printf("monotonic 1->4 shards at batch=%zu: %s%s\n", batch_sizes[3],
              verdict, gate_runs ? "" : " (skipped: cores<4)");

  const MultiQueryRow multi = MeasureMultiQuery(multi_rows, k);
  const double speedup = multi.search_ns_per_query / multi.batch_ns_per_query;
  std::printf("calling thread, flat %zux%zu: %zu Search %.0f ns/query, "
              "SearchBatch(%zu) %.0f ns/query, multi_query_speedup=%.2f "
              "(gate >= 2)%s\n",
              multi.rows, multi.dim, multi.queries,
              multi.search_ns_per_query, multi.queries,
              multi.batch_ns_per_query, speedup,
              multi.identical ? "" : " RESULTS DIFFER");

  std::ofstream os(json_path);
  os << "{\n  \"bench\": \"shard_scaling\",\n  " << HostJson() << ",\n"
     << "  \"rows\": " << rows << ",\n  \"dim\": " << dim
     << ",\n  \"queries\": " << num_queries << ",\n  \"k\": " << k
     << ",\n  \"cores\": " << cores << ",\n  \"pool_threads\": " << pool
     << ",\n  \"monotonic_1_to_4\": " << verdict
     << ",\n  \"skip_reason\": " << skip_reason
     << ",\n  \"multi_query\": {\"rows\": " << multi.rows
     << ", \"dim\": " << multi.dim << ", \"queries\": " << multi.queries
     << ", \"search_ns_per_query\": " << multi.search_ns_per_query
     << ", \"batch_ns_per_query\": " << multi.batch_ns_per_query
     << ", \"bit_identical\": " << (multi.identical ? "true" : "false")
     << ", \"multi_query_speedup\": " << speedup << "}"
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << "    {\"shards\": " << c.shards << ", \"batch\": " << c.batch
       << ", \"qps\": " << c.qps << ", \"ns_per_query\": " << c.ns_per_query
       << "}" << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return multi.identical ? 0 : 1;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
