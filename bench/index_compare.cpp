// A-index (DESIGN.md): §2.2 premise — "NNS requires comparing query
// embeddings with millions or billions of stored vectors, which becomes
// expensive as the database grows. Even with optimized index structures
// such as HNSW or quantization-based approaches, maintaining low-latency
// retrieval while ensuring high recall remains difficult."
//
// This bench measures that trade-off across our index substrates: exact
// flat scan, HNSW, the mutable Vamana-style graph, IVF-Flat, and IVF-Flat
// over sq4 codes (the compressed point) — query latency and recall@10
// (vs flat ground truth) as the corpus grows. It documents the latency
// regimes the Proximity cache is bypassing in each configuration.
//
// Usage: index_compare [sizes=4000,12000] [queries=100] [dim=768]
//                      [quiet=true]
#include <cstdio>
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "index/index_factory.h"
#include "index/recall.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);

  const auto sizes = cfg.GetIntList("sizes", {4000, 12000});
  const auto num_queries =
      static_cast<std::size_t>(cfg.GetInt("queries", 100));
  const auto dim = static_cast<std::size_t>(cfg.GetInt("dim", 768));
  constexpr std::size_t kTopK = 10;

  CsvTable table({"index", "corpus_size", "build_ms", "mean_query_ms",
                  "p99_query_ms", "recall_at_10"});

  for (std::int64_t size : sizes) {
    const auto n = static_cast<std::size_t>(size);

    // Clustered corpus (mixture of Gaussians) — harder for ANN than pure
    // noise and closer to embedding-space structure.
    Rng rng(42);
    constexpr std::size_t kClusters = 32;
    Matrix centers(kClusters, dim);
    for (std::size_t c = 0; c < kClusters; ++c) {
      for (auto& x : centers.MutableRow(c)) {
        x = static_cast<float>(rng.Gaussian(0, 1));
      }
    }
    Matrix corpus(n, dim);
    for (std::size_t r = 0; r < n; ++r) {
      const auto center = centers.Row(rng.Below(kClusters));
      auto row = corpus.MutableRow(r);
      for (std::size_t j = 0; j < dim; ++j) {
        row[j] = center[j] + static_cast<float>(rng.Gaussian(0, 0.3));
      }
    }
    Matrix queries(num_queries, dim);
    for (std::size_t q = 0; q < num_queries; ++q) {
      const auto center = centers.Row(rng.Below(kClusters));
      auto row = queries.MutableRow(q);
      for (std::size_t j = 0; j < dim; ++j) {
        row[j] = center[j] + static_cast<float>(rng.Gaussian(0, 0.3));
      }
    }

    // Ground truth from the exact index.
    IndexSpec flat_spec;
    flat_spec.kind = "flat";
    auto flat = BuildIndex(flat_spec, corpus);
    std::vector<std::vector<Neighbor>> truth(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      truth[q] = flat->Search(queries.Row(q), kTopK);
    }

    for (const char* kind :
         {"flat", "hnsw", "mutable", "ivf_flat", "ivf_flat_sq4"}) {
      IndexSpec spec;
      spec.kind = kind;
      spec.hnsw_ef_construction = 100;
      spec.ivf_nlist = 64;
      spec.ivf_nprobe = 8;
      spec.vamana_degree = 32;
      spec.vamana_beam = 64;
      if (spec.kind == "ivf_flat_sq4") {
        spec.kind = "ivf_flat";
        spec.storage = "sq4";
      }

      Stopwatch build_watch;
      auto index = BuildIndex(spec, corpus);
      const double build_ms = build_watch.ElapsedMillis();

      LatencyHistogram lat;
      std::vector<std::vector<Neighbor>> results(num_queries);
      for (std::size_t q = 0; q < num_queries; ++q) {
        Stopwatch w;
        results[q] = index->Search(queries.Row(q), kTopK);
        lat.Record(w.ElapsedNanos());
      }
      const double recall = MeanRecallAtK(results, truth);

      table.AddRow({std::string(kind), size, build_ms,
                    lat.MeanNanos() / kNanosPerMilli,
                    lat.QuantileNanos(0.99) / kNanosPerMilli, recall});
      LogInfo("{} n={}: query={:.3f}ms recall={:.3f}", kind, size,
              lat.MeanNanos() / kNanosPerMilli, recall);
    }
  }

  std::printf("# Index substrate comparison (latency/recall, §2.2 premise)\n");
  table.Write(std::cout);
  return 0;
}
