// Compressed-vector fast path (DESIGN.md §11): CompressedStore layout
// and encode invariants, analytic SQ8/SQ4 error bounds, SIMD-level
// parity of the quantized kernels, the recall@10 gate of the two-level
// search against exact float results, serialization round-trips
// (including float32 back-compat), factory wiring, scan.* telemetry,
// and concurrent quantized searches (the TSan workout of this suite).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/index_factory.h"
#include "index/ivf_flat_index.h"
#include "index/recall.h"
#include "obs/metrics_registry.h"
#include "vecmath/compressed_store.h"
#include "vecmath/kernels.h"
#include "vecmath/matrix.h"

namespace proximity {
namespace {

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

// ------------------------------------------------------------ layout ----

TEST(QuantLayout, NameParseRoundTrip) {
  for (StorageLayout l : {StorageLayout::kFloat32, StorageLayout::kSq8,
                          StorageLayout::kSq4}) {
    StorageLayout parsed;
    ASSERT_TRUE(ParseStorageLayout(StorageLayoutName(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  StorageLayout out;
  EXPECT_FALSE(ParseStorageLayout("bogus", &out));
  EXPECT_FALSE(ParseStorageLayout("", &out));
}

TEST(QuantLayout, BlocksAreCacheLineAligned) {
  for (StorageLayout l : {StorageLayout::kSq8, StorageLayout::kSq4}) {
    for (std::size_t dim : {1u, 7u, 48u, 64u, 100u, 768u}) {
      CompressedStore s(dim, l);
      const std::size_t code_bytes =
          l == StorageLayout::kSq8 ? dim : (dim + 1) / 2;
      EXPECT_EQ(s.block_stride() % CompressedStore::kBlockAlign, 0u);
      EXPECT_GE(s.block_stride(), CompressedStore::kHeaderBytes + code_bytes);
      // Padding never exceeds one extra cache line.
      EXPECT_LT(s.block_stride(),
                CompressedStore::kHeaderBytes + code_bytes +
                    CompressedStore::kBlockAlign);
    }
  }
  // sq8 at 768-d: 16 + 768 = 784 -> one 64-byte pad step to 832.
  EXPECT_EQ(CompressedStore(768, StorageLayout::kSq8).block_stride(), 832u);
  EXPECT_EQ(CompressedStore(768, StorageLayout::kSq4).block_stride(), 448u);
}

TEST(QuantLayout, RejectsFloat32AndZeroDim) {
  EXPECT_THROW(CompressedStore(16, StorageLayout::kFloat32),
               std::invalid_argument);
  EXPECT_THROW(CompressedStore(0, StorageLayout::kSq8),
               std::invalid_argument);
}

// ------------------------------------------------------------ encode ----

TEST(QuantEncode, DecodeWithinHalfStep) {
  for (StorageLayout l : {StorageLayout::kSq8, StorageLayout::kSq4}) {
    const std::size_t dim = 65;  // odd: exercises the sq4 high-half pad
    const Matrix data = RandomMatrix(50, dim, 7);
    CompressedStore s(dim, l);
    for (std::size_t r = 0; r < data.rows(); ++r) s.AppendRow(data.Row(r));
    ASSERT_EQ(s.rows(), data.rows());
    std::vector<float> decoded(dim);
    for (std::size_t r = 0; r < s.rows(); ++r) {
      const float half_step = s.RowScale(r) * 0.5f;
      s.DecodeRow(r, decoded);
      const auto row = data.Row(r);
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_LE(std::abs(decoded[j] - row[j]), half_step + 1e-5f)
            << StorageLayoutName(l) << " row " << r << " dim " << j;
      }
      EXPECT_NEAR(s.RowSqNorm(r), SquaredNorm(row), 1e-2f);
    }
  }
}

TEST(QuantEncode, DeterministicAndConstantRowExact) {
  const std::vector<float> v = {0.25f, -1.5f, 3.75f, 0.f, 2.f};
  CompressedStore a(v.size(), StorageLayout::kSq8);
  CompressedStore b(v.size(), StorageLayout::kSq8);
  a.AppendRow(v);
  b.AppendRow(v);
  EXPECT_EQ(a.RowScale(0), b.RowScale(0));
  EXPECT_EQ(a.RowBias(0), b.RowBias(0));
  std::vector<float> da(v.size()), db(v.size());
  a.DecodeRow(0, da);
  b.DecodeRow(0, db);
  EXPECT_EQ(da, db);

  // A constant row has zero range: scale 0, exact reconstruction.
  const std::vector<float> flat(8, 4.5f);
  CompressedStore c(flat.size(), StorageLayout::kSq4);
  c.AppendRow(flat);
  EXPECT_EQ(c.RowScale(0), 0.f);
  std::vector<float> dc(flat.size());
  c.DecodeRow(0, dc);
  for (float x : dc) EXPECT_EQ(x, 4.5f);
}

// ------------------------------------------------- analytic error bounds --

// Quantization moves each coordinate by at most scale/2, so the error
// vector e has ||e||_2 <= E = (scale/2)*sqrt(dim) and the distances obey
//   L2:  |dq - df| <= 2*sqrt(df)*E + E^2
//   IP:  |dq - df| <= (scale/2) * ||q||_1
// (cosine goes through the IP bound divided by the norms). The test
// allows a small floating-point slop on top of the analytic bound.
TEST(QuantErrorBound, DistancesWithinAnalyticBound) {
  for (StorageLayout l : {StorageLayout::kSq8, StorageLayout::kSq4}) {
    for (std::size_t dim : {17u, 64u, 768u}) {
      const Matrix data = RandomMatrix(100, dim, 1000 + dim);
      const Matrix queries = RandomMatrix(8, dim, 2000 + dim);
      CompressedStore s(dim, l);
      for (std::size_t r = 0; r < data.rows(); ++r) s.AppendRow(data.Row(r));

      std::vector<float> dist(data.rows());
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        const auto q = queries.Row(qi);
        float q_l1 = 0.f, q_norm = 0.f;
        for (float x : q) q_l1 += std::abs(x);
        q_norm = std::sqrt(SquaredNorm(q));

        for (const Metric metric :
             {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
          s.Scan(metric, q, dist.data());
          for (std::size_t r = 0; r < data.rows(); ++r) {
            const float exact = Distance(metric, q, data.Row(r));
            const float half_step = s.RowScale(r) * 0.5f;
            double bound;
            if (metric == Metric::kL2) {
              const double e =
                  half_step * std::sqrt(static_cast<double>(dim));
              bound = 2.0 * std::sqrt(static_cast<double>(exact)) * e + e * e;
            } else if (metric == Metric::kInnerProduct) {
              bound = static_cast<double>(half_step) * q_l1;
            } else {
              const double row_norm = std::sqrt(s.RowSqNorm(r));
              bound = static_cast<double>(half_step) * q_l1 /
                      std::max(1e-12, static_cast<double>(q_norm) * row_norm);
            }
            const double slop = 1e-3 * (1.0 + std::abs(exact));
            EXPECT_LE(std::abs(static_cast<double>(dist[r]) - exact),
                      bound + slop)
                << StorageLayoutName(l) << " dim=" << dim
                << " metric=" << MetricName(metric) << " row=" << r;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- SIMD parity ----

// Every supported SIMD level must agree with the portable reference to
// floating-point reassociation tolerance, for both layouts, all metrics,
// contiguous and gathered access.
TEST(QuantSimdParity, AllLevelsMatchPortable) {
  const SimdLevel original = ActiveSimdLevel();
  const std::size_t dim = 768;
  const Matrix data = RandomMatrix(64, dim, 31);
  const Matrix queries = RandomMatrix(2, dim, 32);
  const std::vector<std::uint32_t> gather_ids = {63, 0, 17, 5, 5, 42};

  for (StorageLayout l : {StorageLayout::kSq8, StorageLayout::kSq4}) {
    CompressedStore s(dim, l);
    for (std::size_t r = 0; r < data.rows(); ++r) s.AppendRow(data.Row(r));

    for (const Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        const auto q = queries.Row(qi);
        ASSERT_TRUE(SetActiveSimdLevel(SimdLevel::kPortable));
        std::vector<float> ref(data.rows());
        s.Scan(metric, q, ref.data());

        for (const SimdLevel level : {SimdLevel::kNeon, SimdLevel::kAvx2,
                                      SimdLevel::kAvx512}) {
          if (!SimdLevelSupported(level)) continue;
          ASSERT_TRUE(SetActiveSimdLevel(level));
          std::vector<float> got(data.rows());
          s.Scan(metric, q, got.data());
          for (std::size_t r = 0; r < data.rows(); ++r) {
            EXPECT_NEAR(got[r], ref[r], 1e-3f * (1.f + std::abs(ref[r])))
                << SimdLevelName(level) << " " << StorageLayoutName(l)
                << " " << MetricName(metric) << " row " << r;
          }
          std::vector<float> gathered(gather_ids.size());
          s.GatherScan(metric, q, gather_ids.data(), gather_ids.size(),
                       gathered.data());
          for (std::size_t j = 0; j < gather_ids.size(); ++j) {
            EXPECT_EQ(gathered[j],
                      s.RowDistance(metric, q, gather_ids[j]));
            EXPECT_NEAR(gathered[j], ref[gather_ids[j]],
                        1e-3f * (1.f + std::abs(ref[gather_ids[j]])));
          }
        }
      }
    }
  }
  SetActiveSimdLevel(original);
}

// ------------------------------------------------------- recall gates ----

// The headline quality gate: two-level sq8 search on a seeded 100k
// corpus must keep recall@10 >= 0.95 against the exact float scan
// (bench/quantized_scan checks the same gate at 768-d with timing).
TEST(QuantRecall, FlatSq8RecallGateOn100k) {
  const std::size_t n = 100'000, dim = 64, k = 10;
  const Matrix corpus = RandomMatrix(n, dim, 5151);
  const Matrix queries = RandomMatrix(10, dim, 5252);

  FlatIndex exact(dim);
  exact.AddBatch(corpus);

  FlatIndexOptions qopts;
  qopts.storage = StorageLayout::kSq8;
  qopts.rerank_factor = 4;
  FlatIndex quant(dim, qopts);
  quant.AddBatch(corpus);

  std::vector<std::vector<Neighbor>> truth, approx;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    truth.push_back(exact.Search(queries.Row(qi), k));
    approx.push_back(quant.Search(queries.Row(qi), k));
  }
  EXPECT_GE(MeanRecallAtK(approx, truth), 0.95);
}

TEST(QuantRecall, FlatSq4KeepsUsableRecall) {
  const std::size_t n = 20'000, dim = 64, k = 10;
  const Matrix corpus = RandomMatrix(n, dim, 6161);
  const Matrix queries = RandomMatrix(10, dim, 6262);
  FlatIndex exact(dim);
  exact.AddBatch(corpus);
  FlatIndexOptions qopts;
  qopts.storage = StorageLayout::kSq4;
  FlatIndex quant(dim, qopts);
  quant.AddBatch(corpus);
  std::vector<std::vector<Neighbor>> truth, approx;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    truth.push_back(exact.Search(queries.Row(qi), k));
    approx.push_back(quant.Search(queries.Row(qi), k));
  }
  EXPECT_GE(MeanRecallAtK(approx, truth), 0.85);
}

// Quantized posting scans / graph traversal keep each index close to its
// own float-storage twin (same structure, same seeds; only the primary
// representation differs).
TEST(QuantRecall, IvfAndHnswTrackTheirFloatTwins) {
  const std::size_t n = 4000, dim = 32, k = 10;
  const Matrix corpus = RandomMatrix(n, dim, 717);
  const Matrix queries = RandomMatrix(10, dim, 718);

  const auto run = [&](VectorIndex& index) {
    std::vector<std::vector<Neighbor>> out;
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      out.push_back(index.Search(queries.Row(qi), k));
    }
    return out;
  };

  {
    IvfFlatOptions base;
    base.nlist = 32;
    base.nprobe = 8;
    IvfFlatIndex f(dim, base);
    f.Train(corpus);
    f.AddBatch(corpus);
    IvfFlatOptions qo = base;
    qo.storage = StorageLayout::kSq8;
    IvfFlatIndex q(dim, qo);
    q.Train(corpus);
    q.AddBatch(corpus);
    EXPECT_GE(MeanRecallAtK(run(q), run(f)), 0.95) << "ivf_flat";
  }
  {
    HnswOptions base;
    base.M = 16;
    base.ef_search = 64;
    HnswIndex f(dim, base);
    f.AddBatch(corpus);
    HnswOptions qo = base;
    qo.storage = StorageLayout::kSq8;
    HnswIndex q(dim, qo);
    q.AddBatch(corpus);
    EXPECT_GE(MeanRecallAtK(run(q), run(f)), 0.90) << "hnsw";
  }
}

// ------------------------------------------------------ serialization ----

TEST(QuantSerde, FlatRoundTripAndFloatBackCompat) {
  const std::size_t dim = 24;
  const Matrix corpus = RandomMatrix(300, dim, 99);
  const Matrix queries = RandomMatrix(4, dim, 98);

  FlatIndexOptions qopts;
  qopts.storage = StorageLayout::kSq4;
  qopts.rerank_factor = 6;
  FlatIndex quant(dim, qopts);
  quant.AddBatch(corpus);
  std::stringstream ss;
  quant.SaveTo(ss);
  const FlatIndex loaded = FlatIndex::LoadFrom(ss);
  EXPECT_EQ(loaded.storage(), StorageLayout::kSq4);
  EXPECT_EQ(loaded.size(), quant.size());
  EXPECT_NE(loaded.Describe().find("storage=sq4"), std::string::npos);
  EXPECT_NE(loaded.Describe().find("rerank=6"), std::string::npos);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto a = quant.Search(queries.Row(qi), 5);
    const auto b = loaded.Search(queries.Row(qi), 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].distance, b[j].distance);
    }
  }

  // Float32 stores keep the version-1 on-disk shape: they round-trip
  // with storage still float32 and no quantized segment in Describe().
  FlatIndex plain(dim, FlatIndexOptions{});
  plain.AddBatch(corpus);
  std::stringstream ps;
  plain.SaveTo(ps);
  const FlatIndex ploaded = FlatIndex::LoadFrom(ps);
  EXPECT_EQ(ploaded.storage(), StorageLayout::kFloat32);
  EXPECT_EQ(ploaded.Describe().find("storage="), std::string::npos);
}

TEST(QuantSerde, IvfAndHnswRoundTripQuantized) {
  const std::size_t dim = 16;
  const Matrix corpus = RandomMatrix(600, dim, 77);
  const Matrix queries = RandomMatrix(3, dim, 78);

  IvfFlatOptions iopts;
  iopts.nlist = 8;
  iopts.nprobe = 4;
  iopts.storage = StorageLayout::kSq8;
  IvfFlatIndex ivf(dim, iopts);
  ivf.Train(corpus);
  ivf.AddBatch(corpus);
  std::stringstream is;
  ivf.SaveTo(is);
  const IvfFlatIndex iloaded = IvfFlatIndex::LoadFrom(is);
  EXPECT_EQ(iloaded.storage(), StorageLayout::kSq8);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto a = ivf.Search(queries.Row(qi), 5);
    const auto b = iloaded.Search(queries.Row(qi), 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }

  HnswOptions hopts;
  hopts.storage = StorageLayout::kSq8;
  HnswIndex hnsw(dim, hopts);
  hnsw.AddBatch(corpus);
  std::stringstream hs;
  hnsw.SaveTo(hs);
  const auto hloaded = HnswIndex::LoadFrom(hs);
  EXPECT_EQ(hloaded->storage(), StorageLayout::kSq8);
  EXPECT_NE(hloaded->Describe().find("storage=sq8"), std::string::npos);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto a = hnsw.Search(queries.Row(qi), 5);
    const auto b = hloaded->Search(queries.Row(qi), 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }
}

// ------------------------------------------------------------ factory ----

TEST(QuantFactory, StorageKnobReachesEveryKind) {
  const Matrix corpus = RandomMatrix(500, 16, 55);
  for (const char* kind : {"flat", "ivf_flat", "hnsw"}) {
    IndexSpec spec;
    spec.kind = kind;
    spec.storage = "sq8";
    spec.ivf_nlist = 8;
    const auto index = BuildIndex(spec, corpus);
    EXPECT_NE(index->Describe().find("storage=sq8"), std::string::npos)
        << kind << ": " << index->Describe();
    EXPECT_FALSE(index->Search(corpus.Row(0), 3).empty()) << kind;
  }
  IndexSpec bad;
  bad.storage = "sq2";
  EXPECT_THROW(BuildIndex(bad, corpus), std::invalid_argument);
  // The mutable graph has no compressed path; a compressed graph is hnsw.
  IndexSpec graph;
  graph.kind = "mutable";
  graph.storage = "sq8";
  EXPECT_THROW(BuildIndex(graph, corpus), std::invalid_argument);
}

// ---------------------------------------------------------- telemetry ----

#if PROXIMITY_OBS_ENABLED
TEST(QuantMetrics, ScanCountersAdvanceOnQuantizedSearch) {
  const std::size_t dim = 32;
  const Matrix corpus = RandomMatrix(2000, dim, 404);
  FlatIndexOptions opts;
  opts.storage = StorageLayout::kSq8;
  FlatIndex index(dim, opts);
  index.AddBatch(corpus);

  const auto before = obs::MetricsRegistry::Default().Snapshot();
  (void)index.Search(corpus.Row(1), 10);
  const auto after = obs::MetricsRegistry::Default().Snapshot();

  EXPECT_GT(after.CounterValue("scan.primary_bytes"),
            before.CounterValue("scan.primary_bytes"));
  EXPECT_GT(after.CounterValue("scan.rerank_bytes"),
            before.CounterValue("scan.rerank_bytes"));
  EXPECT_GT(after.CounterValue("scan.candidates"),
            before.CounterValue("scan.candidates"));
  EXPECT_EQ(after.CounterValue("scan.queries"),
            before.CounterValue("scan.queries") + 1);
  const double ratio = after.GaugeValue("scan.rerank_ratio");
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
}
#endif

// -------------------------------------------------------- concurrency ----

// Concurrent Search calls on one sq8 index, from every pool thread and
// the caller, must each return what a serial Search returned: the TSan
// surface of the compressed read path (codes, the rerank gather and the
// scan.* telemetry).
TEST(QuantConcurrent, ParallelQuantizedScanMatchesSerial) {
  const std::size_t dim = 48, n = 8000, k = 10;
  const Matrix corpus = RandomMatrix(n, dim, 321);
  const Matrix queries = RandomMatrix(32, dim, 322);

  FlatIndexOptions opts;
  opts.storage = StorageLayout::kSq8;
  FlatIndex index(dim, opts);
  index.AddBatch(corpus);

  std::vector<std::vector<Neighbor>> serial(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    serial[qi] = index.Search(queries.Row(qi), k);
  }
  std::vector<std::vector<Neighbor>> concurrent(queries.rows());
  ThreadPool::Shared().ParallelFor(0, queries.rows(), [&](std::size_t qi) {
    concurrent[qi] = index.Search(queries.Row(qi), k);
  });
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    ASSERT_EQ(serial[qi].size(), concurrent[qi].size());
    for (std::size_t j = 0; j < serial[qi].size(); ++j) {
      EXPECT_EQ(serial[qi][j].id, concurrent[qi][j].id)
          << "query " << qi << " rank " << j;
      EXPECT_EQ(serial[qi][j].distance, concurrent[qi][j].distance);
    }
  }
}

}  // namespace
}  // namespace proximity
