// Unit tests for src/index: flat, k-means, IVF, the graph properties of
// the mutable Vamana-style index, the slow-storage wrapper, recall
// utilities, and the factory. HNSW has its own suite (hnsw_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string_view>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "vecmath/topk.h"
#include "index/flat_index.h"
#include "index/index_factory.h"
#include "index/ivf_flat_index.h"
#include "index/kmeans.h"
#include "index/mutable_index.h"
#include "index/recall.h"
#include "index/slow_storage_index.h"

namespace proximity {
namespace {

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

std::vector<float> RandomVec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
  return v;
}

// Brute-force ground truth.
std::vector<Neighbor> BruteForce(const Matrix& corpus,
                                 std::span<const float> query, std::size_t k,
                                 Metric metric = Metric::kL2) {
  return SelectTopK(metric, query, corpus.data(), corpus.rows(),
                    corpus.dim(), k);
}

// ----------------------------------------------------------------- Flat --

// ids and float bits, rank by rank.
void ExpectSameBits(const std::vector<Neighbor>& want,
                    const std::vector<Neighbor>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].distance),
              std::bit_cast<std::uint32_t>(got[i].distance))
        << "rank " << i;
  }
}

// SearchBatch must return, for every query of the block, exactly what
// Search returns for it alone.
void ExpectBatchMatchesSearch(const FlatIndex& index, const Matrix& queries,
                              std::size_t k) {
  const auto batch = index.SearchBatch(queries, k);
  ASSERT_EQ(batch.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    SCOPED_TRACE(testing::Message() << "query " << q << " of "
                                    << queries.rows());
    ExpectSameBits(index.Search(queries.Row(q), k), batch[q]);
  }
}


TEST(FlatIndexTest, ExactMatchesBruteForce) {
  const Matrix corpus = RandomMatrix(500, 16, 1);
  FlatIndex index(16);
  index.AddBatch(corpus);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto q = RandomVec(16, 100 + s);
    EXPECT_EQ(index.Search(q, 7), BruteForce(corpus, q, 7));
  }
}

TEST(FlatIndexTest, AddAssignsSequentialIds) {
  FlatIndex index(4);
  const std::vector<float> v = {1, 2, 3, 4};
  EXPECT_EQ(index.Add(v), 0);
  EXPECT_EQ(index.Add(v), 1);
  EXPECT_EQ(index.size(), 2u);
}

TEST(FlatIndexTest, RejectsWrongDimension) {
  FlatIndex index(4);
  const std::vector<float> bad = {1, 2};
  EXPECT_THROW(index.Add(bad), std::invalid_argument);
  EXPECT_THROW(index.Search(bad, 1), std::invalid_argument);
  EXPECT_THROW(index.SearchBatch(Matrix(2, 2), 1), std::invalid_argument);
}

TEST(FlatIndexTest, EmptyIndexReturnsNothing) {
  FlatIndex index(4);
  const std::vector<float> q = {1, 2, 3, 4};
  EXPECT_TRUE(index.Search(q, 5).empty());
  EXPECT_TRUE(index.Search(q, 0).empty());
  // SearchBatch: one empty list per query, none for no queries.
  EXPECT_TRUE(index.SearchBatch(Matrix(0, 4), 5).empty());
  const auto none = index.SearchBatch(Matrix(2, 4), 5);
  ASSERT_EQ(none.size(), 2u);
  EXPECT_TRUE(none[0].empty() && none[1].empty());
  index.Add(q);
  const auto zero_k = index.SearchBatch(Matrix(2, 4), 0);
  ASSERT_EQ(zero_k.size(), 2u);
  EXPECT_TRUE(zero_k[0].empty() && zero_k[1].empty());
}

TEST(FlatIndexTest, KLargerThanSizeReturnsAll) {
  FlatIndex index(2);
  index.Add(std::vector<float>{0, 0});
  index.Add(std::vector<float>{1, 1});
  const std::vector<float> q = {0, 0};
  EXPECT_EQ(index.Search(q, 10).size(), 2u);
}

TEST(FlatIndexTest, InnerProductMetricPrefersLargerDot) {
  FlatIndex index(2, {.metric = Metric::kInnerProduct});
  index.Add(std::vector<float>{1, 0});   // id 0, dot 1
  index.Add(std::vector<float>{10, 0});  // id 1, dot 10
  const std::vector<float> q = {1, 0};
  const auto result = index.Search(q, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1);
}

// 1100 rows at 96-d: the scan's row tiles (512 rows at this dim) and the
// kernel's row blocks both leave remainders. Also: duplicate rows, which
// tie on distance and must come back in id order, with k above the row
// count; and sq8 storage, which keeps its per-query two-level search.
TEST(FlatIndexTest, SearchBatchIsBitIdenticalToSearch) {
  constexpr std::size_t kDim = 96;
  const Matrix corpus = RandomMatrix(1100, kDim, 3);
  const Matrix distinct = RandomMatrix(4, kDim, 5);
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    FlatIndex index(kDim, {.metric = metric});
    index.AddBatch(corpus);
    for (const std::size_t nq : {1u, 2u, 3u, 4u, 5u, 8u, 33u}) {
      SCOPED_TRACE(testing::Message() << MetricName(metric) << " nq=" << nq);
      ExpectBatchMatchesSearch(index, RandomMatrix(nq, kDim, 40 + nq), 10);
    }

    FlatIndex dups(kDim, {.metric = metric});
    for (std::size_t copy = 0; copy < 3; ++copy) dups.AddBatch(distinct);
    const Matrix queries = RandomMatrix(5, kDim, 6);
    ExpectBatchMatchesSearch(dups, queries, 20);
    for (const auto& list : dups.SearchBatch(queries, 20)) {
      ASSERT_EQ(list.size(), 12u);
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (list[i].distance == list[i - 1].distance) {
          EXPECT_LT(list[i - 1].id, list[i].id);
        }
      }
    }
  }
  FlatIndex sq8(kDim, {.storage = StorageLayout::kSq8});
  sq8.AddBatch(corpus);
  ExpectBatchMatchesSearch(sq8, RandomMatrix(5, kDim, 9), 10);
}

TEST(FlatIndexTest, DescribeMentionsKind) {
  FlatIndex index(4);
  EXPECT_NE(index.Describe().find("flat"), std::string::npos);
}

// --------------------------------------------------------------- KMeans --

TEST(KMeansTest, SeparatesObviousClusters) {
  // Two well-separated blobs.
  Matrix data(0, 2);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    data.AppendRow(std::vector<float>{
        static_cast<float>(rng.Gaussian(0, 0.1)),
        static_cast<float>(rng.Gaussian(0, 0.1))});
    data.AppendRow(std::vector<float>{
        static_cast<float>(10 + rng.Gaussian(0, 0.1)),
        static_cast<float>(10 + rng.Gaussian(0, 0.1))});
  }
  const auto result = RunKMeans(data, 2);
  ASSERT_EQ(result.centroids.rows(), 2u);
  // One centroid near (0,0), the other near (10,10).
  const float c0 = result.centroids.Row(0)[0];
  const float c1 = result.centroids.Row(1)[0];
  EXPECT_NEAR(std::min(c0, c1), 0.f, 0.5f);
  EXPECT_NEAR(std::max(c0, c1), 10.f, 0.5f);
  // Inertia is small for this easy case.
  EXPECT_LT(result.inertia / data.rows(), 0.1);
}

TEST(KMeansTest, DeterministicForSameSeed) {
  const Matrix data = RandomMatrix(200, 8, 4);
  KMeansOptions opts;
  opts.seed = 77;
  const auto a = RunKMeans(data, 8, opts);
  const auto b = RunKMeans(data, 8, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, AssignmentMatchesNearestCentroid) {
  const Matrix data = RandomMatrix(100, 4, 5);
  const auto result = RunKMeans(data, 5);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(result.assignment[i],
              NearestCentroid(result.centroids, data.Row(i)));
  }
}

TEST(KMeansTest, DegenerateKGreaterThanN) {
  const Matrix data = RandomMatrix(5, 4, 6);
  const auto result = RunKMeans(data, 10);
  EXPECT_EQ(result.centroids.rows(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.assignment[i], i);
  }
}

TEST(KMeansTest, RejectsBadInput) {
  Matrix empty(0, 4);
  EXPECT_THROW(RunKMeans(empty, 2), std::invalid_argument);
  const Matrix data = RandomMatrix(10, 4, 7);
  EXPECT_THROW(RunKMeans(data, 0), std::invalid_argument);
}

TEST(KMeansTest, AllCentroidsLive) {
  // Duplicated points could starve clusters; re-seeding must keep all k.
  Matrix data(0, 2);
  for (int i = 0; i < 100; ++i) {
    data.AppendRow(std::vector<float>{1.f, 1.f});
  }
  data.AppendRow(std::vector<float>{5.f, 5.f});
  const auto result = RunKMeans(data, 3);
  EXPECT_EQ(result.centroids.rows(), 3u);
}

// ------------------------------------------------------------------ IVF --

TEST(IvfFlatTest, TrainThenSearchFindsNeighbors) {
  const Matrix corpus = RandomMatrix(2000, 16, 8);
  IvfFlatIndex index(16, {.nlist = 16, .nprobe = 16});  // full probe: exact
  index.Train(corpus);
  index.AddBatch(corpus);
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto q = RandomVec(16, 300 + s);
    EXPECT_EQ(index.Search(q, 5), BruteForce(corpus, q, 5));
  }
}

TEST(IvfFlatTest, PartialProbeHasReasonableRecall) {
  const Matrix corpus = RandomMatrix(5000, 16, 9);
  IvfFlatIndex index(16, {.nlist = 32, .nprobe = 8});
  index.Train(corpus);
  index.AddBatch(corpus);
  double recall_sum = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto q = RandomVec(16, 400 + s);
    recall_sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
  }
  EXPECT_GT(recall_sum / 20, 0.5);
}

TEST(IvfFlatTest, MoreProbesImproveRecall) {
  const Matrix corpus = RandomMatrix(5000, 16, 10);
  IvfFlatIndex index(16, {.nlist = 64, .nprobe = 1});
  index.Train(corpus);
  index.AddBatch(corpus);
  auto recall_with_probe = [&](std::size_t nprobe) {
    index.set_nprobe(nprobe);
    double sum = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
      const auto q = RandomVec(16, 500 + s);
      sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
    }
    return sum / 20;
  };
  const double r1 = recall_with_probe(1);
  const double r64 = recall_with_probe(64);
  EXPECT_LT(r1, r64);
  EXPECT_NEAR(r64, 1.0, 1e-9);  // all lists probed = exact
}

TEST(IvfFlatTest, LifecycleErrors) {
  IvfFlatIndex index(8);
  const std::vector<float> v(8, 0.f);
  EXPECT_THROW(index.Add(v), std::logic_error);
  EXPECT_THROW(index.Search(v, 1), std::logic_error);
  index.Train(RandomMatrix(100, 8, 11));
  EXPECT_THROW(index.Train(RandomMatrix(100, 8, 12)), std::logic_error);
  EXPECT_THROW(IvfFlatIndex(8, {.nlist = 0}), std::invalid_argument);
}

TEST(IvfFlatTest, EveryVectorLandsInExactlyOneList) {
  const Matrix corpus = RandomMatrix(500, 8, 13);
  IvfFlatIndex index(8, {.nlist = 10});
  index.Train(corpus);
  index.AddBatch(corpus);
  std::size_t total = 0;
  for (std::size_t l = 0; l < index.nlist(); ++l) {
    total += index.ListSize(l);
  }
  EXPECT_EQ(total, corpus.rows());
}

// --------------------------------------------------------------- Vamana --
// Graph properties of the one Vamana-style graph, MutableGraphIndex (every
// Add is a DiskANN fresh insert). Its slot arena, deletes and consolidation
// are covered in mutation_test.

TEST(VamanaTest, ExactOnTinySets) {
  const Matrix corpus = RandomMatrix(40, 8, 51);
  MutableGraphIndex index(8, {.max_degree = 16, .build_beam = 40,
                              .search_beam = 40});
  index.AddBatch(corpus);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto q = RandomVec(8, 2000 + s);
    EXPECT_EQ(index.Search(q, 5), BruteForce(corpus, q, 5));
  }
}

TEST(VamanaTest, HighRecallAtModerateBeam) {
  const Matrix corpus = RandomMatrix(3000, 32, 52);
  MutableGraphIndex index(32, {.max_degree = 32, .build_beam = 64,
                               .search_beam = 64});
  index.AddBatch(corpus);
  double recall_sum = 0;
  for (std::uint64_t s = 0; s < 30; ++s) {
    const auto q = RandomVec(32, 2100 + s);
    recall_sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
  }
  EXPECT_GT(recall_sum / 30, 0.85);
}

TEST(VamanaTest, BeamWidthImprovesRecall) {
  const Matrix corpus = RandomMatrix(3000, 32, 53);
  MutableGraphIndex index(32, {.max_degree = 16, .build_beam = 32,
                               .search_beam = 8});
  index.AddBatch(corpus);
  auto recall_at = [&](std::size_t beam) {
    index.set_search_beam(beam);
    double sum = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
      const auto q = RandomVec(32, 2200 + s);
      sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
    }
    return sum / 20;
  };
  EXPECT_LT(recall_at(8), recall_at(128));
}

TEST(VamanaTest, DegreeBoundHolds) {
  const Matrix corpus = RandomMatrix(800, 8, 54);
  MutableGraphOptions opts;
  opts.max_degree = 12;
  MutableGraphIndex index(8, opts);
  index.AddBatch(corpus);
  for (VectorId id = 0; id < 800; ++id) {
    const auto out = index.OutNeighbors(id);
    EXPECT_LE(out.size(), opts.max_degree);
    // No self-loops or duplicates.
    std::set<std::uint32_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), out.size());
    EXPECT_FALSE(unique.contains(static_cast<std::uint32_t>(id)));
  }
  EXPECT_THROW((void)index.OutNeighbors(800), std::out_of_range);
}

TEST(VamanaTest, ClusteredCorpusStillNavigable) {
  // Regression guard: tight, far-apart clusters strand a purely
  // incremental α-pruned graph inside the entry point's cluster (recall
  // ~ 1/#clusters). The protected long links must route across clusters.
  Rng rng(56);
  constexpr std::size_t kClusters = 16;
  Matrix centers = RandomMatrix(kClusters, 32, 57);
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (auto& x : centers.MutableRow(c)) x *= 5.f;  // spread clusters out
  }
  Matrix corpus(0, 32);
  for (int i = 0; i < 2000; ++i) {
    const auto center = centers.Row(rng.Below(kClusters));
    std::vector<float> v(32);
    for (std::size_t j = 0; j < 32; ++j) {
      v[j] = center[j] + static_cast<float>(rng.Gaussian(0, 0.3));
    }
    corpus.AppendRow(v);
  }
  MutableGraphIndex index(32, {.max_degree = 32, .build_beam = 64,
                               .search_beam = 64});
  index.AddBatch(corpus);
  double recall_sum = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto center = centers.Row(s % kClusters);
    std::vector<float> q(32);
    Rng qrng(3000 + s);
    for (std::size_t j = 0; j < 32; ++j) {
      q[j] = center[j] + static_cast<float>(qrng.Gaussian(0, 0.3));
    }
    recall_sum += RecallAtK(index.Search(q, 10), BruteForce(corpus, q, 10));
  }
  EXPECT_GT(recall_sum / 20, 0.8);
}

TEST(VamanaTest, ValidatesOptions) {
  EXPECT_THROW(MutableGraphIndex(8, {.max_degree = 1}), std::invalid_argument);
  EXPECT_THROW(MutableGraphIndex(8, {.alpha = 0.5f}), std::invalid_argument);
}

TEST(VamanaTest, SingleElementAndEmpty) {
  MutableGraphIndex index(4);
  const std::vector<float> q = {0, 0, 0, 0};
  EXPECT_TRUE(index.Search(q, 3).empty());
  index.Add(std::vector<float>{1, 2, 3, 4});
  const auto result = index.Search(q, 3);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);
}

// --------------------------------------------------------- SlowStorage --

TEST(SlowStorageTest, ChargesVirtualLatency) {
  VirtualClock clock;
  auto inner = std::make_unique<FlatIndex>(4);
  inner->Add(std::vector<float>{1, 2, 3, 4});
  inner->Add(std::vector<float>{5, 6, 7, 8});
  SlowStorageIndex slow(std::move(inner),
                        {.fixed_ns = 1000, .per_result_ns = 10}, &clock);
  const std::vector<float> q = {0, 0, 0, 0};
  const auto results = slow.Search(q, 2);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(clock.Now(), 1000 + 2 * 10);
  slow.Search(q, 1);
  EXPECT_EQ(clock.Now(), 1020 + 1000 + 10);
}

TEST(SlowStorageTest, DelegatesSearchResults) {
  VirtualClock clock;
  auto inner = std::make_unique<FlatIndex>(4);
  const Matrix corpus = RandomMatrix(100, 4, 27);
  inner->AddBatch(corpus);
  const FlatIndex* raw = inner.get();
  SlowStorageIndex slow(std::move(inner), {.fixed_ns = 5}, &clock);
  const auto q = RandomVec(4, 1500);
  EXPECT_EQ(slow.Search(q, 5), raw->Search(q, 5));
  EXPECT_EQ(slow.size(), 100u);
  EXPECT_EQ(slow.dim(), 4u);
}

TEST(SlowStorageTest, RejectsNulls) {
  VirtualClock clock;
  EXPECT_THROW(SlowStorageIndex(nullptr, {}, &clock), std::invalid_argument);
  auto inner = std::make_unique<FlatIndex>(4);
  EXPECT_THROW(SlowStorageIndex(std::move(inner), {}, nullptr),
               std::invalid_argument);
}

// --------------------------------------------------------------- Recall --

TEST(RecallTest, FullOverlapIsOne) {
  const std::vector<Neighbor> a = {{1, 0.1f}, {2, 0.2f}};
  EXPECT_DOUBLE_EQ(RecallAtK(a, a), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOverlap(a, a), 1.0);
}

TEST(RecallTest, PartialOverlap) {
  const std::vector<Neighbor> approx = {{1, 0.1f}, {3, 0.3f}};
  const std::vector<Neighbor> truth = {{1, 0.1f}, {2, 0.2f}};
  EXPECT_DOUBLE_EQ(RecallAtK(approx, truth), 0.5);
  EXPECT_DOUBLE_EQ(JaccardOverlap(approx, truth), 1.0 / 3.0);
}

TEST(RecallTest, EmptyTruthIsPerfect) {
  const std::vector<Neighbor> approx = {{1, 0.1f}};
  EXPECT_DOUBLE_EQ(RecallAtK(approx, {}), 1.0);
}

TEST(RecallTest, MeanRecallValidatesLengths) {
  std::vector<std::vector<Neighbor>> a(2), b(3);
  EXPECT_THROW(MeanRecallAtK(a, b), std::invalid_argument);
}

// -------------------------------------------------------------- Factory --

TEST(IndexFactoryTest, BuildsAllKinds) {
  const Matrix corpus = RandomMatrix(300, 16, 28);
  for (std::string_view kind : kIndexKinds) {
    IndexSpec spec;
    spec.kind = kind;
    spec.ivf_nlist = 8;
    auto index = BuildIndex(spec, corpus);
    EXPECT_EQ(index->size(), 300u) << kind;
    const auto q = RandomVec(16, 1600);
    EXPECT_EQ(index->Search(q, 5).size(), 5u) << kind;
  }
}

// A row range builds, reading the corpus in place, exactly what a copy of
// those rows builds.
TEST(IndexFactoryTest, RowRangeBuildsWhatACopyBuilds) {
  auto saved = [](const VectorIndex& index) {
    std::ostringstream os;
    index.SaveTo(os);
    return os.str();
  };
  auto copy_rows = [](const Matrix& m, std::size_t lo, std::size_t hi) {
    Matrix copy(0, m.dim());
    for (std::size_t r = lo; r < hi; ++r) copy.AppendRow(m.Row(r));
    return copy;
  };
  const Matrix corpus = RandomMatrix(400, 8, 30);
  for (std::string_view kind : kIndexKinds) {
    IndexSpec spec;
    spec.kind = kind;
    spec.ivf_nlist = 8;
    EXPECT_TRUE(saved(*BuildIndex(spec, corpus, 100, 350)) ==
                saved(*BuildIndex(spec, copy_rows(corpus, 100, 350))))
        << kind;
  }
  // Past 4096 rows IVF trains on a seeded subsample of the range.
  const Matrix large = RandomMatrix(5000, 4, 31);
  IndexSpec ivf;
  ivf.kind = "ivf_flat";
  ivf.ivf_nlist = 8;
  EXPECT_TRUE(saved(*BuildIndex(ivf, large, 300, 4700)) ==
              saved(*BuildIndex(ivf, copy_rows(large, 300, 4700))));

  EXPECT_THROW(BuildIndex(ivf, corpus, 300, 401), std::invalid_argument);
  EXPECT_THROW(BuildIndex(ivf, corpus, 5, 4), std::invalid_argument);
}

TEST(IndexFactoryTest, RejectsUnknownKind) {
  const Matrix corpus = RandomMatrix(10, 4, 29);
  IndexSpec spec;
  spec.kind = "annoy";
  EXPECT_THROW(BuildIndex(spec, corpus), std::invalid_argument);
}

}  // namespace
}  // namespace proximity
