// Property-based and parameterized suites (TEST_P sweeps) checking
// invariants across randomized inputs and parameter grids:
//   - the Proximity cache against a brute-force shadow model,
//   - top-k selection against full sorts,
//   - HNSW recall across (M, ef) configurations,
//   - k-means inertia monotonicity,
//   - embedding-geometry invariants of the workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "embed/hash_embedder.h"
#include "embed/perturb.h"
#include "index/hnsw_index.h"
#include "index/kmeans.h"
#include "index/recall.h"
#include "vecmath/kernels.h"
#include "vecmath/topk.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

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

// ---------------------------------------------- Cache vs shadow model --

struct CacheModelParams {
  std::size_t capacity;
  float tolerance;
  EvictionKind eviction;
};

class CacheShadowModelTest
    : public ::testing::TestWithParam<CacheModelParams> {};

// A transparent re-implementation of Algorithm 1 with naive containers.
class ShadowCache {
 public:
  ShadowCache(std::size_t capacity, float tolerance)
      : capacity_(capacity), tolerance_(tolerance) {}

  std::optional<std::vector<VectorId>> Lookup(
      const std::vector<float>& q) const {
    if (entries_.empty()) return std::nullopt;
    std::size_t best = 0;
    float best_d = L2SquaredDistance(q, entries_[0].key);
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const float d = L2SquaredDistance(q, entries_[i].key);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    if (best_d <= tolerance_) return entries_[best].value;
    return std::nullopt;
  }

  void InsertFifo(std::vector<float> key, std::vector<VectorId> value) {
    if (entries_.size() >= capacity_) {
      entries_.erase(entries_.begin());  // index 0 is the oldest
    }
    entries_.push_back({std::move(key), std::move(value)});
  }

 private:
  struct Entry {
    std::vector<float> key;
    std::vector<VectorId> value;
  };
  std::vector<Entry> entries_;
  std::size_t capacity_;
  float tolerance_;
};

TEST_P(CacheShadowModelTest, MatchesBruteForceSemantics) {
  const auto params = GetParam();
  constexpr std::size_t kDim = 8;
  ApproxCacheOptions opts;
  opts.capacity = params.capacity;
  opts.tolerance = params.tolerance;
  opts.eviction = params.eviction;
  ProximityCache cache(kDim, opts);
  ShadowCache shadow(params.capacity, params.tolerance);

  Rng rng(params.capacity * 1000 +
          static_cast<std::uint64_t>(params.tolerance * 10));
  for (int step = 0; step < 400; ++step) {
    std::vector<float> q(kDim);
    // Continuous coordinates: distances are almost surely distinct, so
    // both implementations resolve the minimum the same way.
    for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 1.2));
    const auto got = cache.Lookup(q);
    const auto expected = shadow.Lookup(q);
    ASSERT_EQ(got.hit, expected.has_value()) << "step " << step;
    if (got.hit) {
      EXPECT_TRUE(std::equal(got.value.begin(), got.value.end(),
                             expected->begin(), expected->end()))
          << "step " << step;
    } else {
      std::vector<VectorId> docs = {static_cast<VectorId>(step)};
      cache.Insert(q, docs);
      shadow.InsertFifo(q, docs);
    }
    EXPECT_LE(cache.size(), params.capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FifoGrid, CacheShadowModelTest,
    ::testing::Values(CacheModelParams{1, 0.5f, EvictionKind::kFifo},
                      CacheModelParams{4, 0.0f, EvictionKind::kFifo},
                      CacheModelParams{4, 2.0f, EvictionKind::kFifo},
                      CacheModelParams{16, 1.0f, EvictionKind::kFifo},
                      CacheModelParams{64, 8.0f, EvictionKind::kFifo},
                      CacheModelParams{128, 100.0f, EvictionKind::kFifo}));

class CacheHitInvariantTest
    : public ::testing::TestWithParam<EvictionKind> {};

// One policy at one (dim, τ): every fourth query repeats an earlier one,
// so τ = 0 hits too. Past 64-d the L2 scan abandons keys
// part-way; its nearest distance must still be the smallest full one.
void CheckHitInvariant(EvictionKind eviction, std::size_t dim, float tau) {
  SCOPED_TRACE(testing::Message() << "dim=" << dim << " tau=" << tau);
  constexpr std::size_t kCapacity = 10;
  ApproxCacheOptions opts;
  opts.capacity = kCapacity;
  opts.tolerance = tau;
  opts.eviction = eviction;
  ProximityCache cache(dim, opts);

  Rng rng(7);
  std::vector<std::vector<float>> seen;
  for (int step = 0; step < 500; ++step) {
    std::vector<float> q(dim);
    for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 2));
    if (step % 4 == 3) q = seen[rng.Below(seen.size())];
    seen.push_back(q);
    float nearest = std::numeric_limits<float>::infinity();
    for (std::size_t s = 0; s < cache.size(); ++s) {
      nearest = std::min(nearest, L2SquaredDistance(q, cache.KeyAt(s)));
    }
    const auto result = cache.Lookup(q);
    EXPECT_EQ(result.best_distance, nearest);
    if (result.hit) {
      EXPECT_LE(result.best_distance, tau);
    } else {
      // Miss implies *no* key within tolerance.
      EXPECT_GT(nearest, tau);
      cache.Insert(q, {static_cast<VectorId>(step)});
    }
    EXPECT_LE(cache.size(), kCapacity);
  }
}

// Hit correctness (distance <= tau) must hold for every policy, even
// where the shadow model's eviction order does not apply; at τ ∈ {3, 0,
// 0.5, 2} and at 6-d and 100-d.
TEST_P(CacheHitInvariantTest, HitsAreWithinToleranceAndSizeBounded) {
  for (const std::size_t dim : {6u, 100u}) {
    for (const float tau : {3.0f, 0.0f, 0.5f, 2.0f}) {
      CheckHitInvariant(GetParam(), dim, tau);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheHitInvariantTest,
                         ::testing::Values(EvictionKind::kFifo,
                                           EvictionKind::kLru,
                                           EvictionKind::kLfu,
                                           EvictionKind::kRandom,
                                           EvictionKind::kClock));

// ------------------------------------- tau = 0 vs exact-cache property --

// The exact-matching cache of §3.2.3 as a reference: keys match only on
// bit-identical embeddings, FIFO eviction at a fixed capacity.
class ExactFifoMap {
 public:
  explicit ExactFifoMap(std::size_t capacity) : capacity_(capacity) {}

  const std::vector<VectorId>* Lookup(std::span<const float> key) {
    const auto it = map_.find(Bytes(key));
    if (it == map_.end()) return nullptr;
    ++hits_;
    return &it->second;
  }

  /// Only called on a miss, so `key` is never already present.
  void Insert(std::span<const float> key, std::vector<VectorId> documents) {
    if (map_.size() == capacity_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(Bytes(key));
    map_.emplace(fifo_.back(), std::move(documents));
  }

  std::uint64_t hits() const noexcept { return hits_; }

 private:
  static std::string Bytes(std::span<const float> v) {
    return {reinterpret_cast<const char*>(v.data()), v.size_bytes()};
  }

  std::size_t capacity_;
  std::unordered_map<std::string, std::vector<VectorId>> map_;
  std::deque<std::string> fifo_;
  std::uint64_t hits_ = 0;
};

TEST(CacheEquivalenceTest, ZeroToleranceMatchesExactCacheOnHits) {
  // §3.2.3: "tau = 0 is equivalent to using a cache with exact matching."
  // Drive both caches with the same operation sequence over a small key
  // universe (so exact repeats occur) and compare hit outcomes. Both use
  // FIFO with the same capacity, so their contents stay identical.
  // Distinct keys sit more than 2 apart, so τ ∈ {0.5, 2} must match the
  // exact cache too (and 100-d keys run the L2 scan's abandon path).
  for (const std::size_t kDim : {4u, 100u}) {
    for (const float tau : {0.0f, 0.5f, 2.0f}) {
      SCOPED_TRACE(testing::Message() << "dim=" << kDim << " tau=" << tau);
      constexpr std::size_t kCapacity = 8;
      ApproxCacheOptions opts;
      opts.capacity = kCapacity;
      opts.tolerance = tau;
      ProximityCache approx(kDim, opts);
      ExactFifoMap exact(kCapacity);

      Rng rng(17);
      std::vector<std::vector<float>> universe;
      while (universe.size() < 24) {
        std::vector<float> v(kDim);
        for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
        bool apart = true;
        for (const auto& u : universe) apart &= L2SquaredDistance(u, v) > 2.0f;
        if (apart) universe.push_back(std::move(v));
      }

      for (int step = 0; step < 600; ++step) {
        const auto& q = universe[rng.Below(universe.size())];
        const auto a = approx.Lookup(q);
        const auto* e = exact.Lookup(q);
        ASSERT_EQ(a.hit, e != nullptr) << "step " << step;
        if (a.hit) {
          EXPECT_TRUE(std::equal(a.value.begin(), a.value.end(), e->begin(),
                                 e->end()));
        } else {
          const std::vector<VectorId> docs = {step};
          approx.Insert(q, docs);
          exact.Insert(q, docs);
        }
      }
      // Both saw the same traffic and must agree on aggregate hits.
      EXPECT_EQ(approx.stats().hits, exact.hits());
    }
  }
}

// -------------------------------------------------- TopK vs full sort --

class TopKPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(TopKPropertyTest, AgreesWithFullSort) {
  const auto [k, n] = GetParam();
  Rng rng(k * 31 + n);
  std::vector<Neighbor> all;
  TopK top(k);
  for (std::size_t i = 0; i < n; ++i) {
    // Coarse distances to exercise tie-breaking.
    const float d = static_cast<float>(rng.Below(16));
    all.push_back({static_cast<VectorId>(i), d});
    top.Push(static_cast<VectorId>(i), d);
  }
  std::sort(all.begin(), all.end(), NeighborCloser{});
  if (all.size() > k) all.resize(k);
  EXPECT_EQ(top.Take(), all);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopKPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 10, 100),
                       ::testing::Values<std::size_t>(1, 10, 100, 2000)));

// --------------------------------------------------- HNSW recall sweep --

struct HnswParams {
  std::size_t M;
  std::size_t ef_search;
  double min_recall;
};

class HnswRecallTest : public ::testing::TestWithParam<HnswParams> {};

TEST_P(HnswRecallTest, RecallAboveFloor) {
  const auto params = GetParam();
  const Matrix corpus = RandomMatrix(2000, 16, 5);
  HnswIndex index(16, {.M = params.M,
                       .ef_construction = 100,
                       .ef_search = params.ef_search});
  index.AddBatch(corpus);
  double recall_sum = 0;
  constexpr int kQueries = 20;
  Rng rng(6);
  for (int i = 0; i < kQueries; ++i) {
    std::vector<float> q(16);
    for (auto& x : q) x = static_cast<float>(rng.Gaussian(0, 1));
    const auto truth = SelectTopK(Metric::kL2, q, corpus.data(),
                                  corpus.rows(), corpus.dim(), 10);
    recall_sum += RecallAtK(index.Search(q, 10), truth);
  }
  EXPECT_GE(recall_sum / kQueries, params.min_recall);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HnswRecallTest,
    ::testing::Values(HnswParams{8, 32, 0.6}, HnswParams{8, 128, 0.85},
                      HnswParams{16, 64, 0.85}, HnswParams{32, 128, 0.95}));

// ------------------------------------------------------ KMeans property --

class KMeansInertiaTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansInertiaTest, MoreClustersNeverIncreaseInertia) {
  const std::size_t k = GetParam();
  const Matrix data = RandomMatrix(400, 8, 9);
  KMeansOptions opts;
  opts.seed = 3;
  opts.max_iterations = 25;
  const auto coarse = RunKMeans(data, k, opts);
  const auto fine = RunKMeans(data, k * 4, opts);
  EXPECT_LE(fine.inertia, coarse.inertia * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Grid, KMeansInertiaTest,
                         ::testing::Values<std::size_t>(2, 4, 8, 16));

// -------------------------------------- Workload geometry invariants --

struct GeometryCase {
  const char* name;
  bool medrag;
};

// Names each case by its workload. Without it gtest prints the struct's
// raw bytes (a string-literal address and padding), so the case names
// ctest discovers would change with every relink.
void PrintTo(const GeometryCase& c, std::ostream* os) { *os << c.name; }

class WorkloadGeometryTest : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(WorkloadGeometryTest, VariantsCloserThanClustersCloserThanStrangers) {
  const auto param = GetParam();
  WorkloadSpec spec = param.medrag ? MedragLikeSpec(0, 42)
                                   : MmluLikeSpec(0, 42);
  spec.corpus_size =
      spec.num_questions * spec.golds_per_question + 500;
  const Workload w = BuildWorkload(spec);
  HashEmbedder embedder;

  StreamingStats variant, same_cluster, cross_cluster;
  for (std::size_t q = 0; q < 30; ++q) {
    const auto base = embedder.Embed(w.questions[q].text);
    const auto var = embedder.Embed(
        MakeVariant(w.questions[q].text, q, 1, 42));
    variant.Add(L2SquaredDistance(base, var));
    for (std::size_t p = q + 1; p < 30; ++p) {
      const auto other = embedder.Embed(w.questions[p].text);
      const float d = L2SquaredDistance(base, other);
      if (w.questions[q].cluster == w.questions[p].cluster) {
        same_cluster.Add(d);
      } else {
        cross_cluster.Add(d);
      }
    }
  }
  // The ordering the τ sweep depends on.
  EXPECT_LT(variant.max(), same_cluster.min());
  EXPECT_LT(same_cluster.mean(), cross_cluster.mean());
  // Variants live below τ = 2 (MMLU τ grid) on average.
  EXPECT_LT(variant.mean(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadGeometryTest,
                         ::testing::Values(GeometryCase{"mmlu", false},
                                           GeometryCase{"medrag", true}));

TEST(WorkloadGeometryTest, MedragClustersWiderApartThanMmlu) {
  // The property that makes τ = 5 safe for MedRAG but cross-question for
  // MMLU (§4.3.2): MedRAG same-cluster distances exceed MMLU's.
  auto mean_same_cluster = [](const WorkloadSpec& base) {
    WorkloadSpec spec = base;
    spec.corpus_size = spec.num_questions * spec.golds_per_question + 100;
    const Workload w = BuildWorkload(spec);
    HashEmbedder embedder;
    StreamingStats stats;
    // Clusters are assigned round-robin, so (q, q + num_clusters) is
    // always a same-cluster pair.
    for (std::size_t q = 0; q + spec.num_clusters < w.questions.size() &&
                            q < 20;
         ++q) {
      const std::size_t p = q + spec.num_clusters;
      EXPECT_EQ(w.questions[q].cluster, w.questions[p].cluster)
          << "round-robin assumption broken";
      stats.Add(L2SquaredDistance(embedder.Embed(w.questions[q].text),
                                  embedder.Embed(w.questions[p].text)));
    }
    return stats.mean();
  };
  const double mmlu = mean_same_cluster(MmluLikeSpec(0, 42));
  const double medrag = mean_same_cluster(MedragLikeSpec(0, 42));
  EXPECT_LT(mmlu, 5.0);    // inside the MMLU τ=5 radius
  EXPECT_GT(medrag, 5.0);  // outside the MedRAG τ=5 radius
  EXPECT_LT(medrag, 10.0);  // but inside τ=10 (the accuracy cliff)
}

}  // namespace
}  // namespace proximity
