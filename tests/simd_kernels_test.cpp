// Parity tests for the runtime-dispatched SIMD kernel layer (vecmath/
// kernels.h). Every compiled-in level must agree with a double-precision
// scalar reference within a small relative tolerance, and the fused batch /
// gather kernels must be bit-identical to the single-pair kernels of the
// same level — that contract is what lets the indexes and the cache route
// their scans through the batch path without changing any top-k result.
//
// The same contracts hold for simd_lanes.h instantiated at four lanes in
// this object, compiled with the baseline flags (SSE2 on x86-64): the
// shape aarch64's NEON table has, checked on hosts that never build it.
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/flat_index.h"
#include "vecmath/compressed_store.h"
#include "vecmath/kernel_table.h"
#include "vecmath/kernels.h"
#include "vecmath/matrix.h"
#include "vecmath/simd_lanes.h"

namespace proximity {
namespace {

constexpr double kRelTol = 1e-4;

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel lvl : {SimdLevel::kPortable, SimdLevel::kNeon,
                              SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelSupported(lvl)) levels.push_back(lvl);
  }
  return levels;
}

std::vector<float> RandomVec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
  return v;
}

// Double-precision references; the float kernels may differ only by
// summation order.
double RefL2(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s;
}

double RefIp(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

double RefCos(const std::vector<float>& a, const std::vector<float>& b) {
  const double dot = RefIp(a, b);
  const double denom = std::sqrt(RefIp(a, a)) * std::sqrt(RefIp(b, b));
  if (denom <= 0) return 1.0;
  return 1.0 - dot / denom;
}

void ExpectNear(double expected, float actual, double scale) {
  EXPECT_NEAR(expected, static_cast<double>(actual),
              kRelTol * std::max(1.0, std::abs(scale)));
}

// Bit patterns, so "bit-identical" means exactly that (EXPECT_FLOAT_EQ
// allows 4 ULP).
std::uint32_t Bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// ---------------------------------------------------------------------------
// Contracts of the active kernel table. Each test below runs them once per
// supported level; FourLaneKernelsTest runs them over simd_lanes.h at four
// lanes.
// ---------------------------------------------------------------------------

// Every dim in 1..768 (all tail shapes included), all three metrics
// against the double reference.
void ExpectActiveMatchesScalarReference(const std::string& label) {
  for (std::size_t dim = 1; dim <= 768; dim = dim < 40 ? dim + 1 : dim + 29) {
    SCOPED_TRACE(testing::Message() << label << " dim=" << dim);
    const auto a = RandomVec(dim, 1000 + dim);
    const auto b = RandomVec(dim, 2000 + dim);
    ExpectNear(RefL2(a, b), L2SquaredDistance(a, b), RefL2(a, b));
    ExpectNear(RefIp(a, b), InnerProduct(a, b), RefIp(a, a));
    ExpectNear(RefCos(a, b), CosineDistance(a, b), 1.0);
    ExpectNear(RefIp(a, a), SquaredNorm(a), RefIp(a, a));
  }
}

void ExpectActiveExactOnZeroVectors(const std::string& label) {
  for (const std::size_t dim : {1u, 7u, 16u, 33u, 768u}) {
    SCOPED_TRACE(testing::Message() << label << " dim=" << dim);
    const std::vector<float> zero(dim, 0.f);
    const auto v = RandomVec(dim, 77);
    EXPECT_EQ(0.f, L2SquaredDistance(zero, zero));
    EXPECT_EQ(0.f, InnerProduct(zero, v));
    EXPECT_EQ(0.f, SquaredNorm(zero));
    // Cosine with a zero vector is defined as 1 (maximally distant).
    EXPECT_EQ(1.f, CosineDistance(zero, v));
    EXPECT_EQ(1.f, CosineDistance(v, zero));
    // Self-distance must be exactly zero: the cache's tau=0 self-hit
    // semantics depend on it.
    EXPECT_EQ(0.f, L2SquaredDistance(v, v));
  }
}

// The KernelTable contract: batch results are bit-identical to the
// single-pair kernels of the same table, odd tails included.
void ExpectActiveBatchBitIdentical(const std::string& label) {
  for (const std::size_t dim : {1u, 5u, 16u, 31u, 64u, 100u, 768u}) {
    constexpr std::size_t kRows = 13;  // exercises group remainders
    Rng rng(31 + dim);
    std::vector<float> base(kRows * dim);
    for (auto& x : base) x = static_cast<float>(rng.Gaussian(0, 1));
    const auto query = RandomVec(dim, 55 + dim);
    std::vector<float> out(kRows);
    for (const Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      BatchDistance(metric, query, base.data(), kRows, dim, out.data());
      for (std::size_t r = 0; r < kRows; ++r) {
        const std::span<const float> row(base.data() + r * dim, dim);
        EXPECT_EQ(Bits(Distance(metric, query, row)), Bits(out[r]))
            << label << " metric=" << MetricName(metric) << " dim=" << dim
            << " row=" << r;
      }
    }
  }
}

// The multi-query kernels: for 1-9 queries over the batch helper's dims
// and 13 rows, each query's distances are bit-identical to BatchDistance
// of that query alone (cosine also through stored norms, which must come
// from the same level's sqnorm kernel).
void ExpectActiveMultiQueryBitIdentical(const std::string& label) {
  for (const std::size_t dim : {1u, 5u, 16u, 31u, 64u, 100u, 768u}) {
    constexpr std::size_t kRows = 13;
    Rng rng(41 + dim);
    std::vector<float> base(kRows * dim);
    for (auto& x : base) x = static_cast<float>(rng.Gaussian(0, 1));
    std::vector<float> norms(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      norms[r] = SquaredNorm({base.data() + r * dim, dim});
    }
    for (std::size_t nq = 1; nq <= 9; ++nq) {
      std::vector<float> queries(nq * dim);
      for (auto& x : queries) x = static_cast<float>(rng.Gaussian(0, 1));
      std::vector<float> multi(nq * kRows), one(kRows);
      for (const Metric metric :
           {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
        const float* with_norms = norms.data();
        const float* without_norms = nullptr;
        for (const float* row_norms : {with_norms, without_norms}) {
          BatchDistanceMulti(metric, queries.data(), nq, base.data(),
                             row_norms, kRows, dim, multi.data());
          for (std::size_t j = 0; j < nq; ++j) {
            BatchDistance(metric, {queries.data() + j * dim, dim},
                          base.data(), kRows, dim, one.data());
            for (std::size_t r = 0; r < kRows; ++r) {
              EXPECT_EQ(Bits(one[r]), Bits(multi[j * kRows + r]))
                  << label << " metric=" << MetricName(metric)
                  << " dim=" << dim << " nq=" << nq << " query=" << j
                  << " row=" << r << (row_norms ? " norms" : "");
            }
          }
        }
      }
    }
  }
}

void ExpectActiveGatherBitIdentical(const std::string& label) {
  constexpr std::size_t kDim = 48, kRows = 64;
  Rng rng(91);
  std::vector<float> base(kRows * kDim);
  for (auto& x : base) x = static_cast<float>(rng.Gaussian(0, 1));
  const auto query = RandomVec(kDim, 92);
  const std::vector<std::uint32_t> ids = {63, 0, 17, 17, 41, 2, 59};
  std::vector<float> out(ids.size());
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    GatherDistance(metric, query, base.data(), kDim, ids.data(), ids.size(),
                   out.data());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const std::span<const float> row(base.data() + ids[j] * kDim, kDim);
      EXPECT_EQ(Bits(Distance(metric, query, row)), Bits(out[j]))
          << label << " metric=" << MetricName(metric) << " j=" << j;
    }
  }
}

void ExpectActiveNormAssistedMatchesPlain(const std::string& label) {
  constexpr std::size_t kDim = 96, kRows = 21;
  Rng rng(123);
  Matrix m(0, kDim);
  m.EnableNormCache();
  std::vector<float> row(kDim);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& x : row) x = static_cast<float>(rng.Gaussian(0, 1));
    m.AppendRow(row);
  }
  const auto query = RandomVec(kDim, 124);
  std::vector<float> plain(kRows), assisted(kRows);
  // Cosine with stored norms is bit-identical to the plain path (the
  // norms come from the same sqnorm kernel).
  BatchDistance(Metric::kCosine, query, m.data(), kRows, kDim, plain.data());
  BatchDistanceWithNorms(Metric::kCosine, query, m.data(), m.RowNorms(),
                         kRows, kDim, assisted.data());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(Bits(plain[r]), Bits(assisted[r]))
        << label << " cosine row " << r;
  }
  // The L2 decomposition ||q-b||^2 = ||q||^2 + ||b||^2 - 2<q,b> is only
  // approximately equal to the direct kernel.
  BatchDistance(Metric::kL2, query, m.data(), kRows, kDim, plain.data());
  BatchDistanceWithNorms(Metric::kL2, query, m.data(), m.RowNorms(), kRows,
                         kDim, assisted.data());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_NEAR(plain[r], assisted[r], kRelTol * std::max(1.f, plain[r]))
        << label << " l2 row " << r;
    EXPECT_GE(assisted[r], 0.f);  // decomposition is clamped at zero
  }
  // Null norms fall back to the plain batch path exactly.
  BatchDistanceWithNorms(Metric::kL2, query, m.data(), nullptr, kRows, kDim,
                         assisted.data());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(Bits(plain[r]), Bits(assisted[r]))
        << label << " null-norms row " << r;
  }
}

// Saves + restores the active dispatch level around each test, so a failing
// assertion can't leak a pinned level into later tests.
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveSimdLevel(); }
  void TearDown() override { SetActiveSimdLevel(saved_); }

 private:
  SimdLevel saved_ = SimdLevel::kPortable;
};

TEST_F(SimdKernelsTest, PortableIsAlwaysSupported) {
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kPortable));
  EXPECT_FALSE(SimdLevelName(ActiveSimdLevel()).empty());
}

TEST_F(SimdKernelsTest, SetActiveRejectsUnsupportedLevels) {
  for (const SimdLevel lvl : {SimdLevel::kNeon, SimdLevel::kAvx2,
                              SimdLevel::kAvx512}) {
    if (SimdLevelSupported(lvl)) continue;
    const SimdLevel before = ActiveSimdLevel();
    EXPECT_FALSE(SetActiveSimdLevel(lvl));
    EXPECT_EQ(before, ActiveSimdLevel());
  }
}

TEST_F(SimdKernelsTest, AllLevelsMatchScalarReferenceAcrossDims) {
  for (const SimdLevel lvl : SupportedLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(lvl));
    ExpectActiveMatchesScalarReference(std::string(SimdLevelName(lvl)));
  }
}

TEST_F(SimdKernelsTest, ZeroVectorsAreExactAtEveryLevel) {
  for (const SimdLevel lvl : SupportedLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(lvl));
    ExpectActiveExactOnZeroVectors(std::string(SimdLevelName(lvl)));
  }
}

TEST_F(SimdKernelsTest, BatchIsBitIdenticalToSinglePairAtEveryLevel) {
  for (const SimdLevel lvl : SupportedLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(lvl));
    ExpectActiveBatchBitIdentical(std::string(SimdLevelName(lvl)));
    ExpectActiveMultiQueryBitIdentical(std::string(SimdLevelName(lvl)));
  }
}

TEST_F(SimdKernelsTest, GatherIsBitIdenticalToSinglePairAtEveryLevel) {
  for (const SimdLevel lvl : SupportedLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(lvl));
    ExpectActiveGatherBitIdentical(std::string(SimdLevelName(lvl)));
  }
}

TEST_F(SimdKernelsTest, NormAssistedBatchMatchesPlainBatch) {
  for (const SimdLevel lvl : SupportedLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(lvl));
    ExpectActiveNormAssistedMatchesPlain(std::string(SimdLevelName(lvl)));
  }
}

TEST_F(SimdKernelsTest, MatrixNormCacheTracksMutations) {
  Matrix m(0, 4);
  EXPECT_EQ(nullptr, m.RowNorms());
  m.AppendRow(std::vector<float>{1, 2, 3, 4});
  m.EnableNormCache();
  ASSERT_NE(nullptr, m.RowNorms());
  EXPECT_FLOAT_EQ(SquaredNorm(m.Row(0)), m.RowNorms()[0]);

  m.AppendRow(std::vector<float>{0, 0, 2, 0});
  ASSERT_NE(nullptr, m.RowNorms());
  EXPECT_FLOAT_EQ(4.f, m.RowNorms()[1]);

  m.SetRow(0, std::vector<float>{5, 0, 0, 0});
  EXPECT_FLOAT_EQ(25.f, m.RowNorms()[0]);

  // Handing out mutable access invalidates the cache conservatively.
  m.MutableRow(1);
  EXPECT_EQ(nullptr, m.RowNorms());
  m.EnableNormCache();
  ASSERT_NE(nullptr, m.RowNorms());
  EXPECT_FLOAT_EQ(4.f, m.RowNorms()[1]);
}

// Flat top-k results must be identical at every level — the "fused batch
// path never changes search results" guarantee the indexes rely on.
TEST_F(SimdKernelsTest, FlatIndexTopKIdenticalAcrossLevelsAndRoutings) {
  constexpr std::size_t kDim = 33, kCount = 500, kK = 10;
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    FlatIndexOptions opts;
    opts.metric = metric;
    FlatIndex index(kDim, opts);
    Rng rng(7);
    std::vector<float> v(kDim);
    for (std::size_t i = 0; i < kCount; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
      index.Add(v);
    }
    const auto query = RandomVec(kDim, 8);

    ASSERT_TRUE(SetActiveSimdLevel(SimdLevel::kPortable));
    const auto expected = index.Search(query, kK);
    ASSERT_EQ(kK, expected.size());

    for (const SimdLevel lvl : SupportedLevels()) {
      ASSERT_TRUE(SetActiveSimdLevel(lvl));
      const auto got = index.Search(query, kK);
      ASSERT_EQ(expected.size(), got.size()) << SimdLevelName(lvl);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].id, got[i].id)
            << "level=" << SimdLevelName(lvl) << " metric="
            << MetricName(metric) << " rank=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// simd_lanes.h at four lanes, instantiated in this object (baseline flags,
// internal linkage) and installed as the active table, so the public entry
// points and CompressedStore run it exactly as they run a dispatched level.
// ---------------------------------------------------------------------------

constexpr detail::KernelTable kFourLanes = detail::MakeKernelTable<4>();

class FourLaneKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = detail::ExchangeActiveKernelTable(&kFourLanes);
  }
  void TearDown() override { detail::ExchangeActiveKernelTable(saved_); }

 private:
  const detail::KernelTable* saved_ = nullptr;
};

TEST_F(FourLaneKernelsTest, MatchesScalarReferenceAcrossDims) {
  ExpectActiveMatchesScalarReference("four lanes");
  ExpectActiveExactOnZeroVectors("four lanes");
}

TEST_F(FourLaneKernelsTest, BatchGatherAndNormsAreBitIdenticalToSinglePair) {
  ExpectActiveBatchBitIdentical("four lanes");
  ExpectActiveMultiQueryBitIdentical("four lanes");
  ExpectActiveGatherBitIdentical("four lanes");
  ExpectActiveNormAssistedMatchesPlain("four lanes");
}

// quant_test's parity tolerance against the portable quantized kernels,
// both layouts and all metrics, at 768-d and at dims with code tails.
TEST_F(FourLaneKernelsTest, QuantizedMatchesPortable) {
  constexpr std::size_t kRows = 24;
  const std::vector<std::uint32_t> gather_ids = {23, 0, 17, 5, 5};
  for (const std::size_t dim : {768u, 33u, 100u}) {
    Rng rng(31 + dim);
    std::vector<float> row(dim);
    for (const StorageLayout layout :
         {StorageLayout::kSq8, StorageLayout::kSq4}) {
      CompressedStore store(dim, layout);
      for (std::size_t r = 0; r < kRows; ++r) {
        for (auto& x : row) x = static_cast<float>(rng.Gaussian(0, 1));
        store.AppendRow(row);
      }
      const auto query = RandomVec(dim, 32 + dim);
      for (const Metric metric :
           {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
        SCOPED_TRACE(testing::Message()
                     << StorageLayoutName(layout) << " "
                     << MetricName(metric) << " dim=" << dim);
        std::vector<float> ref(kRows), got(kRows);
        detail::ExchangeActiveKernelTable(&detail::kPortableTable);
        store.Scan(metric, query, ref.data());
        detail::ExchangeActiveKernelTable(&kFourLanes);
        store.Scan(metric, query, got.data());
        for (std::size_t r = 0; r < kRows; ++r) {
          EXPECT_NEAR(got[r], ref[r], 1e-3f * (1.f + std::abs(ref[r])))
              << "row " << r;
        }
        std::vector<float> gathered(gather_ids.size());
        store.GatherScan(metric, query, gather_ids.data(), gather_ids.size(),
                         gathered.data());
        for (std::size_t j = 0; j < gather_ids.size(); ++j) {
          EXPECT_EQ(Bits(got[gather_ids[j]]), Bits(gathered[j]))
              << "gather " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace proximity
