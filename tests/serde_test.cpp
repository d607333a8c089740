// Tests for the binary persistence layer: primitive round-trips, index
// and cache snapshots, and corruption detection.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "common/serde.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/index_io.h"
#include "index/ivf_flat_index.h"
#include "index/mutable_index.h"

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

// Recomputes a snapshot's FNV-1a trailer (serde.h) over its payload, so
// the loader sees intact bytes whatever an edit put in them.
std::string Reseal(std::string snapshot) {
  const std::size_t payload = snapshot.size() - sizeof(std::uint64_t);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < payload; ++i) {
    h ^= static_cast<unsigned char>(snapshot[i]);
    h *= 1099511628211ULL;
  }
  std::memcpy(snapshot.data() + payload, &h, sizeof(h));
  return snapshot;
}

// Overwrites the u32 at byte `offset` of a snapshot and re-seals it, so
// the loader sees intact bytes that carry a value this build may not
// know (or an id past the end of the index).
std::string PatchU32(std::string snapshot, std::size_t offset,
                     std::uint32_t value) {
  std::memcpy(snapshot.data() + offset, &value, sizeof(value));
  return Reseal(std::move(snapshot));
}

std::uint32_t U32At(const std::string& snapshot, std::size_t offset) {
  std::uint32_t value = 0;
  std::memcpy(&value, snapshot.data() + offset, sizeof(value));
  return value;
}

template <typename Index>
std::string Snapshot(const Index& index) {
  std::stringstream ss;
  index.SaveTo(ss);
  return ss.str();
}

// Loads `snapshot` through the magic-dispatching loader.
std::unique_ptr<VectorIndex> LoadBytes(const std::string& snapshot) {
  std::stringstream ss(snapshot);
  return LoadIndex(ss);
}

std::vector<float> RandomVec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0, 1));
  return v;
}

// ----------------------------------------------------------- Primitives --

TEST(SerdeTest, PrimitiveRoundTrip) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.WriteU32(0xdeadbeef);
    w.WriteU64(1ULL << 62);
    w.WriteI64(-42);
    w.WriteF32(3.25f);
    w.WriteF64(-1e100);
    w.WriteString("hello");
    w.WriteFloats(std::vector<float>{1, 2, 3});
    w.WriteI64s(std::vector<std::int64_t>{-1, 0, 7});
    w.WriteU8s(std::vector<std::uint8_t>{9, 8});
    w.WriteU32s(std::vector<std::uint32_t>{5});
    w.Finish();
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeef);
  EXPECT_EQ(r.ReadU64(), 1ULL << 62);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.ReadF64(), -1e100);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloats(), (std::vector<float>{1, 2, 3}));
  EXPECT_EQ(r.ReadI64s(), (std::vector<std::int64_t>{-1, 0, 7}));
  EXPECT_EQ(r.ReadU8s(), (std::vector<std::uint8_t>{9, 8}));
  EXPECT_EQ(r.ReadU32s(), (std::vector<std::uint32_t>{5}));
  EXPECT_NO_THROW(r.VerifyChecksum());
}

TEST(SerdeTest, ChecksumDetectsCorruption) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.WriteString("important payload");
    w.Finish();
  }
  std::string buf = ss.str();
  buf[10] ^= 0x01;  // flip one payload bit
  std::stringstream corrupted(buf);
  BinaryReader r(corrupted);
  (void)r.ReadString();
  EXPECT_THROW(r.VerifyChecksum(), std::runtime_error);
}

TEST(SerdeTest, TruncationDetected) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.WriteFloats(std::vector<float>(100, 1.f));
    w.Finish();
  }
  std::stringstream truncated(ss.str().substr(0, 50));
  BinaryReader r(truncated);
  EXPECT_THROW((void)r.ReadFloats(), std::runtime_error);
}

TEST(SerdeTest, HeaderValidation) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    WriteHeader(w, 0x1234, 3);
    w.Finish();
  }
  {
    std::stringstream copy(ss.str());
    BinaryReader r(copy);
    EXPECT_EQ(ReadHeader(r, 0x1234, 5), 3u);
  }
  {
    std::stringstream copy(ss.str());
    BinaryReader r(copy);
    EXPECT_THROW(ReadHeader(r, 0x9999, 5), std::runtime_error);
  }
  {
    std::stringstream copy(ss.str());
    BinaryReader r(copy);
    EXPECT_THROW(ReadHeader(r, 0x1234, 2), std::runtime_error);  // too new
  }
}

TEST(SerdeTest, MatrixRoundTrip) {
  const Matrix m = RandomMatrix(17, 5, 1);
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    WriteMatrix(w, m);
    w.Finish();
  }
  BinaryReader r(ss);
  const Matrix back = ReadMatrix(r);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.dim(), m.dim());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.dim(); ++j) {
      EXPECT_FLOAT_EQ(back.Row(i)[j], m.Row(i)[j]);
    }
  }
}

// ---------------------------------------------------------- Index round --

TEST(IndexIoTest, FlatRoundTripPreservesSearch) {
  FlatIndex index(16, {.metric = Metric::kCosine});
  index.AddBatch(RandomMatrix(200, 16, 2));
  std::stringstream ss;
  index.SaveTo(ss);
  const FlatIndex back = FlatIndex::LoadFrom(ss);
  EXPECT_EQ(back.size(), index.size());
  EXPECT_EQ(back.metric(), Metric::kCosine);
  const auto q = RandomVec(16, 100);
  EXPECT_EQ(back.Search(q, 10), index.Search(q, 10));
}

TEST(IndexIoTest, FlatUnknownMetricRejected) {
  FlatIndex index(4);
  index.Add(RandomVec(4, 1));
  std::stringstream ss;
  index.SaveTo(ss);
  const std::string snapshot = ss.str();
  // [magic u32][version u32][metric u32]...
  constexpr std::size_t kMetricOffset = 8;
  ASSERT_EQ(PatchU32(snapshot, kMetricOffset, 0), snapshot);  // L2 is 0
  std::stringstream unknown(PatchU32(snapshot, kMetricOffset, 7));
  EXPECT_THROW(FlatIndex::LoadFrom(unknown), std::runtime_error);
}

TEST(IndexIoTest, HnswRoundTripPreservesGraphAndSearch) {
  HnswIndex index(8, {.M = 8, .ef_construction = 64, .seed = 3});
  index.AddBatch(RandomMatrix(500, 8, 3));
  std::stringstream ss;
  index.SaveTo(ss);
  const auto back = HnswIndex::LoadFrom(ss);
  EXPECT_EQ(back->size(), index.size());
  EXPECT_EQ(back->max_level(), index.max_level());
  for (VectorId id = 0; id < 500; id += 37) {
    EXPECT_EQ(back->NodeLevel(id), index.NodeLevel(id));
    EXPECT_EQ(back->Links(id, 0), index.Links(id, 0));
  }
  const auto q = RandomVec(8, 101);
  EXPECT_EQ(back->Search(q, 10), index.Search(q, 10));
}

TEST(IndexIoTest, HnswInsertsResumeIdenticallyAfterLoad) {
  // The saved RNG state must make post-load inserts identical to an
  // uninterrupted build.
  const Matrix first = RandomMatrix(200, 8, 4);
  const Matrix second = RandomMatrix(50, 8, 5);

  HnswIndex continuous(8, {.seed = 7});
  continuous.AddBatch(first);
  std::stringstream ss;
  continuous.SaveTo(ss);
  continuous.AddBatch(second);

  const auto resumed = HnswIndex::LoadFrom(ss);
  resumed->AddBatch(second);

  const auto q = RandomVec(8, 102);
  EXPECT_EQ(resumed->Search(q, 10), continuous.Search(q, 10));
}

TEST(IndexIoTest, IvfFlatRoundTrip) {
  const Matrix corpus = RandomMatrix(600, 8, 6);
  IvfFlatIndex index(8, {.nlist = 8, .nprobe = 3, .seed = 11});
  index.Train(corpus);
  index.AddBatch(corpus);
  std::stringstream ss;
  index.SaveTo(ss);
  const IvfFlatIndex back = IvfFlatIndex::LoadFrom(ss);
  EXPECT_EQ(back.size(), index.size());
  EXPECT_EQ(back.nprobe(), 3u);
  const auto q = RandomVec(8, 103);
  EXPECT_EQ(back.Search(q, 10), index.Search(q, 10));
}

TEST(IndexIoTest, LoadIndexDispatchesByMagic) {
  const Matrix corpus = RandomMatrix(100, 8, 9);
  FlatIndex flat(8);
  flat.AddBatch(corpus);
  HnswIndex hnsw(8);
  hnsw.AddBatch(corpus);

  for (const VectorIndex* index :
       std::initializer_list<const VectorIndex*>{&flat, &hnsw}) {
    std::stringstream ss;
    index->SaveTo(ss);
    const auto back = LoadIndex(ss);
    EXPECT_EQ(back->size(), 100u);
    const auto q = RandomVec(8, 106);
    EXPECT_EQ(back->Search(q, 5), index->Search(q, 5));
  }
}

TEST(IndexIoTest, LoadIndexRejectsGarbage) {
  std::stringstream ss("this is not an index file at all");
  EXPECT_THROW(LoadIndex(ss), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(LoadIndex(empty), std::runtime_error);
}

// A snapshot of a retired artifact must fail with an error that names
// it, not as an unknown file.
TEST(IndexIoTest, RetiredSnapshotsFailByName) {
  for (const auto& [magic, name] :
       {std::pair{0x51504950u, "ivf_pq"}, std::pair{0x58515050u, "pq"}}) {
    std::string bytes(16, '\0');  // "PIPQ" / "PPQX" tag, then zeros
    std::memcpy(bytes.data(), &magic, sizeof(magic));
    try {
      LoadBytes(bytes);
      ADD_FAILURE() << name << " snapshot loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(name) + " snapshots are retired"),
                std::string::npos)
          << what;
    }
  }
}

// A checksummed v2 snapshot can carry a storage layout this build does
// not know. Each loader must reject it as corrupt input (runtime_error),
// not let CompressedStore's invalid_argument escape.
TEST(IndexIoTest, UnknownStorageLayoutRejected) {
  const Matrix corpus = RandomMatrix(64, 8, 13);

  FlatIndex flat(8, {.storage = StorageLayout::kSq8});
  flat.AddBatch(corpus);
  // [magic][version][metric u32][retired u64][storage u32]
  const std::string flat_bytes = Snapshot(flat);
  ASSERT_EQ(U32At(flat_bytes, 4), 2u);
  ASSERT_EQ(U32At(flat_bytes, 20), 1u);  // sq8
  EXPECT_THROW(LoadBytes(PatchU32(flat_bytes, 20, 7)), std::runtime_error);

  IvfFlatIndex ivf(8, {.nlist = 4, .storage = StorageLayout::kSq8});
  ivf.Train(corpus);
  ivf.AddBatch(corpus);
  // [magic][version][dim u64][metric u32][nlist][nprobe][seed][storage u32]
  const std::string ivf_bytes = Snapshot(ivf);
  ASSERT_EQ(U32At(ivf_bytes, 4), 2u);
  ASSERT_EQ(U32At(ivf_bytes, 44), 1u);
  EXPECT_THROW(LoadBytes(PatchU32(ivf_bytes, 44, 7)), std::runtime_error);

  HnswIndex hnsw(8, {.storage = StorageLayout::kSq8});
  hnsw.AddBatch(corpus);
  // [magic][version][metric u32][M][efc][efs][seed][storage u32]
  const std::string hnsw_bytes = Snapshot(hnsw);
  ASSERT_EQ(U32At(hnsw_bytes, 4), 2u);
  ASSERT_EQ(U32At(hnsw_bytes, 44), 1u);
  EXPECT_THROW(LoadBytes(PatchU32(hnsw_bytes, 44, 7)), std::runtime_error);
}

// A flat snapshot keeps the u64 slot of the retired scan-split threshold:
// written as 0 and ignored on load. Every default index saved before the
// threshold's retirement wrote 65536 there; such a file loads and
// searches as it did, at either version.
TEST(IndexIoTest, FlatRetiredThresholdSlotIgnored) {
  const Matrix corpus = RandomMatrix(300, 8, 15);
  const Matrix queries = RandomMatrix(4, 8, 16);
  for (const StorageLayout storage :
       {StorageLayout::kFloat32, StorageLayout::kSq8}) {
    FlatIndex flat(8, {.storage = storage});
    flat.AddBatch(corpus);
    // [magic][version][metric u32][retired u64]...
    constexpr std::size_t kSlotOffset = 12;
    const std::string bytes = Snapshot(flat);
    ASSERT_EQ(PatchU32(bytes, kSlotOffset, 0), bytes);
    ASSERT_EQ(PatchU32(bytes, kSlotOffset + 4, 0), bytes);
    // 65536 fits the slot's low word; the high word stays 0.
    const auto loaded = LoadBytes(PatchU32(bytes, kSlotOffset, 65536));
    ASSERT_EQ(loaded->size(), corpus.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      EXPECT_EQ(loaded->Search(queries.Row(q), 10),
                flat.Search(queries.Row(q), 10));
    }
    EXPECT_EQ(Snapshot(*loaded), bytes);  // re-saves the slot as 0
  }
}

// Every HNSW search starts at the stored entry point, so an id past the
// graph must not load.
TEST(IndexIoTest, HnswEntryPointOutOfRangeRejected) {
  HnswIndex index(8);
  index.AddBatch(RandomMatrix(50, 8, 14));
  // v1: [magic][version][metric u32][M][efc][efs][seed][rng u64]
  //     [entry u32][max_level i64]...
  const std::string bytes = Snapshot(index);
  constexpr std::size_t kEntryOffset = 52;
  ASSERT_LT(U32At(bytes, kEntryOffset), 50u);
  ASSERT_EQ(U32At(bytes, kEntryOffset + 4),
            static_cast<std::uint32_t>(index.max_level()));
  EXPECT_NO_THROW(LoadBytes(bytes));
  EXPECT_THROW(LoadBytes(PatchU32(bytes, kEntryOffset, 5000)),
               std::runtime_error);
  // An entry on a lower level than the stored max_level is as bad: the
  // descent would index levels that node does not have.
  for (VectorId id = 0; id < 50; ++id) {
    if (index.NodeLevel(id) < index.max_level()) {
      EXPECT_THROW(LoadBytes(PatchU32(bytes, kEntryOffset,
                                      static_cast<std::uint32_t>(id))),
                   std::runtime_error);
      break;
    }
  }
}

// The mutable graph's slot ids index its rows, live flags and edge lists;
// a checksummed snapshot carrying one past the arena must not load.
TEST(IndexIoTest, MutableOutOfRangeIdsRejected) {
  constexpr std::size_t kSlots = 50, kDim = 4;
  MutableGraphIndex index(kDim, {.max_degree = 8});
  index.AddBatch(RandomMatrix(kSlots, kDim, 15));
  ASSERT_TRUE(index.Delete(3));
  ASSERT_EQ(index.Consolidate(), 1u);  // slot 3 goes on the free list
  const std::string bytes = Snapshot(index);
  EXPECT_NO_THROW(LoadBytes(bytes));

  // [magic][version][metric u32][degree][build][search][alpha f32][seed]
  // [long_edges][chunk] = 64 bytes, then the row matrix (dim, rows,
  // count, floats), live_ (count, bytes), free_slots_ (count, u32s),
  // adjacency (count, per slot: count, u32s), long links (same shape),
  // entry u32, then tombstones, generation, rng state and the trailer.
  const std::size_t live_at = 64 + 24 + kSlots * kDim * sizeof(float);
  const std::size_t free_at = live_at + 8 + kSlots;
  ASSERT_EQ(U32At(bytes, live_at), kSlots);
  ASSERT_EQ(U32At(bytes, free_at), 1u);
  ASSERT_EQ(U32At(bytes, free_at + 8), 3u);
  const std::size_t adj_at = free_at + 8 + 4;
  ASSERT_EQ(U32At(bytes, adj_at), kSlots);
  std::size_t links_at = adj_at + 8;
  for (VectorId id = 0; id < static_cast<VectorId>(kSlots); ++id) {
    links_at += 8 + 4 * index.OutNeighbors(id).size();
  }
  ASSERT_EQ(U32At(bytes, links_at), kSlots);
  // Slot 0 was inserted into an empty graph, so it has no long links;
  // slot 1 has exactly one, back to slot 0.
  ASSERT_EQ(U32At(bytes, links_at + 8), 0u);
  ASSERT_EQ(U32At(bytes, links_at + 16), 1u);
  ASSERT_EQ(U32At(bytes, links_at + 24), 0u);
  ASSERT_FALSE(index.OutNeighbors(0).empty());
  const std::size_t entry_at = bytes.size() - 8 - 3 * 8 - 4;

  EXPECT_THROW(LoadBytes(PatchU32(bytes, entry_at, 5000)), std::runtime_error)
      << "entry point";
  EXPECT_THROW(LoadBytes(PatchU32(bytes, free_at + 8, kSlots)),
               std::runtime_error)
      << "free slot";
  EXPECT_THROW(LoadBytes(PatchU32(bytes, adj_at + 16, kSlots)),
               std::runtime_error)
      << "adjacency";
  EXPECT_THROW(LoadBytes(PatchU32(bytes, links_at + 24, kSlots)),
               std::runtime_error)
      << "long link";
  // One live flag short of the slot count, otherwise well-formed.
  std::string short_live = bytes;
  short_live.erase(live_at + 8, 1);
  EXPECT_THROW(LoadBytes(PatchU32(short_live, live_at, kSlots - 1)),
               std::runtime_error)
      << "live flags";
}

TEST(IndexIoTest, FileRoundTrip) {
  FlatIndex index(4);
  index.AddBatch(RandomMatrix(20, 4, 10));
  const std::string path = ::testing::TempDir() + "/proximity_flat.bin";
  SaveIndexToFile(index, path);
  const auto back = LoadIndexFromFile(path);
  EXPECT_EQ(back->size(), 20u);
  EXPECT_THROW(LoadIndexFromFile("/nonexistent/dir/x.bin"),
               std::runtime_error);
}

TEST(IndexIoTest, UntrainedIndexRefusesToSave) {
  IvfFlatIndex index(8);
  std::stringstream ss;
  EXPECT_THROW(index.SaveTo(ss), std::logic_error);
}

// ---------------------------------------------------------- Cache round --

TEST(CacheIoTest, RoundTripPreservesEntriesAndOptions) {
  ApproxCacheOptions opts;
  opts.capacity = 8;
  opts.tolerance = 2.5f;
  opts.metric = Metric::kCosine;
  opts.eviction = EvictionKind::kLru;
  ProximityCache cache(4, opts);
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    std::vector<float> key(4);
    for (auto& x : key) x = static_cast<float>(rng.Gaussian(0, 1));
    cache.Insert(key, {i, i + 100});
  }

  std::stringstream ss;
  cache.SaveTo(ss);
  ProximityCache back(4, {.metric = Metric::kCosine});
  back.LoadFrom(ss);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_EQ(back.capacity(), 8u);
  EXPECT_FLOAT_EQ(back.tolerance(), 2.5f);
  EXPECT_EQ(back.metric(), Metric::kCosine);
  EXPECT_EQ(back.eviction(), EvictionKind::kLru);
  EXPECT_EQ(back.stats().insertions, 0u);  // reconstruction is not usage
  for (std::size_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(back.ValueAt(slot)[0], cache.ValueAt(slot)[0]);
    EXPECT_FLOAT_EQ(back.KeyAt(slot)[0], cache.KeyAt(slot)[0]);
  }
  // A lookup that hit before still hits after.
  EXPECT_TRUE(back.Lookup(cache.KeyAt(0)).hit);
}

// A snapshot restores only into a cache of its own dimension and metric
// (both fixed by the index the cache fronts); a refused load leaves the
// target cache as it was.
TEST(CacheIoTest, LoadIntoMismatchedCacheRejected) {
  ProximityCache cache(4, {});
  cache.Insert(std::vector<float>{1, 2, 3, 4}, {1});
  std::stringstream ss;
  cache.SaveTo(ss);
  const std::string snapshot = ss.str();

  ProximityCache wider(8, {});
  wider.Insert(std::vector<float>(8, 0.5f), {9});
  std::stringstream to_wider(snapshot);
  EXPECT_THROW(wider.LoadFrom(to_wider), std::runtime_error);
  EXPECT_EQ(wider.size(), 1u);

  ProximityCache cosine(4, {.metric = Metric::kCosine});
  std::stringstream to_cosine(snapshot);
  EXPECT_THROW(cosine.LoadFrom(to_cosine), std::runtime_error);
  EXPECT_EQ(cosine.size(), 0u);

  ProximityCache same(4, {});
  std::stringstream to_same(snapshot);
  same.LoadFrom(to_same);
  EXPECT_TRUE(same.Lookup(std::vector<float>{1, 2, 3, 4}).hit);
}

TEST(CacheIoTest, CorruptSnapshotRejected) {
  ProximityCache cache(4, {});
  cache.Insert(std::vector<float>{1, 2, 3, 4}, {1});
  std::stringstream ss;
  cache.SaveTo(ss);
  std::string buf = ss.str();
  buf[buf.size() / 2] ^= 0xff;
  std::stringstream corrupted(buf);
  ProximityCache back(4, {});
  EXPECT_THROW(back.LoadFrom(corrupted), std::runtime_error);
}

// A checksummed snapshot can still carry an enum value this build does
// not know. Loaded unchecked, metric 7 matched no distance kernel and
// every probe then hit slot 0 at distance 0.
TEST(CacheIoTest, UnknownEnumValuesRejected) {
  ProximityCache cache(4, {});
  cache.Insert(std::vector<float>{1, 2, 3, 4}, {1});
  std::stringstream ss;
  cache.SaveTo(ss);
  const std::string snapshot = ss.str();
  // [magic][version][dim u64][capacity u64][tolerance f32][metric u32]
  // [eviction u32]...
  constexpr std::size_t kMetricOffset = 28;
  constexpr std::size_t kEvictionOffset = 32;
  ASSERT_EQ(PatchU32(snapshot, kMetricOffset, 0), snapshot);    // L2
  ASSERT_EQ(PatchU32(snapshot, kEvictionOffset, 0), snapshot);  // FIFO

  ProximityCache back(4, {});
  std::stringstream bad_metric(PatchU32(snapshot, kMetricOffset, 7));
  EXPECT_THROW(back.LoadFrom(bad_metric), std::runtime_error);
  std::stringstream bad_eviction(PatchU32(snapshot, kEvictionOffset, 9));
  EXPECT_THROW(back.LoadFrom(bad_eviction), std::runtime_error);
}

// The cache's retired entry-age bound keeps its snapshot slot, written
// as 0. A snapshot that sets it is refused by name: loading it would
// silently drop the bound its entries were saved under.
TEST(CacheIoTest, RetiredAgeBoundRejectedByName) {
  ProximityCache cache(4, {});
  cache.Insert(std::vector<float>{1, 2, 3, 4}, {1});
  std::stringstream ss;
  cache.SaveTo(ss);
  const std::string snapshot = ss.str();
  // ...[eviction u32][seed u64][age bound u64]...
  constexpr std::size_t kAgeBoundOffset = 44;
  ASSERT_EQ(PatchU32(snapshot, kAgeBoundOffset, 0), snapshot);

  ProximityCache back(4, {});
  std::stringstream aged(PatchU32(snapshot, kAgeBoundOffset, 5));
  try {
    back.LoadFrom(aged);
    FAIL() << "a snapshot with an age bound loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_age"), std::string::npos) << what;
    EXPECT_NE(what.find("retired"), std::string::npos) << what;
  }
  EXPECT_EQ(back.size(), 0u);
}

}  // namespace
}  // namespace proximity
