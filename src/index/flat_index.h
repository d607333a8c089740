// Exact brute-force index (the FAISS-FLAT stand-in used for MedRAG, §4.2).
// A search scans on its calling thread; ShardedIndex is what spreads an
// exact scan over the shared pool (DESIGN.md §8).
#pragma once

#include <cstddef>

#include "index/vector_index.h"
#include "vecmath/compressed_store.h"

namespace proximity {

struct FlatIndexOptions {
  Metric metric = Metric::kL2;
  /// Primary-scan representation (DESIGN.md §11). kFloat32 keeps the
  /// exact single-level scan; sq8/sq4 scan cache-line-blocked quantized
  /// codes first and rerank the survivors against the float rows.
  StorageLayout storage = StorageLayout::kFloat32;
  /// Over-fetch multiplier for the quantized primary scan: the
  /// compressed pass keeps rerank_factor * k candidates before the
  /// full-precision rerank. Ignored for kFloat32.
  std::size_t rerank_factor = 4;
};

class FlatIndex final : public VectorIndex {
 public:
  FlatIndex(std::size_t dim, FlatIndexOptions options = {});

  std::size_t dim() const noexcept override { return vectors_.dim(); }
  Metric metric() const noexcept override { return options_.metric; }
  std::size_t size() const noexcept override { return vectors_.rows(); }

  VectorId Add(std::span<const float> vec) override;
  /// Reserves room for the rows, then adds them through Add.
  VectorId AddRows(const Matrix& vectors, std::size_t lo,
                   std::size_t hi) override;
  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override;
  /// One scan for the whole block: every row tile is read once and run
  /// against all the queries (SelectTopK), with one top-k per query. Each
  /// list equals Search of that query alone, bit for bit. Quantized
  /// storage keeps the per-query two-level search.
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, std::size_t k) const override;
  std::string Describe() const override;

  void SaveTo(std::ostream& os) const override;
  static FlatIndex LoadFrom(std::istream& is);

  /// Direct access to a stored vector (used by tests and by IVF training).
  std::span<const float> Vector(VectorId id) const noexcept {
    return vectors_.Row(static_cast<std::size_t>(id));
  }

  const Matrix& vectors() const noexcept { return vectors_; }

  StorageLayout storage() const noexcept { return options_.storage; }
  /// The compressed primary store (empty for kFloat32); tests only.
  const CompressedStore& compressed() const noexcept { return store_; }

 private:
  bool quantized() const noexcept {
    return options_.storage != StorageLayout::kFloat32;
  }

  /// Exact float scan for `nq` queries (`dim` floats apart), one list per
  /// query.
  std::vector<std::vector<Neighbor>> ScanFloat(const float* queries,
                                               std::size_t nq,
                                               std::size_t k) const;

  FlatIndexOptions options_;
  Matrix vectors_;
  // Quantized mirror of vectors_ (primary scan representation); rows are
  // appended in lockstep with vectors_ when storage != kFloat32.
  CompressedStore store_;
};

}  // namespace proximity
