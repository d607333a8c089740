#include "index/vector_index.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace proximity {

void VectorIndex::CheckDim(std::span<const float> v) const {
  if (v.size() != dim()) {
    throw std::invalid_argument("VectorIndex: expected dim " +
                                std::to_string(dim()) + ", got " +
                                std::to_string(v.size()));
  }
}

void VectorIndex::CheckRows(const Matrix& vectors, std::size_t lo,
                            std::size_t hi) const {
  if (vectors.dim() != dim()) {
    throw std::invalid_argument("VectorIndex::AddRows: dimension mismatch");
  }
  if (lo > hi || hi > vectors.rows()) {
    throw std::invalid_argument("VectorIndex::AddRows: rows [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + ") of " +
                                std::to_string(vectors.rows()));
  }
}

VectorId VectorIndex::AddRows(const Matrix& vectors, std::size_t lo,
                              std::size_t hi) {
  CheckRows(vectors, lo, hi);
  const VectorId first = static_cast<VectorId>(size());
  for (std::size_t r = lo; r < hi; ++r) {
    Add(vectors.Row(r));
  }
  return first;
}

VectorId VectorIndex::AddBatch(const Matrix& vectors) {
  return AddRows(vectors, 0, vectors.rows());
}

std::vector<std::vector<Neighbor>> VectorIndex::SearchBatch(
    const Matrix& queries, std::size_t k) const {
  if (queries.rows() > 0 && queries.dim() != dim()) {
    throw std::invalid_argument("VectorIndex::SearchBatch: dimension mismatch");
  }
  std::vector<std::vector<Neighbor>> results(queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    results[q] = Search(queries.Row(q), k);
  }
  return results;
}

bool VectorIndex::Delete(VectorId) {
  throw std::logic_error("VectorIndex: " + Describe() +
                         " is build-once and does not support Delete");
}

void VectorIndex::SaveTo(std::ostream&) const {
  throw std::logic_error("VectorIndex: " + Describe() +
                         " does not support serialization");
}

std::vector<Neighbor> VectorIndex::SearchFiltered(
    std::span<const float> query, std::size_t k, const Filter& filter) const {
  if (!filter) return Search(query, k);
  if (k == 0 || size() == 0) return {};

  // Over-fetch with geometric widening until k survivors are found or the
  // whole index has been requested.
  std::size_t fetch = k;
  for (;;) {
    fetch = std::min(fetch, size());
    auto candidates = Search(query, fetch);
    std::vector<Neighbor> kept;
    kept.reserve(k);
    for (const auto& n : candidates) {
      if (filter(n.id)) {
        kept.push_back(n);
        if (kept.size() == k) return kept;
      }
    }
    if (fetch >= size()) return kept;  // fewer than k matches exist
    fetch *= 4;
  }
}

}  // namespace proximity
