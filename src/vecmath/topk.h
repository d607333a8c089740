// Bounded top-k selection over (id, distance) streams.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "vecmath/metric.h"

namespace proximity {

/// Max-heap of the k closest neighbors seen so far.
///
/// Push is O(log k) and only allocates up front; Take() returns neighbors
/// sorted ascending by distance (ties by id) — the "ranked list of indices"
/// contract from §2.2 of the paper.
class TopK {
 public:
  explicit TopK(std::size_t k);

  std::size_t capacity() const noexcept { return k_; }
  std::size_t size() const noexcept { return heap_.size(); }
  bool full() const noexcept { return heap_.size() == k_; }

  /// The largest (worst) distance currently kept; +inf while not full.
  float WorstDistance() const noexcept;

  /// Considers a candidate; keeps it iff it beats the current worst.
  void Push(VectorId id, float distance) noexcept;

  /// Returns the kept neighbors sorted closest-first and clears the heap.
  std::vector<Neighbor> Take();

  /// Sorted copy without clearing.
  std::vector<Neighbor> Sorted() const;

 private:
  std::size_t k_;
  std::vector<Neighbor> heap_;  // max-heap by (distance, id)
};

/// Selects the k closest rows of a contiguous row-major block for each of
/// `nq` queries (row-major, `dim` floats apart): one sorted list per
/// query. `base` holds `count` vectors of dimension `dim`; returned ids are
/// base_id + row. Rows run through BatchDistanceMulti tile by tile, and
/// with several queries a tile stays in L2 while every query scans it, so
/// each row is read from memory once per call. Each query's list is the
/// one the query gets alone. `row_norms` (per-row squared norms, e.g.
/// Matrix::RowNorms()) enables the pre-normalized cosine path; L2 and
/// inner product ignore it.
std::vector<std::vector<Neighbor>> SelectTopK(
    Metric metric, const float* queries, std::size_t nq, const float* base,
    std::size_t count, std::size_t dim, std::size_t k, VectorId base_id = 0,
    const float* row_norms = nullptr);

/// The one-query case of the above.
std::vector<Neighbor> SelectTopK(Metric metric, std::span<const float> query,
                                 const float* base, std::size_t count,
                                 std::size_t dim, std::size_t k,
                                 VectorId base_id = 0,
                                 const float* row_norms = nullptr);

}  // namespace proximity
