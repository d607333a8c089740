#include "vecmath/topk.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "vecmath/kernels.h"

namespace proximity {

namespace {
// Max-heap ordering: the *worst* (largest distance) neighbor at the root.
struct NeighborFarther {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
};
}  // namespace

TopK::TopK(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("TopK: k must be > 0");
  heap_.reserve(k);
}

float TopK::WorstDistance() const noexcept {
  if (heap_.size() < k_) return std::numeric_limits<float>::infinity();
  return heap_.front().distance;
}

void TopK::Push(VectorId id, float distance) noexcept {
  if (heap_.size() < k_) {
    heap_.push_back({id, distance});
    std::push_heap(heap_.begin(), heap_.end(), NeighborFarther{});
    return;
  }
  const Neighbor& worst = heap_.front();
  if (distance > worst.distance ||
      (distance == worst.distance && id >= worst.id)) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), NeighborFarther{});
  heap_.back() = {id, distance};
  std::push_heap(heap_.begin(), heap_.end(), NeighborFarther{});
}

std::vector<Neighbor> TopK::Take() {
  std::sort(heap_.begin(), heap_.end(), NeighborCloser{});
  std::vector<Neighbor> out = std::move(heap_);
  heap_.clear();
  heap_.reserve(k_);
  return out;
}

std::vector<Neighbor> TopK::Sorted() const {
  std::vector<Neighbor> out = heap_;
  std::sort(out.begin(), out.end(), NeighborCloser{});
  return out;
}

std::vector<std::vector<Neighbor>> SelectTopK(
    Metric metric, const float* queries, std::size_t nq, const float* base,
    std::size_t count, std::size_t dim, std::size_t k, VectorId base_id,
    const float* row_norms) {
  // Rows per tile. A lone query streams every row once whatever the tile,
  // so its tile only bounds the distance buffer; with several queries the
  // tile's rows (kTileFloats, 192 KiB) stay in L2 while each query scans
  // them.
  constexpr std::size_t kMaxTile = 4096, kTileFloats = 48 * 1024;
  const std::size_t rows_in_l2 = kTileFloats / std::max<std::size_t>(dim, 1);
  const std::size_t tile =
      nq == 1 ? kMaxTile : std::clamp<std::size_t>(rows_in_l2, 1, kMaxTile);
  std::vector<TopK> top;  // built in place: a copy would drop the reserve
  top.reserve(nq);
  for (std::size_t j = 0; j < nq; ++j) top.emplace_back(k);
  std::vector<float> dist(nq * std::min(count, tile));
  for (std::size_t lo = 0; lo < count; lo += tile) {
    const std::size_t m = std::min(tile, count - lo);
    BatchDistanceMulti(metric, queries, nq, base + lo * dim,
                       row_norms != nullptr ? row_norms + lo : nullptr, m,
                       dim, dist.data());
    for (std::size_t j = 0; j < nq; ++j) {
      const float* d = dist.data() + j * m;
      for (std::size_t r = 0; r < m; ++r) {
        top[j].Push(base_id + static_cast<VectorId>(lo + r), d[r]);
      }
    }
  }
  std::vector<std::vector<Neighbor>> out(nq);
  for (std::size_t j = 0; j < nq; ++j) out[j] = top[j].Take();
  return out;
}

std::vector<Neighbor> SelectTopK(Metric metric, std::span<const float> query,
                                 const float* base, std::size_t count,
                                 std::size_t dim, std::size_t k,
                                 VectorId base_id, const float* row_norms) {
  return std::move(SelectTopK(metric, query.data(), 1, base, count, dim, k,
                              base_id, row_norms)[0]);
}

}  // namespace proximity
