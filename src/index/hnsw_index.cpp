#include "index/hnsw_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "common/serde.h"
#include "index/index_io.h"
#include "obs/scan_stats.h"
#include "obs/span.h"
#include "vecmath/kernels.h"
#include "vecmath/topk.h"

namespace proximity {

namespace {
// Min-heap by distance for the candidate frontier.
struct NeighborFartherFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.distance > b.distance;
  }
};
// Max-heap by distance for the result set (worst on top).
struct NeighborCloserFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.distance < b.distance;
  }
};

// HNSW Algorithm 4. Visits `candidates` closest first by (distance, id)
// and keeps one only if it is closer to the base node than to every
// candidate kept before it, which spreads links across directions; then
// backfills with the closest pruned ones (keepPrunedConnections of the
// reference implementation) up to `max_links`. `pair(a, b)` is the
// distance from candidates[a] to an earlier kept candidates[b]. Returns
// positions into `candidates`, in link order.
template <class PairDistance>
std::vector<std::uint32_t> SelectDiverse(std::span<const Neighbor> candidates,
                                         std::size_t max_links,
                                         PairDistance&& pair) {
  std::vector<std::uint32_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return NeighborCloser{}(candidates[a], candidates[b]);
  });
  std::vector<std::uint32_t> chosen;
  chosen.reserve(max_links);
  for (const std::uint32_t a : order) {
    if (chosen.size() >= max_links) break;
    bool keep = true;
    for (const std::uint32_t b : chosen) {
      if (pair(a, b) < candidates[a].distance) {
        keep = false;
        break;
      }
    }
    if (keep) chosen.push_back(a);
  }
  for (const std::uint32_t a : order) {
    if (chosen.size() >= max_links) break;
    if (std::find(chosen.begin(), chosen.end(), a) == chosen.end()) {
      chosen.push_back(a);
    }
  }
  return chosen;
}

// Position of the unordered pair {a, b}, a != b, in a triangle over list
// positions: the pairs of position j take [j(j-1)/2, j(j+1)/2), so the
// triangle over n positions is a prefix of the one over n + 1.
std::size_t PairSlot(std::uint32_t a, std::uint32_t b) noexcept {
  if (a < b) std::swap(a, b);
  return std::size_t{a} * (a - 1) / 2 + b;
}

std::size_t PairCount(std::size_t n) noexcept { return n * (n - 1) / 2; }

constexpr float kNotComputed = std::numeric_limits<float>::quiet_NaN();
}  // namespace

// What AddRows remembers for each node it adds (see memo_). Exact by
// construction (DESIGN.md §5): every stored float is what the kernel
// returned for that pair, read where the Add loop would call the kernel.
// The pair direction needs no key: within one node the heuristic always
// measures the later of two links (by the fixed (distance, id) order)
// from the earlier, so even cosine, whose kernel is not symmetric by
// construction, reads back the direction it wrote.
struct HnswIndex::BuildMemo {
  struct Node {
    // dist[i] = Dist(node, links_[node][0][i]), the key ShrinkLinks sorts
    // by. Grows with the list and is rewritten with it.
    std::vector<float> dist;
    // PairDist between list positions (PairSlot), kNotComputed until the
    // heuristic needs it; sized at the node's first shrink.
    std::vector<float> pairs;
  };
  NodeId first = 0;         // nodes[i] belongs to node first + i
  std::vector<Node> nodes;
  // The remapped triangle, swapped with a node's. Reserved for a full
  // list plus one, so the buffers passed around never grow.
  std::vector<float> next;

  Node* Find(NodeId node) noexcept {
    return node >= first ? &nodes[node - first] : nullptr;
  }
};

HnswIndex::HnswIndex(std::size_t dim, HnswOptions options)
    : options_(options),
      vectors_(0, dim),
      level_rng_state_(SplitMix64(options.seed ^ 0x68e5737744a1fULL)),
      level_mult_(1.0 / std::log(static_cast<double>(options.M))) {
  if (options_.M < 2) throw std::invalid_argument("HnswIndex: M must be >= 2");
  if (options_.ef_construction < options_.M) {
    options_.ef_construction = options_.M;
  }
  if (quantized()) store_ = CompressedStore(dim, options_.storage);
}

HnswIndex::~HnswIndex() = default;

float HnswIndex::Dist(std::span<const float> a, NodeId b) const noexcept {
  return Distance(options_.metric, a, vectors_.Row(b));
}

float HnswIndex::TraversalDist(std::span<const float> query, NodeId b) const {
  return quantized() ? store_.RowDistance(options_.metric, query, b)
                     : Dist(query, b);
}

void HnswIndex::ExpandDistances(std::span<const float> query,
                                const NodeId* ids, std::size_t count,
                                float* out) const {
  if (quantized()) {
    store_.GatherScan(options_.metric, query, ids, count, out);
    obs::ScanPrimaryBytes(count * store_.block_stride());
  } else {
    GatherDistance(options_.metric, query, vectors_.data(), vectors_.dim(),
                   ids, count, out);
  }
}

std::pair<std::vector<std::uint32_t>*, std::uint32_t>
HnswIndex::AcquireVisited() const {
  std::lock_guard lock(visited_mu_);
  ++visited_epoch_;
  if (visited_epoch_ == 0) {
    for (auto& v : visited_pool_) std::fill(v->begin(), v->end(), 0u);
    visited_epoch_ = 1;
  }
  std::vector<std::uint32_t>* v;
  if (!visited_pool_.empty()) {
    v = visited_pool_.back().release();
    visited_pool_.pop_back();
  } else {
    v = new std::vector<std::uint32_t>();
  }
  if (v->size() < vectors_.rows()) v->resize(vectors_.rows(), 0u);
  return {v, visited_epoch_};
}

void HnswIndex::ReleaseVisited(std::vector<std::uint32_t>* v) const {
  std::lock_guard lock(visited_mu_);
  visited_pool_.emplace_back(v);
}

void HnswIndex::GreedyStep(std::span<const float> query, NodeId& entry,
                           float& entry_dist, int level) const {
  std::vector<float> dist;
  bool improved = true;
  while (improved) {
    improved = false;
    const auto& nbrs = links_[entry][static_cast<std::size_t>(level)];
    if (nbrs.empty()) return;
    // One fused gather per hop instead of a scalar distance per neighbor.
    dist.resize(nbrs.size());
    ExpandDistances(query, nbrs.data(), nbrs.size(), dist.data());
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (dist[j] < entry_dist) {
        entry_dist = dist[j];
        entry = nbrs[j];
        improved = true;
      }
    }
  }
}

std::vector<Neighbor> HnswIndex::SearchLayer(
    std::span<const float> query, NodeId entry, float entry_dist,
    std::size_t ef, int level, std::vector<std::uint32_t>& visited,
    std::uint32_t epoch) const {
  std::vector<Neighbor> frontier;   // min-heap: closest candidate first
  std::vector<Neighbor> results;    // max-heap: worst result first
  std::vector<NodeId> fresh;        // unvisited neighbors of the popped node
  std::vector<float> fresh_dist;

  visited[entry] = epoch;
  frontier.push_back({static_cast<VectorId>(entry), entry_dist});
  results.push_back({static_cast<VectorId>(entry), entry_dist});

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), NeighborFartherFirst{});
    const Neighbor cur = frontier.back();
    frontier.pop_back();

    if (results.size() >= ef && cur.distance > results.front().distance) {
      break;  // closest unexplored candidate is worse than the worst result
    }

    // Expansion is the hot loop of HNSW search: collect the unvisited
    // neighbors first, then compute their distances in one fused gather
    // (prefetched, bit-identical to the per-neighbor kernel).
    const auto& nbrs =
        links_[static_cast<std::size_t>(cur.id)][static_cast<std::size_t>(
            level)];
    fresh.clear();
    for (NodeId nb : nbrs) {
      if (visited[nb] == epoch) continue;
      visited[nb] = epoch;
      fresh.push_back(nb);
    }
    if (fresh.empty()) continue;
    fresh_dist.resize(fresh.size());
    ExpandDistances(query, fresh.data(), fresh.size(), fresh_dist.data());
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      const NodeId nb = fresh[j];
      const float d = fresh_dist[j];
      if (results.size() < ef || d < results.front().distance) {
        frontier.push_back({static_cast<VectorId>(nb), d});
        std::push_heap(frontier.begin(), frontier.end(),
                       NeighborFartherFirst{});
        results.push_back({static_cast<VectorId>(nb), d});
        std::push_heap(results.begin(), results.end(), NeighborCloserFirst{});
        if (results.size() > ef) {
          std::pop_heap(results.begin(), results.end(), NeighborCloserFirst{});
          results.pop_back();
        }
      }
    }
  }
  return results;
}

void HnswIndex::ShrinkLinks(NodeId node, int level) {
  auto& list = links_[node][static_cast<std::size_t>(level)];
  const std::size_t max_links = MaxLinksFor(level);
  if (list.size() <= max_links) return;
  BuildMemo::Node* memo = level == 0 && memo_ ? memo_->Find(node) : nullptr;
  const auto node_vec = vectors_.Row(node);
  std::vector<Neighbor> candidates;
  candidates.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    candidates.push_back({static_cast<VectorId>(list[i]),
                          memo ? memo->dist[i] : Dist(node_vec, list[i])});
  }
  auto link = [&](std::uint32_t i) {
    return static_cast<NodeId>(candidates[i].id);
  };
  if (memo) memo->pairs.resize(PairCount(list.size()), kNotComputed);
  const auto chosen = SelectDiverse(
      candidates, max_links, [&](std::uint32_t a, std::uint32_t b) {
        if (!memo) return PairDist(link(a), link(b));
        float& d = memo->pairs[PairSlot(a, b)];
        if (std::isnan(d)) d = PairDist(link(a), link(b));
        return d;
      });

  list.resize(chosen.size());
  for (std::size_t p = 0; p < chosen.size(); ++p) list[p] = link(chosen[p]);
  if (!memo) return;
  // Position p of the new list is position chosen[p] of the old one.
  memo->dist.resize(chosen.size());
  for (std::size_t p = 0; p < chosen.size(); ++p) {
    memo->dist[p] = candidates[chosen[p]].distance;
  }
  auto& next = memo_->next;
  next.resize(PairCount(chosen.size()));
  for (std::uint32_t q = 1; q < chosen.size(); ++q) {
    for (std::uint32_t p = 0; p < q; ++p) {
      next[PairSlot(q, p)] = memo->pairs[PairSlot(chosen[q], chosen[p])];
    }
  }
  memo->pairs.swap(next);
}

VectorId HnswIndex::Add(std::span<const float> vec) {
  CheckDim(vec);
  const NodeId id = static_cast<NodeId>(vectors_.rows());
  vectors_.AppendRow(vec);
  // Quantized traversal mirror; the float row stays authoritative for
  // neighbor selection and the final rerank.
  if (quantized()) store_.AppendRow(vec);

  // Geometric level assignment: floor(-ln(U) * mult).
  level_rng_state_ = SplitMix64(level_rng_state_);
  const double u =
      (static_cast<double>(level_rng_state_ >> 11) + 0.5) * 0x1.0p-53;
  const int level = static_cast<int>(-std::log(u) * level_mult_);

  levels_.push_back(level);
  links_.emplace_back(static_cast<std::size_t>(level) + 1);

  if (max_level_ < 0) {  // first node
    entry_point_ = id;
    max_level_ = level;
    return static_cast<VectorId>(id);
  }

  const auto query = vectors_.Row(id);
  NodeId cur = entry_point_;
  float cur_dist = TraversalDist(query, cur);

  // Greedy descent through layers above the new node's level.
  for (int l = max_level_; l > level; --l) {
    GreedyStep(query, cur, cur_dist, l);
  }

  auto [visited, epoch0] = AcquireVisited();
  std::uint32_t epoch = epoch0;

  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates = SearchLayer(query, cur, cur_dist,
                                  options_.ef_construction, l, *visited,
                                  epoch);
    // Each layer needs a fresh visited epoch; bump locally (safe: epochs are
    // only compared for equality within this search).
    {
      std::lock_guard lock(visited_mu_);
      epoch = ++visited_epoch_;
      if (visited_epoch_ == 0) {
        std::fill(visited->begin(), visited->end(), 0u);
        epoch = visited_epoch_ = 1;
      }
    }

    const auto chosen = SelectDiverse(
        candidates, MaxLinksFor(l), [&](std::uint32_t a, std::uint32_t b) {
          return PairDist(static_cast<NodeId>(candidates[a].id),
                          static_cast<NodeId>(candidates[b].id));
        });
    // Level 0 of a node AddRows adds carries each link's distance
    // (BuildMemo). A float beam measured Dist(id, link) through
    // GatherDistance, which has the kernel's bits, and L2 and inner
    // product are symmetric bit for bit, so the same float is also the
    // reverse link's Dist(link, id). Cosine recomputes the reverse
    // direction; a quantized beam's distances are approximate, so it
    // recomputes both.
    const bool memoize = l == 0 && memo_ != nullptr;
    const bool beam_exact = !quantized();
    const bool beam_symmetric =
        beam_exact && options_.metric != Metric::kCosine;
    BuildMemo::Node* own_memo = memoize ? memo_->Find(id) : nullptr;
    if (own_memo) own_memo->dist.reserve(MaxLinksFor(0) + 1);
    for (const std::uint32_t c : chosen) {
      const auto nb = static_cast<NodeId>(candidates[c].id);
      links_[id][static_cast<std::size_t>(l)].push_back(nb);
      links_[nb][static_cast<std::size_t>(l)].push_back(id);
      if (own_memo) {
        own_memo->dist.push_back(beam_exact ? candidates[c].distance
                                            : PairDist(id, nb));
      }
      if (BuildMemo::Node* back = memoize ? memo_->Find(nb) : nullptr) {
        back->dist.push_back(beam_symmetric ? candidates[c].distance
                                            : PairDist(nb, id));
      }
      ShrinkLinks(nb, l);
    }

    // Continue the descent from the closest candidate found on this layer.
    for (const auto& c : candidates) {
      if (c.distance < cur_dist) {
        cur_dist = c.distance;
        cur = static_cast<NodeId>(c.id);
      }
    }
  }
  ReleaseVisited(visited);

  if (level > max_level_) {
    entry_point_ = id;
    max_level_ = level;
  }
  return static_cast<VectorId>(id);
}

VectorId HnswIndex::AddRows(const Matrix& vectors, std::size_t lo,
                            std::size_t hi) {
  CheckRows(vectors, lo, hi);
  const std::size_t n = size() + (hi - lo);
  vectors_.Reserve(n);
  if (quantized()) store_.Reserve(n);
  levels_.reserve(n);
  links_.reserve(n);
  const auto first = static_cast<NodeId>(size());
  memo_ = std::make_unique<BuildMemo>();
  memo_->first = first;
  memo_->nodes.resize(hi - lo);
  memo_->next.reserve(PairCount(MaxLinksFor(0) + 1));
  try {
    for (std::size_t r = lo; r < hi; ++r) Add(vectors.Row(r));
  } catch (...) {
    memo_.reset();
    throw;
  }
  memo_.reset();
  return static_cast<VectorId>(first);
}

std::vector<Neighbor> HnswIndex::Search(std::span<const float> query,
                                        std::size_t k) const {
  CheckDim(query);
  if (k == 0 || vectors_.rows() == 0) return {};
  const obs::Span span(obs::Stage::kIndexSearch);

  NodeId cur = entry_point_;
  float cur_dist = TraversalDist(query, cur);
  for (int l = max_level_; l >= 1; --l) {
    GreedyStep(query, cur, cur_dist, l);
  }

  const std::size_t ef = std::max(options_.ef_search, k);
  auto [visited, epoch] = AcquireVisited();
  auto results = SearchLayer(query, cur, cur_dist, ef, 0, *visited, epoch);
  ReleaseVisited(visited);

  if (quantized()) {
    // The beam ran on compressed codes; rerank the surviving ef
    // candidates against the float rows before the final cut. The
    // over-fetch is ef itself (DESIGN.md §11).
    std::vector<NodeId> ids;
    ids.reserve(results.size());
    for (const auto& nb : results) {
      ids.push_back(static_cast<NodeId>(nb.id));
    }
    std::vector<float> exact(ids.size());
    GatherDistance(options_.metric, query, vectors_.data(), vectors_.dim(),
                   ids.data(), ids.size(), exact.data());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      results[j].distance = exact[j];
    }
    obs::ScanRerankBytes(ids.size() * vectors_.dim() * sizeof(float));
    obs::ScanCandidates(ids.size());
    obs::ScanQuery(static_cast<double>(ids.size()) /
                   static_cast<double>(vectors_.rows()));
  }

  std::sort(results.begin(), results.end(), NeighborCloser{});
  if (results.size() > k) results.resize(k);
  return results;
}

void HnswIndex::SaveTo(std::ostream& os) const {
  BinaryWriter w(os);
  // Version 2 appends the storage layout; float32 graphs keep writing
  // byte-exact version-1 files. Codes are re-derived on load.
  WriteHeader(w, io_magic::kHnswIndex, /*version=*/quantized() ? 2 : 1);
  w.WriteU32(static_cast<std::uint32_t>(options_.metric));
  w.WriteU64(options_.M);
  w.WriteU64(options_.ef_construction);
  w.WriteU64(options_.ef_search);
  w.WriteU64(options_.seed);
  if (quantized()) {
    w.WriteU32(static_cast<std::uint32_t>(options_.storage));
  }
  w.WriteU64(level_rng_state_);
  w.WriteU32(entry_point_);
  w.WriteI64(max_level_);
  WriteMatrix(w, vectors_);
  w.WriteU64(levels_.size());
  for (int level : levels_) w.WriteI64(level);
  for (std::size_t node = 0; node < links_.size(); ++node) {
    w.WriteU64(links_[node].size());
    for (const auto& level_links : links_[node]) {
      w.WriteU32s(level_links);
    }
  }
  w.Finish();
}

std::unique_ptr<HnswIndex> HnswIndex::LoadFrom(std::istream& is) {
  BinaryReader r(is);
  const std::uint32_t version =
      ReadHeader(r, io_magic::kHnswIndex, /*max_version=*/2);
  HnswOptions opts;
  opts.metric = ReadEnum(r, kLastMetric);
  opts.M = r.ReadU64();
  opts.ef_construction = r.ReadU64();
  opts.ef_search = r.ReadU64();
  opts.seed = r.ReadU64();
  if (version >= 2) {
    opts.storage = ReadEnum(r, StorageLayout::kSq4);
  }
  const std::uint64_t rng_state = r.ReadU64();
  const NodeId entry = r.ReadU32();
  const auto max_level = static_cast<int>(r.ReadI64());
  Matrix vectors = ReadMatrix(r);

  auto index = std::make_unique<HnswIndex>(vectors.dim(), opts);
  index->level_rng_state_ = rng_state;
  index->entry_point_ = entry;
  index->max_level_ = max_level;
  if (index->quantized()) {
    // Deterministic re-encode: the file carries no code payload.
    for (std::size_t row = 0; row < vectors.rows(); ++row) {
      index->store_.AppendRow(vectors.Row(row));
    }
  }
  index->vectors_ = std::move(vectors);

  const std::uint64_t n = r.ReadU64();
  if (n != index->vectors_.rows()) {
    throw std::runtime_error("HnswIndex::LoadFrom: node count mismatch");
  }
  index->levels_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    index->levels_.push_back(static_cast<int>(r.ReadI64()));
  }
  // An empty graph saves entry 0 at level -1; otherwise every search
  // starts at the entry node on the top level.
  if (n == 0 ? entry != 0 || max_level != -1
             : entry >= n || index->levels_[entry] != max_level) {
    throw std::runtime_error("HnswIndex::LoadFrom: entry point out of range");
  }
  index->links_.resize(n);
  for (std::uint64_t node = 0; node < n; ++node) {
    const std::uint64_t level_count = r.ReadU64();
    if (level_count !=
        static_cast<std::uint64_t>(index->levels_[node]) + 1) {
      throw std::runtime_error("HnswIndex::LoadFrom: level count mismatch");
    }
    index->links_[node].resize(level_count);
    for (auto& level_links : index->links_[node]) {
      level_links = r.ReadU32s();
      for (NodeId nb : level_links) {
        if (nb >= n) {
          throw std::runtime_error("HnswIndex::LoadFrom: dangling link");
        }
      }
    }
  }
  r.VerifyChecksum();
  return index;
}

std::string HnswIndex::Describe() const {
  std::string desc = "hnsw(" + std::string(MetricName(options_.metric)) +
                     ",M=" + std::to_string(options_.M) +
                     ",efc=" + std::to_string(options_.ef_construction) +
                     ",efs=" + std::to_string(options_.ef_search);
  if (quantized()) {
    desc += ",storage=" + std::string(StorageLayoutName(options_.storage));
  }
  return desc + ",n=" + std::to_string(size()) + ")";
}

}  // namespace proximity
