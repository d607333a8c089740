#include "index/hnsw_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
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
}  // namespace

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

std::vector<HnswIndex::NodeId> HnswIndex::SelectNeighborsHeuristic(
    std::vector<Neighbor> candidates, std::size_t max_links) const {
  std::sort(candidates.begin(), candidates.end(), NeighborCloser{});
  std::vector<NodeId> selected;
  selected.reserve(max_links);
  for (const auto& cand : candidates) {
    if (selected.size() >= max_links) break;
    // Keep `cand` only if it is closer to the query than to every already
    // selected neighbor — this spreads links across directions.
    bool keep = true;
    const auto cand_vec = vectors_.Row(static_cast<std::size_t>(cand.id));
    for (NodeId s : selected) {
      const float d_cs = Distance(options_.metric, cand_vec, vectors_.Row(s));
      if (d_cs < cand.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(static_cast<NodeId>(cand.id));
  }
  // Backfill with the closest pruned candidates if diversity left slots
  // unused (keepPrunedConnections from the reference implementation).
  if (selected.size() < max_links) {
    for (const auto& cand : candidates) {
      if (selected.size() >= max_links) break;
      const NodeId id = static_cast<NodeId>(cand.id);
      if (std::find(selected.begin(), selected.end(), id) == selected.end()) {
        selected.push_back(id);
      }
    }
  }
  return selected;
}

void HnswIndex::ShrinkLinks(NodeId node, int level) {
  auto& list = links_[node][static_cast<std::size_t>(level)];
  const std::size_t max_links = MaxLinksFor(level);
  if (list.size() <= max_links) return;
  const auto node_vec = vectors_.Row(node);
  std::vector<Neighbor> candidates;
  candidates.reserve(list.size());
  for (NodeId nb : list) {
    candidates.push_back({static_cast<VectorId>(nb), Dist(node_vec, nb)});
  }
  list = SelectNeighborsHeuristic(std::move(candidates), max_links);
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

    auto selected =
        SelectNeighborsHeuristic(candidates, MaxLinksFor(l));
    links_[id][static_cast<std::size_t>(l)] = selected;
    for (NodeId nb : selected) {
      links_[nb][static_cast<std::size_t>(l)].push_back(id);
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
