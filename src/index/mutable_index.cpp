#include "index/mutable_index.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/serde.h"
#include "index/index_io.h"
#include "obs/metrics_registry.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {

const obs::CounterHandle kObsInserts("index.inserts");
const obs::CounterHandle kObsDeletes("index.deletes");
const obs::CounterHandle kObsReclaimed("index.reclaimed");
const obs::GaugeHandle kObsGeneration("index.generation");
const obs::GaugeHandle kObsTombstones("index.tombstones");

struct NeighborFartherFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.distance > b.distance;
  }
};
struct NeighborCloserFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return a.distance < b.distance;
  }
};

}  // namespace

MutableGraphIndex::MutableGraphIndex(std::size_t dim,
                                     MutableGraphOptions options)
    : options_(options), dim_(dim), rows_(0, dim) {
  if (options_.max_degree < 2) {
    throw std::invalid_argument("MutableGraphIndex: max_degree must be >= 2");
  }
  if (options_.alpha < 1.0f) {
    throw std::invalid_argument("MutableGraphIndex: alpha must be >= 1");
  }
  if (options_.consolidate_chunk == 0) options_.consolidate_chunk = 1;
  if (options_.build_beam < options_.max_degree) {
    options_.build_beam = options_.max_degree;
  }
  long_rng_state_ = SplitMix64(options_.seed ^ 0x6d75746cULL);  // "mutl"
}

float MutableGraphIndex::Dist(std::span<const float> a,
                              NodeId b) const noexcept {
  return Distance(options_.metric, a, rows_.Row(b));
}

std::shared_lock<std::shared_mutex> MutableGraphIndex::AcquireShared() const {
  // Back off while a writer waits; without this a sustained query
  // stream starves mutations forever (glibc rwlocks prefer readers).
  while (writers_waiting_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  return std::shared_lock(mu_);
}

std::unique_lock<std::shared_mutex> MutableGraphIndex::AcquireUnique() const {
  writers_waiting_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock lock(mu_);
  writers_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  return lock;
}

std::vector<Neighbor> MutableGraphIndex::BeamSearchLocked(
    std::span<const float> query, std::size_t beam, bool include_dead) const {
  std::vector<Neighbor> results;
  if (live_count_.load(std::memory_order_relaxed) == 0 &&
      tombstones_ == 0) {
    return results;
  }
  // Local visited set: concurrent shared-lock searches never share
  // scratch, which keeps this path TSan-clean without a scratch mutex.
  std::vector<std::uint8_t> visited(rows_.rows(), 0);

  std::vector<Neighbor> frontier;  // min-heap (closest first)
  std::vector<Neighbor> best;      // max-heap (worst first), live+dead

  const NodeId start = entry_;
  const float d0 = Dist(query, start);
  frontier.push_back({static_cast<VectorId>(start), d0});
  best.push_back({static_cast<VectorId>(start), d0});
  visited[start] = 1;

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), NeighborFartherFirst{});
    const Neighbor cur = frontier.back();
    frontier.pop_back();
    if (best.size() >= beam && cur.distance > best.front().distance) break;
    auto expand = [&](NodeId nb) {
      if (visited[nb] != 0) return;
      visited[nb] = 1;
      const float d = Dist(query, nb);
      if (best.size() < beam || d < best.front().distance) {
        frontier.push_back({static_cast<VectorId>(nb), d});
        std::push_heap(frontier.begin(), frontier.end(),
                       NeighborFartherFirst{});
        best.push_back({static_cast<VectorId>(nb), d});
        std::push_heap(best.begin(), best.end(), NeighborCloserFirst{});
        if (best.size() > beam) {
          std::pop_heap(best.begin(), best.end(), NeighborCloserFirst{});
          best.pop_back();
        }
      }
    };
    const auto cur_id = static_cast<std::size_t>(cur.id);
    for (NodeId nb : adjacency_[cur_id]) expand(nb);
    for (NodeId nb : long_links_[cur_id]) expand(nb);
  }

  if (!include_dead) {
    // Tombstones routed the search; they must not surface as results.
    best.erase(std::remove_if(best.begin(), best.end(),
                              [&](const Neighbor& n) {
                                return live_[static_cast<std::size_t>(
                                           n.id)] == 0;
                              }),
               best.end());
  }
  std::sort(best.begin(), best.end(), NeighborCloser{});
  return best;
}

std::vector<MutableGraphIndex::NodeId> MutableGraphIndex::RobustPruneLocked(
    NodeId node, std::vector<Neighbor> candidates, float alpha) const {
  std::sort(candidates.begin(), candidates.end(), NeighborCloser{});
  candidates.erase(
      std::unique(candidates.begin(), candidates.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.id == b.id;
                  }),
      candidates.end());

  std::vector<NodeId> selected;
  std::vector<bool> pruned(candidates.size(), false);
  for (std::size_t i = 0;
       i < candidates.size() && selected.size() < options_.max_degree; ++i) {
    if (pruned[i]) continue;
    const NodeId chosen = static_cast<NodeId>(candidates[i].id);
    if (chosen == node) continue;
    selected.push_back(chosen);
    const auto chosen_vec = rows_.Row(chosen);
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (pruned[j]) continue;
      const float d_cv = Distance(
          options_.metric, chosen_vec,
          rows_.Row(static_cast<std::size_t>(candidates[j].id)));
      if (alpha * d_cv <= candidates[j].distance) pruned[j] = true;
    }
  }
  return selected;
}

void MutableGraphIndex::RepairEntryLocked() {
  // Prefer a live out-neighbor of the dead entry (stays in the same
  // region of the graph); fall back to the first live slot.
  for (NodeId nb : adjacency_[entry_]) {
    if (live_[nb] != 0) {
      entry_ = nb;
      return;
    }
  }
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i] != 0) {
      entry_ = static_cast<NodeId>(i);
      return;
    }
  }
  entry_ = 0;  // empty index; reset on next Insert
}

VectorId MutableGraphIndex::Insert(std::span<const float> vec) {
  CheckDim(vec);

  // Two-phase insert (FreshVamana-style): the beam search — by far the
  // expensive half — runs under a SHARED lock, concurrent with queries;
  // only the wiring below takes the exclusive lock. The generation
  // stamp detects a concurrent mutation between the phases, in which
  // case the search is redone under the exclusive lock (correct, just
  // slower — contention between writers is the rare case).
  std::vector<Neighbor> visited;
  std::uint64_t planned_gen;
  {
    auto slock = AcquireShared();
    planned_gen = generation_.load(std::memory_order_acquire);
    if (live_count_.load(std::memory_order_relaxed) + tombstones_ > 0) {
      visited = BeamSearchLocked(vec, options_.build_beam, true);
    }
  }

  auto lock = AcquireUnique();
  return ApplyInsertLocked(vec, std::move(visited), planned_gen);
}

VectorId MutableGraphIndex::ApplyInsertLocked(std::span<const float> vec,
                                              std::vector<Neighbor> visited,
                                              std::uint64_t planned_gen) {
  if (generation_.load(std::memory_order_relaxed) != planned_gen) {
    visited.clear();
    if (live_count_.load(std::memory_order_relaxed) + tombstones_ > 0) {
      visited = BeamSearchLocked(vec, options_.build_beam, true);
    }
  }

  // Slot assignment: lowest reclaimed slot first, then grow the arena.
  NodeId id;
  if (!free_slots_.empty()) {
    std::pop_heap(free_slots_.begin(), free_slots_.end(),
                  std::greater<NodeId>{});
    id = free_slots_.back();
    free_slots_.pop_back();
    rows_.SetRow(id, vec);
    adjacency_[id].clear();
    long_links_[id].clear();
  } else {
    id = static_cast<NodeId>(rows_.rows());
    rows_.AppendRow(vec);
    adjacency_.emplace_back();
    long_links_.emplace_back();
    live_.push_back(0);
  }

  const std::size_t population =
      live_count_.load(std::memory_order_relaxed) + tombstones_;
  if (population == 0) {
    entry_ = id;
  } else {
    // DiskANN fresh insert: beam from the entry point (tombstones kept —
    // their edges still route), α-prune the visited LIVE set, then add
    // reverse edges with re-prune on overflow.
    std::vector<Neighbor> live_cands;
    live_cands.reserve(visited.size());
    for (const auto& n : visited) {
      if (live_[static_cast<std::size_t>(n.id)] != 0) {
        live_cands.push_back(n);
      }
    }
    adjacency_[id] = RobustPruneLocked(id, std::move(live_cands),
                                       options_.alpha);
    for (NodeId nb : adjacency_[id]) {
      auto& reverse = adjacency_[nb];
      if (std::find(reverse.begin(), reverse.end(), id) == reverse.end()) {
        reverse.push_back(id);
      }
      if (reverse.size() > options_.max_degree) {
        const auto nb_vec = rows_.Row(nb);
        std::vector<Neighbor> cands;
        cands.reserve(reverse.size());
        for (NodeId r : reverse) {
          cands.push_back({static_cast<VectorId>(r), Dist(nb_vec, r)});
        }
        adjacency_[nb] =
            RobustPruneLocked(nb, std::move(cands), options_.alpha);
      }
    }
    // Protected long-range shortcuts, targeted at live slots only.
    const std::size_t want =
        std::min(options_.long_edges,
                 live_count_.load(std::memory_order_relaxed));
    std::size_t attempts = 0;
    while (long_links_[id].size() < want && attempts < 64 * (want + 1)) {
      ++attempts;
      long_rng_state_ = SplitMix64(long_rng_state_ + id);
      const NodeId r = static_cast<NodeId>(long_rng_state_ % rows_.rows());
      if (r == id || live_[r] == 0) continue;
      auto& links = long_links_[id];
      if (std::find(links.begin(), links.end(), r) == links.end()) {
        links.push_back(r);
      }
    }
  }

  live_[id] = 1;
  live_count_.fetch_add(1, std::memory_order_relaxed);
  BumpGeneration();
  kObsInserts.Inc();
  kObsGeneration.Set(
      static_cast<double>(generation_.load(std::memory_order_relaxed)));
  return static_cast<VectorId>(id);
}

bool MutableGraphIndex::Delete(VectorId id) {
  auto lock = AcquireUnique();
  const auto slot = static_cast<std::size_t>(id);
  if (id < 0 || slot >= live_.size() || live_[slot] == 0) return false;

  // Lazy delete: the slot keeps its row and edges so searches can still
  // route through it; Consolidate reclaims it later.
  live_[slot] = 0;
  ++tombstones_;
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  if (entry_ == static_cast<NodeId>(slot)) RepairEntryLocked();
  BumpGeneration();
  kObsDeletes.Inc();
  kObsGeneration.Set(
      static_cast<double>(generation_.load(std::memory_order_relaxed)));
  kObsTombstones.Set(static_cast<double>(tombstones_));
  return true;
}

std::vector<MutableGraphIndex::NodeId> MutableGraphIndex::PickChunkLocked()
    const {
  std::vector<NodeId> chunk;
  chunk.reserve(options_.consolidate_chunk);
  for (std::size_t i = 0;
       i < live_.size() && chunk.size() < options_.consolidate_chunk; ++i) {
    const bool is_free =
        std::find(free_slots_.begin(), free_slots_.end(),
                  static_cast<NodeId>(i)) != free_slots_.end();
    if (live_[i] == 0 && !is_free) chunk.push_back(static_cast<NodeId>(i));
  }
  return chunk;
}

std::vector<std::pair<MutableGraphIndex::NodeId,
                      std::vector<MutableGraphIndex::NodeId>>>
MutableGraphIndex::PlanSpliceLocked(const std::vector<NodeId>& chunk) const {
  std::vector<std::uint8_t> dead(rows_.rows(), 0);
  for (NodeId t : chunk) dead[t] = 1;

  // Splice: every survivor that pointed at a chunk tombstone inherits
  // the tombstone's live out-neighbors instead, re-pruned on overflow
  // (SVS-style consolidate-delete).
  std::vector<std::pair<NodeId, std::vector<NodeId>>> rewired;
  for (std::size_t u = 0; u < adjacency_.size(); ++u) {
    const auto& out = adjacency_[u];
    const bool touches_dead =
        std::any_of(out.begin(), out.end(),
                    [&](NodeId nb) { return dead[nb] != 0; });
    if (!touches_dead) continue;
    std::vector<Neighbor> cands;
    const auto u_vec = rows_.Row(u);
    for (NodeId nb : out) {
      if (dead[nb] == 0) {
        cands.push_back({static_cast<VectorId>(nb), Dist(u_vec, nb)});
      } else {
        for (NodeId nn : adjacency_[nb]) {
          if (nn != static_cast<NodeId>(u) && dead[nn] == 0 &&
              live_[nn] != 0) {
            cands.push_back({static_cast<VectorId>(nn), Dist(u_vec, nn)});
          }
        }
      }
    }
    rewired.emplace_back(static_cast<NodeId>(u),
                         RobustPruneLocked(static_cast<NodeId>(u),
                                           std::move(cands), options_.alpha));
  }
  return rewired;
}

std::size_t MutableGraphIndex::Consolidate() {
  std::size_t reclaimed_total = 0;
  for (;;) {
    // Two-phase chunk (same trick as Insert): the in-neighbor scan and
    // re-prunes — the heavy half — are PLANNED under a shared lock,
    // concurrent with queries; the exclusive lock only validates the
    // generation and assigns the rewired lists. A concurrent mutation
    // between the phases invalidates the plan, which is then redone
    // under the exclusive lock.
    std::vector<NodeId> chunk;
    std::vector<std::pair<NodeId, std::vector<NodeId>>> rewired;
    std::uint64_t planned_gen;
    {
      auto slock = AcquireShared();
      planned_gen = generation_.load(std::memory_order_acquire);
      chunk = PickChunkLocked();
      if (!chunk.empty()) rewired = PlanSpliceLocked(chunk);
    }
    if (chunk.empty()) break;

    auto lock = AcquireUnique();
    if (generation_.load(std::memory_order_relaxed) != planned_gen) {
      chunk = PickChunkLocked();
      if (chunk.empty()) break;
      rewired = PlanSpliceLocked(chunk);
    }
    std::vector<std::uint8_t> dead(rows_.rows(), 0);
    for (NodeId t : chunk) dead[t] = 1;
    for (auto& [u, links] : rewired) adjacency_[u] = std::move(links);
    // Long links may not point at reclaimed slots (they will be reused).
    for (auto& links : long_links_) {
      links.erase(std::remove_if(links.begin(), links.end(),
                                 [&](NodeId nb) { return dead[nb] != 0; }),
                  links.end());
    }
    for (NodeId t : chunk) {
      adjacency_[t].clear();
      long_links_[t].clear();
      free_slots_.push_back(t);
      std::push_heap(free_slots_.begin(), free_slots_.end(),
                     std::greater<NodeId>{});
      --tombstones_;
    }
    reclaimed_total += chunk.size();
    // Bumped PER CHUNK, not once at the end: the bump is what
    // invalidates any plan (an Insert's or another Consolidate's) that
    // straddled this apply, so two consolidators can never double-free
    // a slot. A no-op Consolidate still never bumps.
    BumpGeneration();
    kObsReclaimed.Inc(chunk.size());
    kObsGeneration.Set(
        static_cast<double>(generation_.load(std::memory_order_relaxed)));
    kObsTombstones.Set(static_cast<double>(tombstones_));
    if (tombstones_ == 0) break;
  }
  return reclaimed_total;
}

std::vector<Neighbor> MutableGraphIndex::Search(std::span<const float> query,
                                                std::size_t k) const {
  CheckDim(query);
  if (k == 0) return {};
  auto lock = AcquireShared();
  if (live_count_.load(std::memory_order_relaxed) == 0) return {};
  // Over-fetch by the tombstone load: dead nodes occupy beam slots but
  // are filtered from the results.
  const std::size_t beam =
      std::max(options_.search_beam, k + tombstones_ / 4 + 1);
  auto results = BeamSearchLocked(query, beam, false);
  if (results.size() > k) results.resize(k);
  return results;
}

std::string MutableGraphIndex::Describe() const {
  auto lock = AcquireShared();
  return "mutable(" + std::string(MetricName(options_.metric)) +
         ",R=" + std::to_string(options_.max_degree) +
         ",L=" + std::to_string(options_.search_beam) +
         ",n=" + std::to_string(live_count_.load(std::memory_order_relaxed)) +
         ",slots=" + std::to_string(rows_.rows()) +
         ",tombstones=" + std::to_string(tombstones_) +
         ",gen=" + std::to_string(generation()) + ")";
}

std::size_t MutableGraphIndex::slot_count() const {
  auto lock = AcquireShared();
  return rows_.rows();
}

std::size_t MutableGraphIndex::tombstone_count() const {
  auto lock = AcquireShared();
  return tombstones_;
}

std::size_t MutableGraphIndex::free_count() const {
  auto lock = AcquireShared();
  return free_slots_.size();
}

std::vector<std::uint32_t> MutableGraphIndex::OutNeighbors(VectorId id) const {
  auto lock = AcquireShared();
  const auto slot = static_cast<std::size_t>(id);
  if (id < 0 || slot >= adjacency_.size()) {
    throw std::out_of_range("MutableGraphIndex::OutNeighbors: no such slot");
  }
  return adjacency_[slot];
}

bool MutableGraphIndex::IsLive(VectorId id) const {
  auto lock = AcquireShared();
  const auto slot = static_cast<std::size_t>(id);
  return id >= 0 && slot < live_.size() && live_[slot] != 0;
}

void MutableGraphIndex::SaveTo(std::ostream& os) const {
  auto lock = AcquireShared();
  BinaryWriter w(os);
  WriteHeader(w, io_magic::kMutableIndex, 1);
  w.WriteU32(static_cast<std::uint32_t>(options_.metric));
  w.WriteU64(options_.max_degree);
  w.WriteU64(options_.build_beam);
  w.WriteU64(options_.search_beam);
  w.WriteF32(options_.alpha);
  w.WriteU64(options_.seed);
  w.WriteU64(options_.long_edges);
  w.WriteU64(options_.consolidate_chunk);
  WriteMatrix(w, rows_);
  w.WriteU8s(live_);
  w.WriteU32s(free_slots_);
  w.WriteU64(adjacency_.size());
  for (const auto& out : adjacency_) w.WriteU32s(out);
  w.WriteU64(long_links_.size());
  for (const auto& links : long_links_) w.WriteU32s(links);
  w.WriteU32(entry_);
  w.WriteU64(tombstones_);
  w.WriteU64(generation_.load(std::memory_order_acquire));
  w.WriteU64(long_rng_state_);
  w.Finish();
}

std::unique_ptr<MutableGraphIndex> MutableGraphIndex::LoadFrom(
    std::istream& is) {
  BinaryReader r(is);
  ReadHeader(r, io_magic::kMutableIndex, 1);
  MutableGraphOptions opts;
  opts.metric = ReadEnum(r, kLastMetric);
  opts.max_degree = r.ReadU64();
  opts.build_beam = r.ReadU64();
  opts.search_beam = r.ReadU64();
  opts.alpha = r.ReadF32();
  opts.seed = r.ReadU64();
  opts.long_edges = r.ReadU64();
  opts.consolidate_chunk = r.ReadU64();
  Matrix rows = ReadMatrix(r);

  auto index = std::make_unique<MutableGraphIndex>(rows.dim(), opts);
  index->rows_ = std::move(rows);
  const std::size_t slots = index->rows_.rows();
  // Every stored slot id indexes rows_, live_ and the edge lists; a
  // checksummed file can still carry one past the end.
  const auto check_ids = [slots](const std::vector<NodeId>& ids,
                                 const char* what) {
    for (NodeId id : ids) {
      if (id >= slots) {
        throw std::runtime_error(std::string("MutableGraphIndex: ") + what +
                                 " id out of range");
      }
    }
  };
  index->live_ = r.ReadU8s(slots);
  if (index->live_.size() != slots) {
    throw std::runtime_error("MutableGraphIndex: live/slot mismatch");
  }
  index->free_slots_ = r.ReadU32s(slots);
  check_ids(index->free_slots_, "free-slot");
  const std::uint64_t n_adj = r.ReadU64();
  if (n_adj != slots) {
    throw std::runtime_error("MutableGraphIndex: adjacency/slot mismatch");
  }
  index->adjacency_.resize(n_adj);
  for (auto& out : index->adjacency_) {
    out = r.ReadU32s(1u << 20);
    check_ids(out, "adjacency");
  }
  const std::uint64_t n_links = r.ReadU64();
  if (n_links != slots) {
    throw std::runtime_error("MutableGraphIndex: long-link/slot mismatch");
  }
  index->long_links_.resize(n_links);
  for (auto& links : index->long_links_) {
    links = r.ReadU32s(1u << 20);
    check_ids(links, "long-link");
  }
  index->entry_ = r.ReadU32();
  // An empty arena saves entry 0; otherwise searches start at a slot.
  if (slots == 0 ? index->entry_ != 0 : index->entry_ >= slots) {
    throw std::runtime_error("MutableGraphIndex: entry point out of range");
  }
  index->tombstones_ = r.ReadU64();
  index->generation_.store(r.ReadU64(), std::memory_order_release);
  index->long_rng_state_ = r.ReadU64();
  r.VerifyChecksum();

  std::size_t live = 0;
  for (std::uint8_t flag : index->live_) live += flag != 0 ? 1 : 0;
  index->live_count_.store(live, std::memory_order_relaxed);
  std::make_heap(index->free_slots_.begin(), index->free_slots_.end(),
                 std::greater<NodeId>{});
  return index;
}

}  // namespace proximity
