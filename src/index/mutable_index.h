// Mutable Vamana-style graph index for a live (churning) corpus.
//
// The build-once indexes in this tree freeze their id space at build
// time; MutableGraphIndex instead treats ids as SLOTS (DESIGN.md §13,
// after SVS's dynamic Vamana): Delete tombstones a slot without touching
// the graph around it, Consolidate splices tombstoned slots out of their
// in-neighbors' adjacency lists (chunked, releasing the writer lock
// between chunks so queries keep flowing) and pushes the slot onto a
// free list, and Insert reuses the lowest free slot before growing the
// arena. Every mutation bumps a monotone generation counter — the
// staleness token the proximity cache stamps into entries at fill time.
//
// Concurrency contract: Search takes a shared lock; Insert/Delete/
// Consolidate take the exclusive lock (Consolidate only per chunk).
// Searches allocate a local visited set, so any number run in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "index/vector_index.h"

namespace proximity {

struct MutableGraphOptions {
  Metric metric = Metric::kL2;
  /// Maximum out-degree (R); tombstone splicing re-prunes to this.
  std::size_t max_degree = 32;
  /// Beam width during insertion (L).
  std::size_t build_beam = 64;
  /// Beam width during search; raised to k if smaller.
  std::size_t search_beam = 64;
  /// RobustPrune slack; α > 1 keeps detour-resistant edges.
  float alpha = 1.2f;
  std::uint64_t seed = 42;
  /// Protected random long-range shortcuts per node, stored outside the
  /// α-pruned degree budget and traversed by every beam search. They keep
  /// tight, far-apart clusters reachable from one another, where
  /// α-pruning alone keeps only nearest-neighborhood edges. Retargeted
  /// away from reclaimed slots during Consolidate.
  std::size_t long_edges = 2;
  /// Consolidate rewires at most this many tombstones per exclusive
  /// lock acquisition, yielding to readers in between.
  std::size_t consolidate_chunk = 64;
};

class MutableGraphIndex final : public VectorIndex {
 public:
  MutableGraphIndex(std::size_t dim, MutableGraphOptions options = {});

  std::size_t dim() const noexcept override { return dim_; }
  Metric metric() const noexcept override { return options_.metric; }
  /// Live vectors (slots minus tombstones minus free slots).
  std::size_t size() const noexcept override {
    return live_count_.load(std::memory_order_relaxed);
  }

  bool SupportsMutation() const noexcept override { return true; }

  /// Add is Insert: the returned id may reuse a reclaimed slot.
  VectorId Add(std::span<const float> vec) override { return Insert(vec); }
  VectorId Insert(std::span<const float> vec) override;
  bool Delete(VectorId id) override;
  std::size_t Consolidate() override;
  std::uint64_t generation() const noexcept override {
    return generation_.load(std::memory_order_acquire);
  }

  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override;
  std::string Describe() const override;

  void SaveTo(std::ostream& os) const override;
  static std::unique_ptr<MutableGraphIndex> LoadFrom(std::istream& is);

  void set_search_beam(std::size_t beam) noexcept {
    options_.search_beam = beam;
  }

  /// Introspection for tests and the consolidation runbook.
  std::size_t slot_count() const;
  std::size_t tombstone_count() const;
  std::size_t free_count() const;
  bool IsLive(VectorId id) const;
  /// Copy of a slot's α-pruned adjacency, taken under the shared lock.
  /// Throws std::out_of_range for an id past the arena.
  std::vector<std::uint32_t> OutNeighbors(VectorId id) const;

 private:
  using NodeId = std::uint32_t;

  float Dist(std::span<const float> a, NodeId b) const noexcept;

  /// Beam search from entry_; caller must hold mu_ (either mode). The
  /// visited set is local, so shared-lock callers never contend.
  /// Tombstones are traversed (their edges still route) but filtered
  /// from the returned list unless `include_dead`.
  std::vector<Neighbor> BeamSearchLocked(std::span<const float> query,
                                         std::size_t beam,
                                         bool include_dead) const;

  /// DiskANN Algorithm 2 over live candidates; caller holds mu_.
  std::vector<NodeId> RobustPruneLocked(NodeId node,
                                        std::vector<Neighbor> candidates,
                                        float alpha) const;

  /// Picks the next batch of unreclaimed tombstones (at most
  /// consolidate_chunk); caller holds mu_ (either mode).
  std::vector<NodeId> PickChunkLocked() const;

  /// Computes the consolidation splice for `chunk`: every survivor
  /// adjacency that touches a chunk tombstone, rewired through the
  /// tombstone's live out-neighbors and re-pruned. Pure planning —
  /// caller holds mu_ (either mode, so it can run under a shared lock
  /// concurrently with queries).
  std::vector<std::pair<NodeId, std::vector<NodeId>>> PlanSpliceLocked(
      const std::vector<NodeId>& chunk) const;

  /// The wiring step of Insert: assigns a slot for `vec`, prunes
  /// `visited` into its adjacency, adds reverse edges, and picks long
  /// links. Caller holds mu_ exclusively; `visited` comes from a
  /// beam search planned at `planned_gen` and is re-run here iff the
  /// generation moved since.
  VectorId ApplyInsertLocked(std::span<const float> vec,
                             std::vector<Neighbor> visited,
                             std::uint64_t planned_gen);

  /// Re-picks entry_ after its slot died; caller holds mu_ exclusively.
  void RepairEntryLocked();

  /// glibc's shared_mutex prefers readers, so a sustained query stream
  /// can starve Insert/Delete/Consolidate forever. Writers announce
  /// themselves here before blocking on mu_; readers that see a waiting
  /// writer yield until it has gone through. See AcquireShared/Unique.
  std::shared_lock<std::shared_mutex> AcquireShared() const;
  std::unique_lock<std::shared_mutex> AcquireUnique() const;

  void BumpGeneration() noexcept {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  MutableGraphOptions options_;
  std::size_t dim_;

  mutable std::shared_mutex mu_;
  Matrix rows_;                            // one row per slot
  std::vector<std::uint8_t> live_;         // 1 = serving, 0 = dead
  std::vector<NodeId> free_slots_;         // reclaimed, ready for reuse
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<NodeId>> long_links_;
  NodeId entry_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t long_rng_state_ = 0;

  std::atomic<std::size_t> live_count_{0};
  std::atomic<std::uint64_t> generation_{0};
  mutable std::atomic<std::uint32_t> writers_waiting_{0};
};

}  // namespace proximity
