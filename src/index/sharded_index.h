// Sharded scatter-gather adapter over any VectorIndex.
//
// Partitions a corpus into N sub-indexes ("shards") searched in parallel
// on the shared ThreadPool, then merges the per-shard top-k lists with an
// exact heap merge ordered by (distance, id) — the same tie-break every
// index uses (NeighborCloser) — so for exact indexes (FlatIndex) the
// sharded result is bit-identical to the unsharded one. For approximate
// indexes (HNSW/IVF) each shard runs its full search over a smaller
// sub-corpus, which preserves (typically improves) recall at the cost of
// per-shard fixed overhead.
//
// This is the database-side scaling substrate for the serving layer
// (DESIGN.md §8): the batching driver groups cache misses and issues them
// as one SearchBatch call, which hands each shard a block of queries, so
// an exact shard scans its rows once per block, not once per query. It
// is the one index that spreads a scan over the pool: every shard
// searches on the pool thread that runs its block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "index/index_factory.h"
#include "index/vector_index.h"

namespace proximity {

/// How BuildShardedIndex / BuildPartitionedIndex (below) cut a stripe.
struct ShardedIndexOptions {
  /// Number of shards; 0 selects the shared thread-pool width.
  std::size_t num_shards = 0;
};

class ShardedIndex final : public VectorIndex {
 public:
  /// Wraps externally built shards. `global_ids[s][j]` is the global
  /// corpus id of shard s's local vector j; sizes must match the shards.
  /// All shards must share dim and metric. Prefer BuildShardedIndex below
  /// for the common build-from-corpus path.
  ShardedIndex(std::vector<std::unique_ptr<VectorIndex>> shards,
               std::vector<std::vector<VectorId>> global_ids);

  std::size_t dim() const noexcept override { return dim_; }
  Metric metric() const noexcept override { return metric_; }
  std::size_t size() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  const VectorIndex& shard(std::size_t s) const { return *shards_[s]; }

  /// Appends to the currently smallest shard; the id is the global
  /// insertion position (size() before the call), as for any VectorIndex.
  VectorId Add(std::span<const float> vec) override;

  // --- Mutation routing (DESIGN.md §13) -----------------------------
  //
  // Available when every shard is mutable. Global ids are stable: the
  // owner table (global id → shard, local slot) and the per-shard
  // local→global lists only ever append, and a shard reusing a
  // reclaimed slot reuses the slot's existing global id. Deletes route
  // to the owning shard by id.

  /// True when every shard supports mutation.
  bool SupportsMutation() const noexcept override;

  /// Routes to the currently smallest (by live count) shard. When the
  /// shard reuses a reclaimed slot the returned global id is the slot's
  /// previous id; otherwise a fresh id is assigned.
  VectorId Insert(std::span<const float> vec) override;

  /// Routes to the owning shard. False for unknown/already-dead ids.
  bool Delete(VectorId id) override;

  /// Consolidates every shard; returns total slots reclaimed.
  std::size_t Consolidate() override;

  /// Sum of the per-shard generations (monotone, since each is).
  std::uint64_t generation() const noexcept override;

  /// Mutation generation of one shard (the cache-staleness token).
  std::uint64_t shard_generation(std::size_t s) const noexcept {
    return shards_[s]->generation();
  }

  /// SearchBatch of the one query.
  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override;

  /// Grouped scatter-gather: each shard searches a block of the queries
  /// (one SearchBatch), then each query merges its shards. With fewer
  /// shards than pool threads + 1, a shard's queries split into
  /// (threads + 1) / shards blocks so the pool stays busy. This is the
  /// batch shape the serving driver issues grouped cache misses through.
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, std::size_t k) const override;

  std::string Describe() const override;

  /// Exact k-way merge of per-shard sorted lists, ordered by
  /// (distance, id). Public because the cluster router (src/cluster)
  /// merges per-backend answers with this very routine, which is what
  /// makes a routed k-NN bit-identical to the in-process sharded one
  /// for exact indexes (DESIGN.md §14).
  static std::vector<Neighbor> MergeSorted(
      std::vector<std::vector<Neighbor>>& parts, std::size_t k);

 private:
  /// Rewrites shard-local ids in `neighbors` to global ids.
  void ToGlobal(std::size_t shard, std::vector<Neighbor>& neighbors) const;

  std::size_t dim_ = 0;
  Metric metric_ = Metric::kL2;
  std::vector<std::unique_ptr<VectorIndex>> shards_;

  // Guards the id maps. Readers (ToGlobal) take the shared side briefly
  // and never while holding a shard's internal lock, so scatter-gather
  // legs cannot deadlock against mutators.
  mutable std::shared_mutex map_mu_;
  std::vector<std::vector<VectorId>> global_ids_;
  /// global id → (shard, local slot); kInvalidOwner for never-assigned.
  static constexpr std::uint32_t kInvalidOwner = 0xffffffffu;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owner_;

  std::atomic<std::size_t> total_{0};  // live vectors across shards
};

/// Builds a sharded index over stripe `part` of `parts` of `corpus`,
/// with global ids equal to the stripe's corpus row numbers. The stripe
/// cuts into `options.num_shards` contiguous sub-stripes of
/// ceil(rows / num_shards) rows, one sub-index each per `spec` read in
/// place from `corpus` and built in parallel on the shared pool; a cut
/// that runs out of rows early yields fewer shards, never an empty one.
/// Stripe boundaries are exactly the ones
/// BuildShardedIndex(parts) would use, so N backend processes each
/// serving one partition return the same global ids as a single process
/// sharded N ways — the property the cluster router's exact merge builds
/// on (`serve partition=I/N`). Throws std::invalid_argument when
/// `part >= parts` or the stripe is empty (more partitions than corpus
/// rows).
std::unique_ptr<ShardedIndex> BuildPartitionedIndex(
    const IndexSpec& spec, const Matrix& corpus, std::size_t part,
    std::size_t parts, ShardedIndexOptions options = {});

/// The whole corpus as one partition: BuildPartitionedIndex(spec, corpus,
/// 0, 1, options). Throws std::invalid_argument on an empty corpus.
std::unique_ptr<ShardedIndex> BuildShardedIndex(
    const IndexSpec& spec, const Matrix& corpus,
    ShardedIndexOptions options = {});

}  // namespace proximity
