// Hierarchical Navigable Small World graph index (Malkov & Yashunin,
// cited as [17] in the paper; FAISS-HNSW is the index used for the MMLU
// benchmark, §4.2).
//
// Full implementation: geometric level assignment, greedy descent through
// upper layers, best-first ef-bounded search on the base layer, and
// heuristic neighbor selection (Algorithm 4 of the HNSW paper) during
// construction.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "index/vector_index.h"
#include "vecmath/compressed_store.h"

namespace proximity {

struct HnswOptions {
  Metric metric = Metric::kL2;
  /// Max links per node on layers > 0; layer 0 allows 2*M.
  std::size_t M = 16;
  /// Beam width during construction.
  std::size_t ef_construction = 200;
  /// Default beam width during search (raised to k if smaller).
  std::size_t ef_search = 64;
  std::uint64_t seed = 42;
  /// Representation driving graph traversal (DESIGN.md §11): sq8/sq4
  /// expand neighbors from quantized codes and rerank the final ef
  /// candidates against the float vectors; kFloat32 is the classic
  /// all-float walk. The over-fetch is ef itself, so no rerank factor.
  StorageLayout storage = StorageLayout::kFloat32;
};

class HnswIndex final : public VectorIndex {
 public:
  HnswIndex(std::size_t dim, HnswOptions options = {});
  ~HnswIndex() override;

  std::size_t dim() const noexcept override { return vectors_.dim(); }
  Metric metric() const noexcept override { return options_.metric; }
  std::size_t size() const noexcept override { return vectors_.rows(); }

  /// Not thread-safe; build the graph single-threaded, then Search freely.
  VectorId Add(std::span<const float> vec) override;

  /// Adds rows [lo, hi) through Add, one by one, while a build memo
  /// (BuildMemo below) keeps the distances the build has computed: the
  /// graph is the Add loop's, byte for byte, at a fraction of the
  /// distance evaluations (DESIGN.md §5). The memo is dropped before
  /// returning.
  VectorId AddRows(const Matrix& vectors, std::size_t lo,
                   std::size_t hi) override;

  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override;
  std::string Describe() const override;

  /// Persists the full graph (vectors, levels, links, entry point, and
  /// the level-assignment RNG state, so inserts resume identically).
  /// Returned by pointer: the index owns a mutex and is not movable.
  void SaveTo(std::ostream& os) const override;
  static std::unique_ptr<HnswIndex> LoadFrom(std::istream& is);

  void set_ef_search(std::size_t ef) noexcept { options_.ef_search = ef; }
  std::size_t ef_search() const noexcept { return options_.ef_search; }
  StorageLayout storage() const noexcept { return options_.storage; }

  /// Graph introspection for tests.
  int max_level() const noexcept { return max_level_; }
  int NodeLevel(VectorId id) const noexcept {
    return levels_[static_cast<std::size_t>(id)];
  }
  const std::vector<std::uint32_t>& Links(VectorId id, int level) const {
    return links_[static_cast<std::size_t>(id)][static_cast<std::size_t>(
        level)];
  }

 private:
  using NodeId = std::uint32_t;

  float Dist(std::span<const float> a, NodeId b) const noexcept;

  bool quantized() const noexcept {
    return options_.storage != StorageLayout::kFloat32;
  }

  /// Traversal distance of one node: quantized codes when enabled,
  /// float row otherwise. Entry points of greedy descent / beam search.
  float TraversalDist(std::span<const float> query, NodeId b) const;

  /// Fused neighbor-expansion distances: compressed GatherScan when
  /// quantized, float GatherDistance otherwise.
  void ExpandDistances(std::span<const float> query, const NodeId* ids,
                       std::size_t count, float* out) const;

  /// Best-first search on one layer; returns up to ef closest nodes,
  /// unsorted (heap order). `visited` must be a fresh epoch.
  std::vector<Neighbor> SearchLayer(std::span<const float> query,
                                    NodeId entry, float entry_dist,
                                    std::size_t ef, int level,
                                    std::vector<std::uint32_t>& visited,
                                    std::uint32_t epoch) const;

  /// Greedy 1-NN descent on one layer starting from `entry`.
  void GreedyStep(std::span<const float> query, NodeId& entry,
                  float& entry_dist, int level) const;

  /// Distance(metric, row a, row b), the diversity heuristic's pair test.
  float PairDist(NodeId a, NodeId b) const noexcept {
    return Distance(options_.metric, vectors_.Row(a), vectors_.Row(b));
  }

  std::size_t MaxLinksFor(int level) const noexcept {
    return level == 0 ? options_.M * 2 : options_.M;
  }

  /// Re-prunes `node`'s link list on `level` after adding a reverse edge.
  void ShrinkLinks(NodeId node, int level);

  /// Scratch of one AddRows call (defined in the .cpp; DESIGN.md §5).
  struct BuildMemo;

  // Visited-set pool: epoch-stamped arrays reused across searches.
  struct VisitedGuard;
  std::pair<std::vector<std::uint32_t>*, std::uint32_t> AcquireVisited() const;
  void ReleaseVisited(std::vector<std::uint32_t>* v) const;

  HnswOptions options_;
  Matrix vectors_;
  // Quantized mirror of vectors_ for graph traversal (empty for
  // kFloat32); appended in lockstep with vectors_.
  CompressedStore store_;
  std::vector<int> levels_;
  // links_[node][level] -> neighbor ids; sized to node's level + 1.
  std::vector<std::vector<std::vector<NodeId>>> links_;
  NodeId entry_point_ = 0;
  int max_level_ = -1;
  std::uint64_t level_rng_state_;
  double level_mult_;

  // Null outside AddRows, so a lone Add runs without it and builds the
  // same graph.
  std::unique_ptr<BuildMemo> memo_;

  mutable std::mutex visited_mu_;
  mutable std::vector<std::unique_ptr<std::vector<std::uint32_t>>>
      visited_pool_;
  mutable std::uint32_t visited_epoch_ = 0;
};

}  // namespace proximity
