// The vector-database abstraction the Proximity cache sits in front of.
//
// Per the paper (§3): "Proximity is agnostic of the specific vector
// database being used but assumes that this database has a lookup function
// that takes as input a query embedding and returns a sorted list of
// indices of vectors that are close to the query."
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "vecmath/matrix.h"
#include "vecmath/metric.h"

namespace proximity {

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Embedding dimensionality accepted by Add/Search.
  virtual std::size_t dim() const noexcept = 0;

  /// The fixed similarity metric (§2.2). The cache adopts the same metric.
  virtual Metric metric() const noexcept = 0;

  /// Number of stored vectors.
  virtual std::size_t size() const noexcept = 0;

  /// Appends one vector; its id is the insertion position (size() before
  /// the call). Throws std::invalid_argument on dimension mismatch.
  virtual VectorId Add(std::span<const float> vec) = 0;

  /// Appends rows [lo, hi) of `vectors` in order, as a loop over Add
  /// would; returns the id of the first. Reads the rows in place, so a
  /// caller adds a slice of a larger matrix without copying it out.
  /// Indexes override it to reserve room for the rows (FlatIndex) or to
  /// keep scratch across them (HnswIndex).
  virtual VectorId AddRows(const Matrix& vectors, std::size_t lo,
                           std::size_t hi);

  /// AddRows over every row of `vectors`.
  virtual VectorId AddBatch(const Matrix& vectors);

  /// Returns up to k neighbors sorted closest-first. Thread-safe for
  /// concurrent calls once construction has finished.
  virtual std::vector<Neighbor> Search(std::span<const float> query,
                                       std::size_t k) const = 0;

  /// Searches every row of `queries` and returns one result list per row.
  /// The default implementation loops over Search. FlatIndex overrides it
  /// with one scan that reads each row once for the whole block, and
  /// ShardedIndex with a grouped scatter-gather that hands each shard a
  /// block, so batched callers (the microbatching serving driver) share
  /// the scan and amortize fan-out overhead.
  virtual std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, std::size_t k) const;

  /// Predicate over vector ids (metadata filter). Must be pure.
  using Filter = std::function<bool(VectorId)>;

  /// Filtered search: the k closest vectors satisfying `filter`. It
  /// over-fetches (k, 4k, 16k, ... up to size()) and post-filters, which
  /// is exact on an exact index. No served path calls it; it stays
  /// virtual because the benchmark's `TimedIndex` (perfbench/src/layers.h)
  /// overrides it.
  virtual std::vector<Neighbor> SearchFiltered(std::span<const float> query,
                                               std::size_t k,
                                               const Filter& filter) const;

  // --- Mutation (live-corpus) API -----------------------------------
  //
  // Build-once indexes keep the historical contract: Add appends, ids
  // are insertion positions, nothing is ever removed. Mutable indexes
  // (MutableGraphIndex, ShardedIndex over mutable shards) additionally
  // support Delete/Consolidate and may REUSE ids of deleted vectors on
  // Insert. Every mutation bumps generation(), the staleness token the
  // proximity cache stamps into entries at fill time (DESIGN.md §13).

  /// True when Insert/Delete/Consolidate are functional (not the
  /// throwing defaults below).
  virtual bool SupportsMutation() const noexcept { return false; }

  /// Inserts one vector and returns its id. Mutable indexes may reuse a
  /// tombstoned slot (returning a previously-deleted id); the default
  /// forwards to Add for build-once indexes.
  virtual VectorId Insert(std::span<const float> vec) { return Add(vec); }

  /// Tombstones `id`: excluded from all future results, slot reclaimed
  /// by a later Consolidate. Returns false when `id` is unknown or
  /// already deleted. Default throws std::logic_error (build-once).
  virtual bool Delete(VectorId id);

  /// Reclaims tombstoned slots and repairs the neighborhoods around
  /// them; safe to run while queries are in flight. Returns the number
  /// of slots reclaimed. Default is a no-op returning 0.
  virtual std::size_t Consolidate() { return 0; }

  /// Monotone mutation counter: bumped by every Insert/Delete (and by
  /// Consolidate when it rewires). 0 forever on build-once indexes.
  virtual std::uint64_t generation() const noexcept { return 0; }

  /// Human-readable index description for logs/CSV ("flat", "hnsw", ...).
  virtual std::string Describe() const = 0;

  /// Serializes the index in the repo's versioned binary format (see
  /// common/serde.h). Default implementation throws std::logic_error for
  /// index types without a persistent form. Load back with LoadIndex()
  /// from index/index_io.h.
  virtual void SaveTo(std::ostream& os) const;

 protected:
  void CheckDim(std::span<const float> v) const;
  /// Throws std::invalid_argument unless `vectors` has this index's dim
  /// and [lo, hi) is a range of its rows.
  void CheckRows(const Matrix& vectors, std::size_t lo, std::size_t hi) const;
};

}  // namespace proximity
