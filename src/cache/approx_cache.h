// ApproxCache — the paper's contribution (§3, Algorithm 1), once for both
// cache tiers.
//
// An approximate key-value cache keyed by query embeddings. A lookup
// linearly scans all cached keys with the same SIMD distance kernels the
// flat index uses (§3.2.1: "Our current implementation does a linear scan
// over the keys"); if the closest key is within the similarity tolerance
// τ, its value is returned and the database lookup is skipped.
//
// Two tiers instantiate it (DESIGN.md §15):
//  - ProximityCache = ApproxCache<std::vector<VectorId>> reuses
//    *retrievals*: the value is the document-id list the database
//    returned for the key.
//  - AnswerCache = ApproxCache<CachedAnswer> reuses *answers*: the value
//    is the evidence an answer was generated from. A τ-hit stamped with
//    the current index generation is served from it with no retrieval
//    and no generation; the generation stamp is what makes the reuse
//    safe ("Grounded Cache Routing for RAG", PAPERS.md). The answer
//    tier fills through Upsert, so a regenerated answer replaces the
//    τ-close entry that triggered it instead of accumulating
//    near-duplicates.
//
// Slot management: entries live in a fixed arena of `capacity` rows that
// fills append-only; once full, the eviction policy picks a victim slot
// which the new entry overwrites. Live keys are therefore always one
// contiguous row-major block, so the scan is a single batched kernel pass.
//
// Thread-safe: every member that reads or writes mutable state takes the
// cache's own mutex; one lock suits because the scan is short (§3.2.1).
// Lookup returns the hit by value, since a reference into the arena
// would dangle across a concurrent insertion.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/eviction_policy.h"
#include "common/types.h"
#include "vecmath/matrix.h"
#include "vecmath/metric.h"

namespace proximity {

/// What a Lookup does when the best key is within τ but the entry was
/// filled under an older index generation (the corpus has mutated since;
/// DESIGN.md §13). Every stale match counts `stale_hits` regardless.
enum class StalenessPolicy : std::uint32_t {
  /// Serve the entry anyway — the paper's bet that approximate staleness
  /// is acceptable, now made explicit and observable. The hit reports
  /// `stale`, so the answer tier can treat it as a miss.
  kServeStale = 0,
  /// Report a miss and drop the stale entry, forcing the pipeline to
  /// re-retrieve and refill under the current generation.
  kRevalidate = 1,
  /// Report a miss and drop EVERY entry within τ of the query: the
  /// mutated region is purged wholesale (RAGCache-style region
  /// invalidation), so nearby stale entries cannot serve either.
  kInvalidateRegion = 2,
};

const char* StalenessPolicyName(StalenessPolicy policy) noexcept;
bool ParseStalenessPolicy(const std::string& name, StalenessPolicy* out);

struct ApproxCacheOptions {
  /// Cache capacity c (entries). §3.2.1.
  std::size_t capacity = 100;
  /// Similarity tolerance τ. Distances <= τ count as a hit; τ = 0 degrades
  /// to exact matching (§3.2.3).
  float tolerance = 1.0f;
  /// Distance function; must equal the underlying database's metric (§3.1).
  Metric metric = Metric::kL2;
  /// Replacement policy; the paper uses FIFO (§3.2.2).
  EvictionKind eviction = EvictionKind::kFifo;
  /// Seed for the random eviction policy.
  std::uint64_t seed = 42;
  /// Staleness bound (extension): entries older than this many cache
  /// operations (lookups + insertions) are never served — the lookup
  /// reports a miss so the pipeline refreshes from the database. Storage
  /// is reclaimed by the normal eviction policy. 0 disables expiry.
  /// Rationale: the cached document lists shadow the vector database; if
  /// the database is updated (new documents indexed), a TTL bounds how
  /// long the cache can keep serving pre-update results.
  std::uint64_t max_age = 0;
  /// Hit-time behavior for entries filled under an older index
  /// generation (see set_generation and DESIGN.md §13).
  StalenessPolicy staleness = StalenessPolicy::kServeStale;
};

/// The answer tier's template (TenantRegistryOptions::answer_defaults).
/// The tier always runs FIFO and serve-stale with no expiry, so only
/// these three fields vary; the rest of ApproxCacheOptions keeps its
/// defaults.
struct AnswerCacheOptions {
  /// Arena capacity (entries).
  std::size_t capacity = 64;
  /// Similarity tolerance τ for answer reuse. Usually tighter than the
  /// retrieval cache's τ: reusing a whole answer is a bigger bet than
  /// reusing a document list.
  float tolerance = 0.5f;
  /// Distance function; must equal the embedding space's metric.
  Metric metric = Metric::kL2;

  operator ApproxCacheOptions() const {
    ApproxCacheOptions options;
    options.capacity = capacity;
    options.tolerance = tolerance;
    options.metric = metric;
    return options;
  }
};

/// The evidence one cached answer was generated from; an answer hit
/// serves it in place of a retrieval. (The simulator's answer model is
/// a function of the evidence, so the evidence stands in for the
/// generated text a real deployment would also store.)
struct CachedAnswer {
  /// Document ids the answer was grounded in, in retrieval order.
  std::vector<VectorId> source_docs;
  /// Distances parallel to source_docs.
  std::vector<float> source_distances;
};

/// Counters exposed for the evaluation (§4.2: cache hit rate is
/// hits / lookups). Guarded by the cache mutex; the same counts are
/// mirrored into the obs MetricsRegistry (`cache.*` for the document
/// tier, `acache.*` for the answer tier), the exporter-visible copy.
struct ApproxCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Entries written, including in-place refreshes.
  std::uint64_t insertions = 0;
  /// Upserts that refreshed a τ-close existing entry in place.
  std::uint64_t refreshes = 0;
  std::uint64_t evictions = 0;
  /// Total keys compared across all scans (scan work).
  std::uint64_t keys_scanned = 0;
  /// Matches that were suppressed because the entry exceeded max_age.
  std::uint64_t expired_skips = 0;
  /// Within-τ matches whose entry generation trailed the index
  /// generation (counted under every staleness policy).
  std::uint64_t stale_hits = 0;
  /// Entries dropped by the revalidate/invalidate-region policies.
  std::uint64_t stale_evictions = 0;

  double HitRate() const noexcept {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

template <typename Value>
class ApproxCache {
 public:
  ApproxCache(std::size_t dim, ApproxCacheOptions options = {});

  ApproxCache(const ApproxCache&) = delete;
  ApproxCache& operator=(const ApproxCache&) = delete;

  std::size_t dim() const noexcept { return dim_; }
  std::size_t capacity() const noexcept { return options_.capacity; }
  Metric metric() const noexcept { return options_.metric; }
  EvictionKind eviction() const noexcept { return options_.eviction; }
  StalenessPolicy staleness() const noexcept { return options_.staleness; }
  std::size_t size() const;

  float tolerance() const;
  /// Adjusts τ at runtime (the adaptive controller, §3.2.3); applies to
  /// subsequent lookups.
  void set_tolerance(float tau);

  /// The cache-staleness contract (DESIGN.md §13): the owner pushes the
  /// index's generation counter here after mutations; Insert stamps the
  /// current value into the entry, and Lookup compares the stamp at hit
  /// time under staleness(). Must be monotone.
  void set_generation(std::uint64_t gen);
  std::uint64_t generation() const;

  struct LookupResult {
    bool hit = false;
    /// Hit only: the entry predates the current generation (served
    /// because the policy is kServeStale).
    bool stale = false;
    /// Distance to the best-matching key; +inf when the cache is empty.
    float best_distance = std::numeric_limits<float>::infinity();
    /// Hit only: a copy of the cached value.
    Value value{};
  };

  /// Algorithm 1 lines 3-6: scans all keys, returns the value of the best
  /// match if its distance is <= τ. Updates hit/miss statistics and the
  /// eviction policy's access bookkeeping.
  LookupResult Lookup(std::span<const float> query);

  /// Algorithm 1 lines 7-11 (post-database path): stores `value` under
  /// the query key, evicting one entry if the cache is full.
  void Insert(std::span<const float> query, Value value);

  /// Refreshes the τ-closest entry in place (key, value and generation
  /// stamp; its eviction order is kept) when one exists, else Insert.
  void Upsert(std::span<const float> query, Value value);

  void Clear();

  ApproxCacheStats stats() const;
  void ResetStats();

  /// Introspection for tests: copies of slot contents (slot < size()).
  std::vector<float> KeyAt(std::size_t slot) const;
  Value ValueAt(std::size_t slot) const;

  /// Document tier only. Persists options and entries (not statistics).
  void SaveTo(std::ostream& os) const;
  /// Document tier only. Restores a SaveTo snapshot into this cache in
  /// place — options, entries and generation stamps replace the current
  /// ones and statistics restart from zero — so a cache owned elsewhere
  /// (a registry tenant's) can be warm-started. Eviction bookkeeping is
  /// reconstructed by re-inserting entries in slot order — an
  /// approximation of the original age order, which is the usual
  /// warm-restart trade-off for caches. Throws std::runtime_error on a
  /// corrupt snapshot or one of another dimension or metric (both are
  /// fixed by the index the cache fronts), std::invalid_argument on
  /// invalid options, as the constructor does; the cache is left
  /// unchanged then.
  void LoadFrom(std::istream& is);

 private:
  static void ValidateOptions(std::size_t dim,
                              const ApproxCacheOptions& options);

  // The helpers below run with mu_ held.

  /// Returns (slot, distance) of the closest live key, or nullopt if none.
  std::optional<std::pair<std::size_t, float>> ScanKeys(
      std::span<const float> query);
  void InsertLocked(std::span<const float> query, Value value);
  /// Drops `slots` (swap-with-last compaction) and rebuilds the eviction
  /// policy's bookkeeping in slot order — same age approximation as
  /// LoadFrom's warm restart. `slots` must be sorted ascending.
  void RemoveSlots(const std::vector<std::size_t>& slots);
  void ResetArena();

  const std::size_t dim_;
  mutable std::mutex mu_;
  ApproxCacheOptions options_;  // tolerance is written under mu_
  std::unique_ptr<EvictionPolicy> policy_;

  Matrix keys_;                           // one row per slot
  std::vector<Value> values_;             // parallels keys_ rows
  std::vector<std::uint64_t> birth_;      // op tick at insertion
  std::vector<std::uint64_t> entry_gen_;  // index gen at fill time
  std::vector<float> scan_buffer_;        // distance scratch
  std::uint64_t op_tick_ = 0;             // advances on every op
  std::uint64_t generation_ = 0;          // latest index generation

  ApproxCacheStats stats_;
};

using ProximityCache = ApproxCache<std::vector<VectorId>>;
using AnswerCache = ApproxCache<CachedAnswer>;

template <>
void ProximityCache::SaveTo(std::ostream& os) const;
template <>
void ProximityCache::LoadFrom(std::istream& is);

extern template class ApproxCache<std::vector<VectorId>>;
extern template class ApproxCache<CachedAnswer>;

}  // namespace proximity
