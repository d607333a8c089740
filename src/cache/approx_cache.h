// ApproxCache — the paper's contribution (§3, Algorithm 1): one
// approximate key-value cache per tenant.
//
// An approximate key-value cache keyed by query embeddings. A lookup
// linearly scans all cached keys with the same SIMD distance kernels the
// flat index uses (§3.2.1: "Our current implementation does a linear scan
// over the keys"); if the closest key is within the similarity tolerance
// τ, its value — the document-id list the database returned for that
// key — is returned and the database lookup is skipped. Under L2, after
// a scan whose nearest key lay within its radius, the scan stops reading
// a key once its partial sum proves it cannot be the nearest (NearestL2,
// DESIGN.md §5); the nearest key and its distance are exactly those of
// the full scan.
//
// Answer reuse (DESIGN.md §15) is a second radius on the same scan, not
// a second cache: a caller that passes τ_answer to Lookup learns whether
// the nearest key is also close enough, and filled under the current
// index generation, for the answer generated from its documents to be
// reused with no generation at all ("Grounded Cache Routing for RAG",
// PAPERS.md). Either radius may be the larger one.
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
/// A stale entry is never an answer hit, whatever the policy.
enum class StalenessPolicy : std::uint32_t {
  /// Serve the entry anyway — the paper's bet that approximate staleness
  /// is acceptable, now made explicit and observable. The hit reports
  /// `stale`.
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
  /// Hit-time behavior for entries filled under an older index
  /// generation (see set_generation and DESIGN.md §13).
  StalenessPolicy staleness = StalenessPolicy::kServeStale;
};

/// Counters exposed for the evaluation (§4.2: cache hit rate is
/// hits / lookups). Guarded by the cache mutex; the same counts are
/// mirrored into the obs MetricsRegistry (`cache.*`), the
/// exporter-visible copy.
struct ApproxCacheStats {
  std::uint64_t lookups = 0;
  /// Answer hits included.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Total keys compared across all scans (scan work).
  std::uint64_t keys_scanned = 0;
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

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct LookupResult {
    bool hit = false;
    /// Hit only: the nearest key is within the caller's τ_answer and was
    /// filled under the current generation.
    bool answer = false;
    /// Hit only: the entry predates the current generation (served
    /// because the policy is kServeStale).
    bool stale = false;
    /// Distance to the best-matching key; +inf when the cache is empty.
    float best_distance = std::numeric_limits<float>::infinity();
    /// Hit only: a copy of the cached document ids.
    std::vector<VectorId> value;
    /// What Recheck resumes from: the nearest key's slot (kNoSlot when
    /// the cache was empty) and the cache's change count when the scan ran.
    std::size_t best_slot = kNoSlot;
    std::uint64_t version = 0;
  };

  /// Algorithm 1 lines 3-6: scans all keys once and classifies the
  /// nearest key's distance d. With `answer_tau`, d <= *answer_tau on a
  /// current-generation entry is an answer hit; otherwise d <= τ is a
  /// hit under staleness(); anything else is a miss. Updates hit/miss
  /// statistics and the eviction policy's access bookkeeping.
  LookupResult Lookup(std::span<const float> query,
                      std::optional<float> answer_tau = std::nullopt);

  /// Lookup that leaves a miss uncounted, for a caller that looks again
  /// later with Recheck (the serving driver's admission probe, DESIGN.md
  /// §8): hits, scan work and stale drops count as in Lookup, lookups and
  /// misses do not, so each request still counts one lookup.
  LookupResult Probe(std::span<const float> query,
                     std::optional<float> answer_tau = std::nullopt);

  /// Lookup of a query whose Probe (`probe`, with the same `answer_tau`)
  /// missed, with Lookup's result and counts. When the cache only took
  /// inserts since the probe and the probe's nearest key still holds its
  /// slot, only the keys written since are read: the nearest key is then
  /// the nearer of the probe's and theirs (the lower slot on a tie). A τ
  /// or generation change, a removal, Clear or LoadFrom, and every
  /// invalidate-region cache, take a full Lookup.
  LookupResult Recheck(std::span<const float> query,
                       std::optional<float> answer_tau,
                       const LookupResult& probe);

  /// Algorithm 1 lines 7-11 (post-database path): stores `docs` under
  /// the query key, evicting one entry if the cache is full.
  void Insert(std::span<const float> query, std::vector<VectorId> docs);

  void Clear();

  ApproxCacheStats stats() const;
  void ResetStats();

  /// Introspection for tests: copies of slot contents (slot < size()).
  std::vector<float> KeyAt(std::size_t slot) const;
  std::vector<VectorId> ValueAt(std::size_t slot) const;

  /// Persists options and entries (not statistics).
  void SaveTo(std::ostream& os) const;
  /// Restores a SaveTo snapshot into this cache in place — options,
  /// entries and generation stamps replace the current ones and
  /// statistics restart from zero — so a cache owned elsewhere (a
  /// registry tenant's) can be warm-started. Eviction bookkeeping is
  /// reconstructed by re-inserting entries in slot order — an
  /// approximation of the original age order, which is the usual
  /// warm-restart trade-off for caches. Throws std::runtime_error on a
  /// corrupt snapshot, one of another dimension or metric (both are
  /// fixed by the index the cache fronts) or one that sets the retired
  /// entry-age bound; std::invalid_argument on invalid options, as the
  /// constructor does. The cache is left unchanged then.
  void LoadFrom(std::istream& is);

 private:
  static void ValidateOptions(std::size_t dim,
                              const ApproxCacheOptions& options);

  // The helpers below run with mu_ held.

  /// Lookup and Probe; `count_miss` false leaves a miss uncounted.
  LookupResult LookupLocked(std::span<const float> query,
                            std::optional<float> answer_tau, bool count_miss);
  /// Classifies the nearest key `best` (slot, distance) against τ and
  /// `answer_tau` and counts the outcome, as Lookup does.
  LookupResult Classify(std::optional<std::pair<std::size_t, float>> best,
                        std::optional<float> answer_tau, bool count_miss);
  /// Records a change every earlier scan result is void after.
  void Reset() noexcept { reset_version_ = ++version_; }
  /// Returns (slot, distance) of the closest key, or nullopt if none.
  /// `radius` is the widest hit radius of the lookup. An L2 scan runs
  /// NearestL2 after a scan whose nearest key lay within its radius and
  /// the full scan after one whose nearest key did not; both return the
  /// same key and distance.
  std::optional<std::pair<std::size_t, float>> ScanKeys(
      std::span<const float> query, float radius);
  void InsertLocked(std::span<const float> query, std::vector<VectorId> docs);
  /// Drops `slots` (swap-with-last compaction) and rebuilds the eviction
  /// policy's bookkeeping in slot order — same age approximation as
  /// LoadFrom's warm restart. `slots` must be sorted ascending.
  void RemoveSlots(const std::vector<std::size_t>& slots);
  void ResetArena();

  const std::size_t dim_;
  mutable std::mutex mu_;
  ApproxCacheOptions options_;  // tolerance is written under mu_
  std::unique_ptr<EvictionPolicy> policy_;

  Matrix keys_;                                // one row per slot
  std::vector<std::vector<VectorId>> values_;  // parallels keys_ rows
  std::vector<std::uint64_t> entry_gen_;       // index gen at fill time
  std::vector<std::uint64_t> entry_version_;   // version_ at fill time
  std::vector<float> scan_buffer_;             // distance scratch
  std::vector<std::uint32_t> fresh_slots_;     // Recheck scratch
  std::uint64_t generation_ = 0;               // latest index generation
  // Change count: bumped by every insert and Reset. reset_version_ is its
  // value at the last τ, generation or arena change or removal.
  std::uint64_t version_ = 0;
  std::uint64_t reset_version_ = 0;
  // Whether the last ScanKeys found its nearest key within its radius;
  // picks the next scan's kernel.
  bool last_scan_near_ = true;

  ApproxCacheStats stats_;
};

/// The paper's name for the cache (§3).
using ProximityCache = ApproxCache;

}  // namespace proximity
