// Filter-aware cache routing.
//
// When the RAG pipeline supports metadata filters ("only documents from
// 2024", "only cardiology"), a cached result is only reusable by queries
// with the *same* filter: serving an unfiltered result to a filtered
// query (or across filters) silently violates the filter contract — a
// nasty bug class for approximate caches. The router keeps one
// independent ProximityCache per filter tag, lazily created, all sharing
// one option set; eviction is per-tag (a hot filter cannot evict a cold
// filter's entries beyond its own cache).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cache/approx_cache.h"

namespace proximity {

/// Opaque identity of a filter. Callers hash their predicate's parameters
/// (e.g. SplitMix64 over a canonical encoding); kNoFilter means
/// "unfiltered".
using FilterTag = std::uint64_t;
inline constexpr FilterTag kNoFilter = 0;

class FilteredCacheRouter {
 public:
  /// `options` applies to every per-tag cache.
  FilteredCacheRouter(std::size_t dim, ApproxCacheOptions options);

  /// The cache dedicated to `tag`, created on first use.
  ProximityCache& CacheFor(FilterTag tag);

  /// Lookup/insert restricted to the tag's cache.
  ProximityCache::LookupResult Lookup(FilterTag tag,
                                      std::span<const float> query);
  void Insert(FilterTag tag, std::span<const float> query,
              std::vector<VectorId> documents);

  std::size_t tag_count() const noexcept { return caches_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Aggregate statistics across all tags.
  ApproxCacheStats TotalStats() const;

  /// Drops the cache of one tag (e.g. after the underlying filtered view
  /// of the corpus changed); no-op if the tag has no cache.
  void Invalidate(FilterTag tag);
  void Clear();

 private:
  std::size_t dim_;
  ApproxCacheOptions options_;
  std::unordered_map<FilterTag, std::unique_ptr<ProximityCache>> caches_;
};

}  // namespace proximity
