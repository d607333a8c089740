#include "cache/filtered_router.h"

namespace proximity {

FilteredCacheRouter::FilteredCacheRouter(std::size_t dim,
                                         ApproxCacheOptions options)
    : dim_(dim), options_(options) {}

ProximityCache& FilteredCacheRouter::CacheFor(FilterTag tag) {
  auto it = caches_.find(tag);
  if (it == caches_.end()) {
    it = caches_.emplace(tag, std::make_unique<ProximityCache>(dim_, options_))
             .first;
  }
  return *it->second;
}

ProximityCache::LookupResult FilteredCacheRouter::Lookup(
    FilterTag tag, std::span<const float> query) {
  return CacheFor(tag).Lookup(query);
}

void FilteredCacheRouter::Insert(FilterTag tag, std::span<const float> query,
                                 std::vector<VectorId> documents) {
  CacheFor(tag).Insert(query, std::move(documents));
}

ApproxCacheStats FilteredCacheRouter::TotalStats() const {
  ApproxCacheStats total;
  for (const auto& [_, cache] : caches_) {
    const auto& s = cache->stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.keys_scanned += s.keys_scanned;
  }
  return total;
}

void FilteredCacheRouter::Invalidate(FilterTag tag) { caches_.erase(tag); }

void FilteredCacheRouter::Clear() { caches_.clear(); }

}  // namespace proximity
