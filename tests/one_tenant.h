// A single tenant is a TenantRegistry of one: the serving stack the
// driver suites stand up over one index — a registry whose default
// tenant takes `cache`, and the BatchingDriver over it.
#pragma once

#include "cache/approx_cache.h"
#include "embed/hash_embedder.h"
#include "index/vector_index.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"

namespace proximity {

struct OneTenant {
  /// `cache` must use the index's metric (the driver rejects a mismatch).
  OneTenant(const VectorIndex& index, const ApproxCacheOptions& cache,
            const HashEmbedder* embedder = nullptr,
            BatchingDriverOptions options = {})
      : registry(index.dim(), {.cache_defaults = cache}),
        driver(index, registry, embedder, options) {}

  /// The default tenant's document cache.
  ProximityCache& cache() { return registry.CacheFor(kDefaultTenant); }

  TenantRegistry registry;
  BatchingDriver driver;
};

}  // namespace proximity
