// A single tenant is a TenantRegistry of one: the serving stack the
// driver suites stand up over one index — a registry whose default
// tenant takes `cache`, and the BatchingDriver over it. ParkedFlusher
// holds any driver's flusher still on an event, for tests that need
// entries to sit in the admission queue.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

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

/// Parks a driver's flusher until Release(): the constructor submits a
/// decoy whose completion callback blocks the flusher thread, so entries
/// submitted meanwhile stay queued and flush together once released.
/// The decoy's deadline has already passed, so it completes
/// kDeadlineExceeded without touching the embedder, a cache or the
/// index: it counts as one submitted and one expired entry of the
/// default tenant, fully accounted in stats() when the constructor
/// returns.
/// Release (the destructor does) before the driver shuts down — a
/// parked flusher cannot drain — so declare the park after the driver.
class ParkedFlusher {
 public:
  /// `dim` is the driver's index dimension.
  ParkedFlusher(BatchingDriver& driver, std::size_t dim)
      : released_(release_.get_future().share()) {
    auto entered = std::make_shared<std::promise<RequestStatus>>();
    std::future<RequestStatus> parked = entered->get_future();
    SubmitOptions opts;
    opts.deadline = std::chrono::steady_clock::time_point::min();
    driver.SubmitAsync(std::vector<float>(dim, 0.0f), opts,
                       [entered, released = released_](BatchResult r) {
                         // Only a flushed decoy blocks; an inline refusal
                         // (shutdown, quota) must not hang the submitter.
                         const bool flushed =
                             r.status == RequestStatus::kDeadlineExceeded;
                         entered->set_value(r.status);
                         if (flushed) released.wait();
                       });
    if (parked.get() != RequestStatus::kDeadlineExceeded) {
      throw std::logic_error("ParkedFlusher: the decoy was not queued");
    }
  }

  ~ParkedFlusher() { Release(); }

  ParkedFlusher(const ParkedFlusher&) = delete;
  ParkedFlusher& operator=(const ParkedFlusher&) = delete;

  /// Un-parks the flusher. Idempotent; calls must not race each other.
  void Release() {
    if (!released_flag_) {
      released_flag_ = true;
      release_.set_value();
    }
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  bool released_flag_ = false;
};

}  // namespace proximity
