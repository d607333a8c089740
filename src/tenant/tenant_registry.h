// First-class multi-tenancy over the shared index (DESIGN.md §10).
//
// Grounded Cache Routing (PAPERS.md) makes the case that *whose* cached
// answer you reuse is a correctness decision: an approximate hit served
// across tenants is an isolation leak, not a win. The registry therefore
// gives every tenant its own ProximityCache (own capacity, own τ, own
// answer-reuse radius τ_answer, own optional AdaptiveTau controller)
// over the ONE shared vector index, so tenants share the corpus and the
// compute but never each other's cached answers.
//
// The registry is also the admission authority: each tenant carries a
// token-bucket QPS quota and an inflight cap, consulted by the
// BatchingDriver *before* any embedding or search work is spent on the
// request (over-quota submissions complete with RESOURCE_EXHAUSTED and
// count as `quota_shed` in the conservation invariant).
//
// Telemetry: the first `max_obs_tenants` registered tenants get their
// own `tenant.<label>.*` counter family in the metrics registry; later
// tenants fold into a shared `tenant.other.*` family so a burst of
// tenant registrations cannot exhaust the fixed-capacity registry
// (cardinality capping).
//
// Lock ordering: the BatchingDriver calls into the registry while
// holding its queue mutex; the registry never calls back into the
// driver, so driver-mutex → registry-mutex is the only order.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/adaptive_tau.h"
#include "cache/approx_cache.h"
#include "common/types.h"

namespace proximity {

/// Deterministic token bucket: time is passed in by the caller, so unit
/// tests can replay exact schedules and TSan never sees a clock read
/// under a lock.
class TokenBucket {
 public:
  /// `rate` tokens/second refill, `burst` bucket depth. The bucket
  /// starts full at the first TryAcquire.
  TokenBucket(double rate, double burst);

  /// Consumes `cost` tokens if available at `now`; false = over rate.
  bool TryAcquire(std::chrono::steady_clock::time_point now,
                  double cost = 1.0);

  double tokens() const noexcept { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  bool primed_ = false;
  std::chrono::steady_clock::time_point last_{};
};

/// Admission quota of one tenant. Zero means unlimited in both fields.
struct TenantQuota {
  /// Sustained queries/second (token refill rate); 0 = unlimited.
  double qps = 0.0;
  /// Bucket depth (burst allowance); 0 = max(qps, 1).
  double burst = 0.0;
  /// Admitted-but-uncompleted cap; 0 = unlimited.
  std::size_t max_inflight = 0;

  bool operator==(const TenantQuota&) const = default;
};

struct TenantSpec {
  TenantId id = kDefaultTenant;
  /// Label used in `tenant.<label>.*` metric names; "<id>" when empty.
  std::string name;
  TenantQuota quota;
  /// Cache entries for this tenant; 0 = registry default capacity.
  std::size_t cache_capacity = 0;
  /// Initial τ; negative = registry default tolerance.
  double tolerance = -1.0;
  /// Answer-reuse radius τ_answer on this tenant's cache; negative =
  /// registry answer_defaults tolerance.
  double answer_tau = -1.0;
  /// Weighted deficit-round-robin share in the batching flush (> 0).
  double weight = 1.0;
  /// Steer this tenant's τ with an AdaptiveTau controller.
  bool adaptive_tau = false;
  AdaptiveTauOptions adaptive;

  bool operator==(const TenantSpec&) const = default;
};

/// What to do with a request naming a tenant never registered.
enum class UnknownTenantPolicy {
  /// Create the tenant on first sight with default spec (open server).
  kAutoRegister,
  /// Serve it as the default tenant (closed tenant roster; documented
  /// in docs/OPERATIONS.md — unknown tenants share tenant 0's cache).
  kMapToDefault,
};

/// Registry-wide answer-reuse defaults (DESIGN.md §15). Answer reuse is
/// a second radius on each tenant's one cache, so only `tolerance`
/// configures it; whether the driver classifies answer hits at all is
/// its own `answer_reuse` option, which also requires `metric` to equal
/// cache_defaults.metric and `capacity` to be 0 or
/// cache_defaults.capacity.
struct AnswerReuseOptions {
  /// Default τ_answer: a nearest key this close, filled under the
  /// current index generation, is an answer hit.
  float tolerance = 0.5f;
  Metric metric = Metric::kL2;
  /// Entries; 0 = the cache's own capacity, the only one there is.
  std::size_t capacity = 0;
};

struct TenantRegistryOptions {
  /// Capacity/τ/metric template for tenants that do not override them.
  ApproxCacheOptions cache_defaults{};
  AnswerReuseOptions answer_defaults{};
  UnknownTenantPolicy unknown_policy = UnknownTenantPolicy::kAutoRegister;
  /// Tenants beyond this count share the `tenant.other.*` metric family.
  std::size_t max_obs_tenants = 8;
};

/// Outcome of one admission check.
enum class Admission {
  kAdmitted,
  /// Token bucket empty: sustained rate above the tenant's QPS quota.
  kOverRate,
  /// Tenant already has max_inflight admitted-but-uncompleted requests.
  kOverInflight,
};

/// Read-only snapshot of one tenant for introspection (/statusz).
struct TenantInfo {
  TenantId id = kDefaultTenant;
  std::string name;
  TenantQuota quota;
  double weight = 1.0;
  float tolerance = 0.0f;
  float answer_tau = 0.0f;
  std::size_t cache_entries = 0;
  std::size_t inflight = 0;
  ApproxCacheStats cache;
};

/// Per-tenant serve-outcome deltas, mirrored into `tenant.<label>.*`.
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t hits = 0;
  /// Answer hits on this tenant's cache (no search ran).
  std::uint64_t answer_hits = 0;
  std::uint64_t retrieved = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t quota_shed = 0;
  /// Live-corpus INSERT/DELETE requests applied for this tenant.
  std::uint64_t mutations = 0;
};

class TenantRegistry {
 public:
  /// `dim` is the embedding dimensionality of the shared index; every
  /// per-tenant cache is built over it. The default tenant always
  /// exists (created here with the default spec).
  explicit TenantRegistry(std::size_t dim,
                          TenantRegistryOptions options = {});

  /// Out of line: State is an incomplete type here.
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Creates the tenant and returns its id. Registering an existing id
  /// again with an identical spec is a no-op (so concurrent Resolve
  /// auto-registrations stay benign); with a different spec it throws
  /// std::invalid_argument naming the id — a tenant is never silently
  /// re-configured. The default tenant exists from construction with
  /// the default spec, configured through the registry options. Throws
  /// std::invalid_argument on weight <= 0.
  TenantId Register(const TenantSpec& spec);

  std::size_t tenant_count() const;
  std::vector<TenantId> ids() const;
  bool Has(TenantId id) const;

  /// Maps a wire tenant id onto a registered one per `unknown_policy`.
  TenantId Resolve(TenantId id);

  /// Consumes quota for one submission. kAdmitted increments the
  /// tenant's inflight count; the caller must pair it with OnDone once
  /// the request completes (any status).
  Admission Admit(TenantId id);
  void OnDone(TenantId id);

  /// The tenant's private approximate cache (stable reference: tenants
  /// are never destroyed while the registry lives).
  ProximityCache& CacheFor(TenantId id);

  /// The tenant's answer-reuse radius τ_answer.
  float AnswerTauFor(TenantId id) const;

  double WeightFor(TenantId id) const;

  /// Feeds the tenant's AdaptiveTau controller (no-op unless the spec
  /// enabled it) and applies the new τ to the tenant's cache.
  void ObserveLookup(TenantId id, bool hit);

  /// Adds serve-outcome deltas to the tenant's `tenant.<label>.*`
  /// counters and refreshes its cache-occupancy gauge.
  void Record(TenantId id, const TenantCounters& delta);

  /// Snapshot of every tenant (quota, weight, both radii, cache stats,
  /// inflight), ordered by id — the /statusz data source.
  std::vector<TenantInfo> Infos() const;

  std::size_t dim() const noexcept { return dim_; }
  const TenantRegistryOptions& options() const noexcept {
    return options_;
  }

 private:
  struct State;

  /// Caller must hold mu_. Throws std::out_of_range for unknown ids —
  /// callers are expected to Resolve first.
  State& StateFor(TenantId id);
  const State& StateFor(TenantId id) const;
  std::unique_ptr<State> MakeState(const TenantSpec& spec);

  std::size_t dim_;
  TenantRegistryOptions options_;
  mutable std::mutex mu_;
  std::map<TenantId, std::unique_ptr<State>> tenants_;
};

/// Parses a tenant roster: one tenant per line of space-separated
/// key=value pairs (`id=` required; `name= qps= burst= max_inflight=
/// capacity= tau= answer_tau= weight= adaptive= target_hit_rate=`
/// optional; '#' starts a comment). Throws
/// std::invalid_argument on malformed input.
std::vector<TenantSpec> ParseTenantSpecs(const std::string& text);

/// LoadTenantSpecs(path) = ParseTenantSpecs(file contents); throws
/// std::runtime_error when the file cannot be read.
std::vector<TenantSpec> LoadTenantSpecs(const std::string& path);

}  // namespace proximity
