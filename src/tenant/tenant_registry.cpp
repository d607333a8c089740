#include "tenant/tenant_registry.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.h"

namespace proximity {

namespace {
// Registry-level gauge; per-tenant families are built per State below.
const obs::GaugeHandle kObsRegistered("tenant.registered");
}  // namespace

TokenBucket::TokenBucket(double rate, double burst)
    : rate_(rate), burst_(burst), tokens_(burst) {}

bool TokenBucket::TryAcquire(std::chrono::steady_clock::time_point now,
                             double cost) {
  if (!primed_) {
    primed_ = true;
    last_ = now;
  }
  const double elapsed_s =
      std::chrono::duration<double>(now - last_).count();
  if (elapsed_s > 0) {
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
    last_ = now;
  }
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

namespace {

/// The per-tenant `tenant.<label>.*` metric family. Beyond the
/// cardinality cap every tenant shares one family labeled "other".
struct ObsFamily {
  explicit ObsFamily(const std::string& label)
      : submitted("tenant." + label + ".submitted"),
        hits("tenant." + label + ".hits"),
        answer_hits("tenant." + label + ".answer_hits"),
        retrieved("tenant." + label + ".retrieved"),
        coalesced("tenant." + label + ".coalesced"),
        shed("tenant." + label + ".shed"),
        expired("tenant." + label + ".expired"),
        quota_shed("tenant." + label + ".quota_shed"),
        mutations("tenant." + label + ".mutations"),
        occupancy("tenant." + label + ".cache_occupancy") {}

  obs::CounterHandle submitted, hits, answer_hits, retrieved, coalesced,
      shed, expired, quota_shed, mutations;
  obs::GaugeHandle occupancy;
};

}  // namespace

struct TenantRegistry::State {
  State(std::size_t dim, const TenantSpec& s,
        const ApproxCacheOptions& cache_opts, float tau_answer,
        std::string obs_label)
      : spec(s),
        cache(dim, cache_opts),
        answer_tau(tau_answer),
        obs(std::move(obs_label)),
        bucket(s.quota.qps,
               s.quota.burst > 0 ? s.quota.burst
                                 : std::max(s.quota.qps, 1.0)) {
    if (s.adaptive_tau) adaptive.emplace(s.adaptive);
  }

  TenantSpec spec;
  ProximityCache cache;
  float answer_tau;
  ObsFamily obs;
  TokenBucket bucket;
  std::optional<AdaptiveTau> adaptive;
  std::size_t inflight = 0;
};

TenantRegistry::TenantRegistry(std::size_t dim,
                               TenantRegistryOptions options)
    : dim_(dim), options_(std::move(options)) {
  TenantSpec default_spec;
  default_spec.id = kDefaultTenant;
  Register(default_spec);
}

TenantRegistry::~TenantRegistry() = default;

std::unique_ptr<TenantRegistry::State> TenantRegistry::MakeState(
    const TenantSpec& spec) {
  ApproxCacheOptions cache_opts = options_.cache_defaults;
  if (spec.cache_capacity > 0) cache_opts.capacity = spec.cache_capacity;
  if (spec.tolerance >= 0) {
    cache_opts.tolerance = static_cast<float>(spec.tolerance);
  }
  if (spec.adaptive_tau) {
    cache_opts.tolerance = static_cast<float>(spec.adaptive.initial_tau);
  }
  const float answer_tau = spec.answer_tau >= 0
                               ? static_cast<float>(spec.answer_tau)
                               : options_.answer_defaults.tolerance;
  const std::string label =
      tenants_.size() < options_.max_obs_tenants
          ? (spec.name.empty() ? std::to_string(spec.id) : spec.name)
          : "other";
  return std::make_unique<State>(dim_, spec, cache_opts, answer_tau, label);
}

TenantId TenantRegistry::Register(const TenantSpec& spec) {
  if (spec.weight <= 0) {
    throw std::invalid_argument("TenantSpec: weight must be > 0");
  }
  std::lock_guard lock(mu_);
  auto it = tenants_.find(spec.id);
  if (it == tenants_.end()) {
    tenants_.emplace(spec.id, MakeState(spec));
    kObsRegistered.Set(static_cast<double>(tenants_.size()));
  } else if (it->second->spec != spec) {
    throw std::invalid_argument(
        "TenantRegistry: tenant " + std::to_string(spec.id) +
        " is already registered with a different spec");
  }
  return spec.id;
}

std::size_t TenantRegistry::tenant_count() const {
  std::lock_guard lock(mu_);
  return tenants_.size();
}

std::vector<TenantId> TenantRegistry::ids() const {
  std::lock_guard lock(mu_);
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) out.push_back(id);
  return out;
}

bool TenantRegistry::Has(TenantId id) const {
  std::lock_guard lock(mu_);
  return tenants_.find(id) != tenants_.end();
}

TenantId TenantRegistry::Resolve(TenantId id) {
  {
    std::lock_guard lock(mu_);
    if (tenants_.find(id) != tenants_.end()) return id;
    if (options_.unknown_policy == UnknownTenantPolicy::kMapToDefault) {
      return kDefaultTenant;
    }
  }
  TenantSpec spec;
  spec.id = id;
  return Register(spec);
}

TenantRegistry::State& TenantRegistry::StateFor(TenantId id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    throw std::out_of_range("TenantRegistry: unknown tenant " +
                            std::to_string(id));
  }
  return *it->second;
}

const TenantRegistry::State& TenantRegistry::StateFor(TenantId id) const {
  return const_cast<TenantRegistry*>(this)->StateFor(id);
}

Admission TenantRegistry::Admit(TenantId id) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mu_);
  State& state = StateFor(id);
  const TenantQuota& quota = state.spec.quota;
  if (quota.max_inflight != 0 && state.inflight >= quota.max_inflight) {
    return Admission::kOverInflight;
  }
  if (quota.qps > 0 && !state.bucket.TryAcquire(now)) {
    return Admission::kOverRate;
  }
  ++state.inflight;
  return Admission::kAdmitted;
}

void TenantRegistry::OnDone(TenantId id) {
  std::lock_guard lock(mu_);
  State& state = StateFor(id);
  if (state.inflight > 0) --state.inflight;
}

std::vector<TenantInfo> TenantRegistry::Infos() const {
  std::lock_guard lock(mu_);
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) {
    TenantInfo info;
    info.id = id;
    info.name = state->spec.name.empty() ? std::to_string(id)
                                         : state->spec.name;
    info.quota = state->spec.quota;
    info.weight = state->spec.weight;
    info.tolerance = state->cache.tolerance();
    info.answer_tau = state->answer_tau;
    info.cache_entries = state->cache.size();
    info.inflight = state->inflight;
    info.cache = state->cache.stats();
    out.push_back(std::move(info));
  }
  return out;
}

ProximityCache& TenantRegistry::CacheFor(TenantId id) {
  std::lock_guard lock(mu_);
  return StateFor(id).cache;
}

float TenantRegistry::AnswerTauFor(TenantId id) const {
  std::lock_guard lock(mu_);
  return StateFor(id).answer_tau;
}

double TenantRegistry::WeightFor(TenantId id) const {
  std::lock_guard lock(mu_);
  return StateFor(id).spec.weight;
}

void TenantRegistry::ObserveLookup(TenantId id, bool hit) {
  ProximityCache* cache = nullptr;
  float next_tau = 0.0f;
  {
    std::lock_guard lock(mu_);
    State& state = StateFor(id);
    if (!state.adaptive) return;
    next_tau = static_cast<float>(state.adaptive->Observe(hit));
    cache = &state.cache;
  }
  // The cache has its own mutex; set τ outside the registry lock.
  cache->set_tolerance(next_tau);
}

void TenantRegistry::Record(TenantId id, const TenantCounters& delta) {
  const ObsFamily* fam = nullptr;
  double occupancy = 0.0;
  {
    std::lock_guard lock(mu_);
    State& state = StateFor(id);
    fam = &state.obs;
    occupancy = static_cast<double>(state.cache.size());
  }
  if (delta.submitted) fam->submitted.Inc(delta.submitted);
  if (delta.hits) fam->hits.Inc(delta.hits);
  if (delta.answer_hits) fam->answer_hits.Inc(delta.answer_hits);
  if (delta.retrieved) fam->retrieved.Inc(delta.retrieved);
  if (delta.coalesced) fam->coalesced.Inc(delta.coalesced);
  if (delta.shed) fam->shed.Inc(delta.shed);
  if (delta.expired) fam->expired.Inc(delta.expired);
  if (delta.quota_shed) fam->quota_shed.Inc(delta.quota_shed);
  if (delta.mutations) fam->mutations.Inc(delta.mutations);
  fam->occupancy.Set(occupancy);
}

namespace {

bool ParseBool(const std::string& value) {
  return value == "1" || value == "true" || value == "yes";
}

}  // namespace

std::vector<TenantSpec> ParseTenantSpecs(const std::string& text) {
  std::vector<TenantSpec> specs;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream tokens(line);
    std::string token;
    TenantSpec spec;
    bool have_id = false, any = false;
    while (tokens >> token) {
      any = true;
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument(
            "tenant spec line " + std::to_string(lineno) +
            ": expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "id") {
          spec.id = static_cast<TenantId>(std::stoul(value));
          have_id = true;
        } else if (key == "name") {
          spec.name = value;
        } else if (key == "qps") {
          spec.quota.qps = std::stod(value);
        } else if (key == "burst") {
          spec.quota.burst = std::stod(value);
        } else if (key == "max_inflight") {
          spec.quota.max_inflight = std::stoul(value);
        } else if (key == "capacity") {
          spec.cache_capacity = std::stoul(value);
        } else if (key == "tau") {
          spec.tolerance = std::stod(value);
        } else if (key == "answer_tau") {
          spec.answer_tau = std::stod(value);
        } else if (key == "weight") {
          spec.weight = std::stod(value);
        } else if (key == "adaptive") {
          spec.adaptive_tau = ParseBool(value);
        } else if (key == "target_hit_rate") {
          spec.adaptive.target_hit_rate = std::stod(value);
          spec.adaptive_tau = true;
        } else {
          throw std::invalid_argument("unknown key '" + key + "'");
        }
      } catch (const std::invalid_argument&) {
        throw std::invalid_argument(
            "tenant spec line " + std::to_string(lineno) + ": bad '" +
            token + "'");
      }
    }
    if (!any) continue;
    if (!have_id) {
      throw std::invalid_argument("tenant spec line " +
                                  std::to_string(lineno) + ": missing id=");
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<TenantSpec> LoadTenantSpecs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read tenant roster: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseTenantSpecs(text.str());
}

}  // namespace proximity
