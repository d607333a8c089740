#include "cache/approx_cache.h"

#include <stdexcept>
#include <type_traits>

#include "common/serde.h"
#include "obs/metrics_registry.h"
#include "obs/scan_stats.h"
#include "obs/span.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {

// Cache snapshot magic tag (see index/index_io.h for the index tags).
constexpr std::uint32_t kCacheMagic = 0x48434350;  // "PCCH"

// Registry mirrors of ApproxCacheStats, one family per tier. The struct
// fields are guarded by the cache mutex; these counters are per-thread
// relaxed atomics, safe under any interleaving and visible to the
// exporters. Gauges are process-level: with several cache instances of a
// tier the last writer wins.
struct Telemetry {
  explicit Telemetry(const std::string& tier)
      : lookups(tier + ".lookups"),
        hits(tier + ".hits"),
        misses(tier + ".misses"),
        insertions(tier + ".insertions"),
        refreshes(tier + ".refreshes"),
        evictions(tier + ".evictions"),
        keys_scanned(tier + ".keys_scanned"),
        expired_skips(tier + ".expired_skips"),
        stale_hits(tier + ".stale_hits"),
        stale_evictions(tier + ".stale_evictions"),
        occupancy(tier + ".occupancy"),
        capacity(tier + ".capacity") {}

  obs::CounterHandle lookups, hits, misses, insertions, refreshes, evictions,
      keys_scanned, expired_skips, stale_hits, stale_evictions;
  obs::GaugeHandle occupancy, capacity;
};

const Telemetry kDocumentTier("cache");
const Telemetry kAnswerTier("acache");

template <typename Value>
const Telemetry& Tel() {
  if constexpr (std::is_same_v<Value, CachedAnswer>) {
    return kAnswerTier;
  } else {
    return kDocumentTier;
  }
}

void CheckDim(std::span<const float> query, std::size_t dim,
              const char* what) {
  if (query.size() != dim) {
    throw std::invalid_argument(std::string("ApproxCache::") + what +
                                ": dim mismatch");
  }
}

}  // namespace

const char* StalenessPolicyName(StalenessPolicy policy) noexcept {
  switch (policy) {
    case StalenessPolicy::kServeStale:
      return "serve-stale";
    case StalenessPolicy::kRevalidate:
      return "revalidate";
    case StalenessPolicy::kInvalidateRegion:
      return "invalidate-region";
  }
  return "unknown";
}

bool ParseStalenessPolicy(const std::string& name, StalenessPolicy* out) {
  if (name == "serve-stale") {
    *out = StalenessPolicy::kServeStale;
  } else if (name == "revalidate") {
    *out = StalenessPolicy::kRevalidate;
  } else if (name == "invalidate-region") {
    *out = StalenessPolicy::kInvalidateRegion;
  } else {
    return false;
  }
  return true;
}

template <typename Value>
void ApproxCache<Value>::ValidateOptions(std::size_t dim,
                                         const ApproxCacheOptions& options) {
  if (dim == 0) throw std::invalid_argument("ApproxCache: dim must be > 0");
  if (options.capacity == 0) {
    throw std::invalid_argument("ApproxCache: capacity must be > 0");
  }
  if (options.tolerance < 0.f && options.metric != Metric::kInnerProduct) {
    // Negative tolerances only make sense for inner-product distances,
    // which are negated similarities and can be any real number.
    throw std::invalid_argument(
        "ApproxCache: tolerance must be >= 0 for L2/cosine metrics");
  }
}

template <typename Value>
ApproxCache<Value>::ApproxCache(std::size_t dim, ApproxCacheOptions options)
    : dim_(dim),
      options_(options),
      policy_(MakeEvictionPolicy(options.eviction, options.seed)),
      keys_(0, dim) {
  ValidateOptions(dim, options_);
  ResetArena();
}

template <typename Value>
void ApproxCache<Value>::ResetArena() {
  keys_ = Matrix(0, dim_);
  keys_.Reserve(options_.capacity);
  // Cosine scans reuse stored per-key squared norms (bit-identical to the
  // single-pair kernel), so every Lookup skips the per-key norm pass.
  if (options_.metric == Metric::kCosine) keys_.EnableNormCache();
  values_.clear();
  values_.reserve(options_.capacity);
  birth_.clear();
  entry_gen_.clear();
  op_tick_ = 0;
  policy_->Clear();
}

template <typename Value>
std::size_t ApproxCache<Value>::size() const {
  std::lock_guard lock(mu_);
  return keys_.rows();
}

template <typename Value>
float ApproxCache<Value>::tolerance() const {
  std::lock_guard lock(mu_);
  return options_.tolerance;
}

template <typename Value>
void ApproxCache<Value>::set_tolerance(float tau) {
  std::lock_guard lock(mu_);
  options_.tolerance = tau;
}

template <typename Value>
void ApproxCache<Value>::set_generation(std::uint64_t gen) {
  std::lock_guard lock(mu_);
  generation_ = gen;
}

template <typename Value>
std::uint64_t ApproxCache<Value>::generation() const {
  std::lock_guard lock(mu_);
  return generation_;
}

template <typename Value>
std::optional<std::pair<std::size_t, float>> ApproxCache<Value>::ScanKeys(
    std::span<const float> query) {
  const std::size_t n = keys_.rows();
  if (n == 0) return std::nullopt;
  const obs::Span span(obs::Stage::kCacheScan);
  scan_buffer_.resize(n);
  BatchDistanceWithNorms(options_.metric, query, keys_.data(),
                         keys_.RowNorms(), n, dim_, scan_buffer_.data());
  stats_.keys_scanned += n;
  Tel<Value>().keys_scanned.Inc(n);
  // Cache key scans are float primary scans: they feed the same scan.*
  // bandwidth accounting as the index scans (docs/METRICS.md).
  obs::ScanPrimaryBytes(n * dim_ * sizeof(float));
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < n; ++i) {
    if (options_.max_age != 0 && op_tick_ - birth_[i] > options_.max_age) {
      // Expired entries are invisible to lookups; count only the ones
      // that would otherwise have matched, so the stat is meaningful.
      if (scan_buffer_[i] <= options_.tolerance) {
        ++stats_.expired_skips;
        Tel<Value>().expired_skips.Inc();
      }
      continue;
    }
    if (!best || scan_buffer_[i] < scan_buffer_[*best]) best = i;
  }
  if (!best) return std::nullopt;
  return std::make_pair(*best, scan_buffer_[*best]);
}

template <typename Value>
typename ApproxCache<Value>::LookupResult ApproxCache<Value>::Lookup(
    std::span<const float> query) {
  CheckDim(query, dim_, "Lookup");
  const Telemetry& tel = Tel<Value>();
  // The span covers lock acquisition too, so cache_lookup latency under
  // the serving driver includes contention on the cache mutex.
  const obs::Span span(obs::Stage::kCacheLookup);
  std::lock_guard lock(mu_);
  ++stats_.lookups;
  ++op_tick_;
  tel.lookups.Inc();

  LookupResult result;
  const auto best = ScanKeys(query);
  if (best) result.best_distance = best->second;
  if (!best || best->second > options_.tolerance) {
    ++stats_.misses;
    tel.misses.Inc();
    return result;
  }
  // Staleness contract (DESIGN.md §13): a within-τ match filled under an
  // older index generation is a stale hit; what happens next is the
  // configured policy's call.
  const bool stale = entry_gen_[best->first] != generation_;
  if (stale) {
    ++stats_.stale_hits;
    tel.stale_hits.Inc();
    if (options_.staleness != StalenessPolicy::kServeStale) {
      std::vector<std::size_t> drop;
      if (options_.staleness == StalenessPolicy::kRevalidate) {
        drop.push_back(best->first);
      } else {
        // Purge the whole τ-neighborhood of the query: every entry close
        // enough to have served this query is suspect after a mutation.
        // scan_buffer_ still holds this lookup's distances.
        for (std::size_t i = 0; i < keys_.rows(); ++i) {
          if (scan_buffer_[i] <= options_.tolerance) drop.push_back(i);
        }
      }
      RemoveSlots(drop);
      ++stats_.misses;
      tel.misses.Inc();
      return result;
    }
  }
  result.hit = true;
  result.stale = stale;
  result.value = values_[best->first];
  ++stats_.hits;
  tel.hits.Inc();
  policy_->OnAccess(best->first);
  return result;
}

template <typename Value>
void ApproxCache<Value>::RemoveSlots(const std::vector<std::size_t>& slots) {
  if (slots.empty()) return;
  // Swap-with-last compaction, highest slot first so earlier swaps never
  // move a slot that is still pending removal.
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    const std::size_t slot = *it;
    const std::size_t last = keys_.rows() - 1;
    if (slot != last) {
      keys_.SetRow(slot, keys_.Row(last));
      values_[slot] = std::move(values_[last]);
      birth_[slot] = birth_[last];
      entry_gen_[slot] = entry_gen_[last];
    }
    keys_.TruncateRows(last);
    values_.pop_back();
    birth_.pop_back();
    entry_gen_.pop_back();
    ++stats_.stale_evictions;
    Tel<Value>().stale_evictions.Inc();
  }
  // Eviction policies track slots, not entries; rebuild their
  // bookkeeping in slot order (the LoadFrom warm-restart approximation).
  policy_->Clear();
  for (std::size_t i = 0; i < keys_.rows(); ++i) policy_->OnInsert(i);
  Tel<Value>().occupancy.Set(static_cast<double>(keys_.rows()));
}

template <typename Value>
void ApproxCache<Value>::Insert(std::span<const float> query, Value value) {
  CheckDim(query, dim_, "Insert");
  const obs::Span span(obs::Stage::kInsert);
  std::lock_guard lock(mu_);
  InsertLocked(query, std::move(value));
}

template <typename Value>
void ApproxCache<Value>::InsertLocked(std::span<const float> query,
                                      Value value) {
  const Telemetry& tel = Tel<Value>();
  ++op_tick_;
  std::size_t slot;
  if (keys_.rows() < options_.capacity) {
    slot = keys_.rows();
    keys_.AppendRow(query);
    values_.emplace_back(std::move(value));
    birth_.push_back(op_tick_);
    entry_gen_.push_back(generation_);
  } else {
    const obs::Span evict_span(obs::Stage::kEvict);
    slot = policy_->SelectVictim();
    ++stats_.evictions;
    tel.evictions.Inc();
    keys_.SetRow(slot, query);  // keeps the norm cache in sync
    values_[slot] = std::move(value);
    birth_[slot] = op_tick_;
    entry_gen_[slot] = generation_;
  }
  ++stats_.insertions;
  tel.insertions.Inc();
  tel.occupancy.Set(static_cast<double>(keys_.rows()));
  tel.capacity.Set(static_cast<double>(options_.capacity));
  policy_->OnInsert(slot);
}

template <typename Value>
void ApproxCache<Value>::Upsert(std::span<const float> query, Value value) {
  CheckDim(query, dim_, "Upsert");
  const obs::Span span(obs::Stage::kInsert);
  std::lock_guard lock(mu_);
  const auto best = ScanKeys(query);
  if (!best || best->second > options_.tolerance) {
    InsertLocked(query, std::move(value));
    return;
  }
  // The refreshed entry keeps its place in the eviction order: telling
  // the policy about it again would queue the slot twice.
  const Telemetry& tel = Tel<Value>();
  const std::size_t slot = best->first;
  ++op_tick_;
  keys_.SetRow(slot, query);
  values_[slot] = std::move(value);
  birth_[slot] = op_tick_;
  entry_gen_[slot] = generation_;
  ++stats_.insertions;
  ++stats_.refreshes;
  tel.insertions.Inc();
  tel.refreshes.Inc();
  tel.occupancy.Set(static_cast<double>(keys_.rows()));
  tel.capacity.Set(static_cast<double>(options_.capacity));
}

template <typename Value>
void ApproxCache<Value>::Clear() {
  std::lock_guard lock(mu_);
  ResetArena();
  Tel<Value>().occupancy.Set(0.0);
}

template <typename Value>
ApproxCacheStats ApproxCache<Value>::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

template <typename Value>
void ApproxCache<Value>::ResetStats() {
  std::lock_guard lock(mu_);
  stats_ = {};
}

template <typename Value>
std::vector<float> ApproxCache<Value>::KeyAt(std::size_t slot) const {
  std::lock_guard lock(mu_);
  if (slot >= keys_.rows()) {
    throw std::out_of_range("ApproxCache::KeyAt: bad slot");
  }
  const auto row = keys_.Row(slot);
  return {row.begin(), row.end()};
}

template <typename Value>
Value ApproxCache<Value>::ValueAt(std::size_t slot) const {
  std::lock_guard lock(mu_);
  if (slot >= values_.size()) {
    throw std::out_of_range("ApproxCache::ValueAt: bad slot");
  }
  return values_[slot];
}

template <>
void ProximityCache::SaveTo(std::ostream& os) const {
  std::lock_guard lock(mu_);
  BinaryWriter w(os);
  // v2 appends the staleness contract (policy, index generation, per-
  // entry fill generations); v1 snapshots load with serve-stale/gen 0.
  WriteHeader(w, kCacheMagic, /*version=*/2);
  w.WriteU64(dim_);
  w.WriteU64(options_.capacity);
  w.WriteF32(options_.tolerance);
  w.WriteU32(static_cast<std::uint32_t>(options_.metric));
  w.WriteU32(static_cast<std::uint32_t>(options_.eviction));
  w.WriteU64(options_.seed);
  w.WriteU64(options_.max_age);
  WriteMatrix(w, keys_);
  w.WriteU64(values_.size());
  for (const auto& docs : values_) {
    w.WriteI64s(docs);
  }
  w.WriteU32(static_cast<std::uint32_t>(options_.staleness));
  w.WriteU64(generation_);
  w.WriteU64s(entry_gen_);
  w.Finish();
}

template <>
void ProximityCache::LoadFrom(std::istream& is) {
  // Parse and verify the whole snapshot before touching this cache, so
  // a corrupt one leaves it as it was.
  BinaryReader r(is);
  const std::uint32_t version = ReadHeader(r, kCacheMagic, /*max_version=*/2);
  const std::uint64_t dim = r.ReadU64();
  if (dim != dim_) {
    throw std::runtime_error("ProximityCache::LoadFrom: snapshot dim " +
                             std::to_string(dim) + " != cache dim " +
                             std::to_string(dim_));
  }
  ApproxCacheOptions opts;
  opts.capacity = r.ReadU64();
  opts.tolerance = r.ReadF32();
  opts.metric = ReadEnum(r, kLastMetric);
  opts.eviction = ReadEnum(r, EvictionKind::kClock);
  opts.seed = r.ReadU64();
  opts.max_age = r.ReadU64();
  Matrix keys = ReadMatrix(r);
  const std::uint64_t entries = r.ReadU64();
  if (entries != keys.rows() || entries > opts.capacity ||
      keys.dim() != dim) {
    throw std::runtime_error("ProximityCache::LoadFrom: shape mismatch");
  }
  std::vector<std::vector<VectorId>> values;
  values.reserve(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    values.push_back(r.ReadI64s());
  }
  std::uint64_t generation = 0;
  std::vector<std::uint64_t> entry_gens;
  if (version >= 2) {
    opts.staleness = ReadEnum(r, StalenessPolicy::kInvalidateRegion);
    generation = r.ReadU64();
    entry_gens = r.ReadU64s(entries);
    if (entry_gens.size() != entries) {
      throw std::runtime_error(
          "ProximityCache::LoadFrom: generation list mismatch");
    }
  }
  r.VerifyChecksum();
  ValidateOptions(dim, opts);

  std::lock_guard lock(mu_);
  // The metric is fixed by the index the cache fronts (§3.1), like dim.
  if (opts.metric != options_.metric) {
    throw std::runtime_error("ProximityCache::LoadFrom: snapshot metric " +
                             std::string(MetricName(opts.metric)) +
                             " != cache metric " +
                             std::string(MetricName(options_.metric)));
  }
  options_ = opts;
  policy_ = MakeEvictionPolicy(opts.eviction, opts.seed);
  ResetArena();
  generation_ = generation;
  for (std::size_t i = 0; i < values.size(); ++i) {
    InsertLocked(keys.Row(i), std::move(values[i]));
  }
  // v1 snapshots carry no fill generations: entries take generation_.
  if (!entry_gens.empty()) entry_gen_ = std::move(entry_gens);
  stats_ = {};  // the insertions above are reconstruction, not use
}

template class ApproxCache<std::vector<VectorId>>;
template class ApproxCache<CachedAnswer>;

}  // namespace proximity
