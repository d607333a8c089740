#include "cache/approx_cache.h"

#include <algorithm>
#include <stdexcept>

#include "common/serde.h"
#include "obs/metrics_registry.h"
#include "obs/scan_stats.h"
#include "obs/span.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {

// Cache snapshot magic tag (see index/index_io.h for the index tags).
constexpr std::uint32_t kCacheMagic = 0x48434350;  // "PCCH"

// Registry mirrors of ApproxCacheStats. The struct fields are guarded by
// the cache mutex; these counters are per-thread relaxed atomics, safe
// under any interleaving and visible to the exporters. Gauges are
// process-level: with several cache instances the last writer wins.
const obs::CounterHandle kObsLookups("cache.lookups");
const obs::CounterHandle kObsHits("cache.hits");
const obs::CounterHandle kObsMisses("cache.misses");
const obs::CounterHandle kObsInsertions("cache.insertions");
const obs::CounterHandle kObsEvictions("cache.evictions");
const obs::CounterHandle kObsKeysScanned("cache.keys_scanned");
const obs::CounterHandle kObsStaleHits("cache.stale_hits");
const obs::CounterHandle kObsStaleEvictions("cache.stale_evictions");
const obs::GaugeHandle kObsOccupancy("cache.occupancy");
const obs::GaugeHandle kObsCapacity("cache.capacity");

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

void ApproxCache::ValidateOptions(std::size_t dim,
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

ApproxCache::ApproxCache(std::size_t dim, ApproxCacheOptions options)
    : dim_(dim),
      options_(options),
      policy_(MakeEvictionPolicy(options.eviction, options.seed)),
      keys_(0, dim) {
  ValidateOptions(dim, options_);
  ResetArena();
}

void ApproxCache::ResetArena() {
  keys_ = Matrix(0, dim_);
  keys_.Reserve(options_.capacity);
  // Cosine scans reuse stored per-key squared norms (bit-identical to the
  // single-pair kernel), so every Lookup skips the per-key norm pass.
  if (options_.metric == Metric::kCosine) keys_.EnableNormCache();
  values_.clear();
  values_.reserve(options_.capacity);
  entry_gen_.clear();
  entry_version_.clear();
  policy_->Clear();
  Reset();
}

std::size_t ApproxCache::size() const {
  std::lock_guard lock(mu_);
  return keys_.rows();
}

float ApproxCache::tolerance() const {
  std::lock_guard lock(mu_);
  return options_.tolerance;
}

void ApproxCache::set_tolerance(float tau) {
  std::lock_guard lock(mu_);
  if (tau != options_.tolerance) Reset();
  options_.tolerance = tau;
}

void ApproxCache::set_generation(std::uint64_t gen) {
  std::lock_guard lock(mu_);
  if (gen != generation_) Reset();
  generation_ = gen;
}

std::uint64_t ApproxCache::generation() const {
  std::lock_guard lock(mu_);
  return generation_;
}

std::optional<std::pair<std::size_t, float>> ApproxCache::ScanKeys(
    std::span<const float> query, float radius) {
  const std::size_t n = keys_.rows();
  if (n == 0) return std::nullopt;
  const obs::Span span(obs::Stage::kCacheScan);
  stats_.keys_scanned += n;
  kObsKeysScanned.Inc(n);
  // Early abandon needs non-negative terms (squared L2 only) and wants
  // only the nearest key; invalidate-region reads every distance. Its
  // prepass pays off only when a key lies within the radius, so a scan
  // that follows one whose nearest key lay outside it streams every key,
  // as a run of misses does.
  if (options_.metric == Metric::kL2 &&
      options_.staleness != StalenessPolicy::kInvalidateRegion &&
      last_scan_near_) {
    scan_buffer_.resize(n * kNearestL2ScratchPerRow);
    const NearestRow best =
        NearestL2(query, keys_.data(), n, dim_, radius, scan_buffer_.data());
    // Cache key scans are float primary scans: they feed the same scan.*
    // bandwidth accounting as the index scans, with the bytes actually
    // read (docs/METRICS.md).
    obs::ScanPrimaryBytes(best.floats_read * sizeof(float));
    last_scan_near_ = best.distance <= radius;
    return std::make_pair(best.row, best.distance);
  }
  scan_buffer_.resize(n);
  BatchDistanceWithNorms(options_.metric, query, keys_.data(),
                         keys_.RowNorms(), n, dim_, scan_buffer_.data());
  obs::ScanPrimaryBytes(n * dim_ * sizeof(float));
  const auto best = std::min_element(scan_buffer_.begin(), scan_buffer_.end());
  last_scan_near_ = *best <= radius;
  return std::make_pair(
      static_cast<std::size_t>(best - scan_buffer_.begin()), *best);
}

ApproxCache::LookupResult ApproxCache::Lookup(
    std::span<const float> query, std::optional<float> answer_tau) {
  CheckDim(query, dim_, "Lookup");
  // The span covers lock acquisition too, so cache_lookup latency under
  // the serving driver includes contention on the cache mutex.
  const obs::Span span(obs::Stage::kCacheLookup);
  std::lock_guard lock(mu_);
  return LookupLocked(query, answer_tau, /*count_miss=*/true);
}

ApproxCache::LookupResult ApproxCache::Probe(
    std::span<const float> query, std::optional<float> answer_tau) {
  CheckDim(query, dim_, "Probe");
  const obs::Span span(obs::Stage::kCacheLookup);
  std::lock_guard lock(mu_);
  return LookupLocked(query, answer_tau, /*count_miss=*/false);
}

ApproxCache::LookupResult ApproxCache::Recheck(
    std::span<const float> query, std::optional<float> answer_tau,
    const LookupResult& probe) {
  CheckDim(query, dim_, "Recheck");
  const obs::Span span(obs::Stage::kCacheLookup);
  std::lock_guard lock(mu_);
  // The probe's keys are as it read them unless a reset came since or its
  // nearest key's slot was refilled. Invalidate-region drops need every
  // distance, so those caches always look again in full.
  const std::size_t n = keys_.rows();
  const bool held =
      probe.best_slot == kNoSlot ||
      (probe.best_slot < n && entry_version_[probe.best_slot] <= probe.version);
  if (probe.version < reset_version_ || !held ||
      options_.staleness == StalenessPolicy::kInvalidateRegion) {
    return LookupLocked(query, answer_tau, /*count_miss=*/true);
  }
  std::optional<std::pair<std::size_t, float>> best;
  if (probe.best_slot != kNoSlot) {
    best.emplace(probe.best_slot, probe.best_distance);
  }
  fresh_slots_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (entry_version_[i] > probe.version) {
      fresh_slots_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!fresh_slots_.empty()) {
    const obs::Span scan_span(obs::Stage::kCacheScan);
    const std::size_t k = fresh_slots_.size();
    scan_buffer_.resize(k);
    GatherDistance(options_.metric, query, keys_.data(), dim_,
                   fresh_slots_.data(), k, scan_buffer_.data());
    stats_.keys_scanned += k;
    kObsKeysScanned.Inc(k);
    obs::ScanPrimaryBytes(k * dim_ * sizeof(float));
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t slot = fresh_slots_[j];
      const float d = scan_buffer_[j];
      if (!best || d < best->second ||
          (d == best->second && slot < best->first)) {
        best.emplace(slot, d);
      }
    }
  }
  return Classify(best, answer_tau, /*count_miss=*/true);
}

ApproxCache::LookupResult ApproxCache::LookupLocked(
    std::span<const float> query, std::optional<float> answer_tau,
    bool count_miss) {
  return Classify(ScanKeys(query, answer_tau ? std::max(options_.tolerance,
                                                        *answer_tau)
                                             : options_.tolerance),
                  answer_tau, count_miss);
}

ApproxCache::LookupResult ApproxCache::Classify(
    std::optional<std::pair<std::size_t, float>> best,
    std::optional<float> answer_tau, bool count_miss) {
  LookupResult result;
  result.version = version_;
  if (best) {
    result.best_slot = best->first;
    result.best_distance = best->second;
  }
  // Staleness contract (DESIGN.md §13): an entry filled under an older
  // index generation is never an answer hit; within τ it is a stale hit,
  // and what happens next is the configured policy's call.
  const bool stale = best && entry_gen_[best->first] != generation_;
  const bool answer =
      best && !stale && answer_tau && best->second <= *answer_tau;
  result.hit = answer || (best && best->second <= options_.tolerance);
  if (result.hit && stale) {
    ++stats_.stale_hits;
    kObsStaleHits.Inc();
    if (options_.staleness != StalenessPolicy::kServeStale) {
      std::vector<std::size_t> drop;
      if (options_.staleness == StalenessPolicy::kRevalidate) {
        drop.push_back(best->first);
      } else {
        // Purge the whole τ-neighborhood of the query: every entry close
        // enough to have served this query is suspect after a mutation.
        // scan_buffer_ still holds this lookup's full scan.
        for (std::size_t i = 0; i < keys_.rows(); ++i) {
          if (scan_buffer_[i] <= options_.tolerance) drop.push_back(i);
        }
      }
      RemoveSlots(drop);
      result.hit = false;
    }
  }
  if (!result.hit) {
    if (count_miss) {
      ++stats_.lookups;
      ++stats_.misses;
      kObsLookups.Inc();
      kObsMisses.Inc();
    }
    return result;
  }
  ++stats_.lookups;
  ++stats_.hits;
  kObsLookups.Inc();
  kObsHits.Inc();
  result.answer = answer;
  result.stale = stale;
  result.value = values_[best->first];
  policy_->OnAccess(best->first);
  return result;
}

void ApproxCache::RemoveSlots(const std::vector<std::size_t>& slots) {
  if (slots.empty()) return;
  // Swap-with-last compaction, highest slot first so earlier swaps never
  // move a slot that is still pending removal.
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    const std::size_t slot = *it;
    const std::size_t last = keys_.rows() - 1;
    if (slot != last) {
      keys_.SetRow(slot, keys_.Row(last));
      values_[slot] = std::move(values_[last]);
      entry_gen_[slot] = entry_gen_[last];
      entry_version_[slot] = entry_version_[last];
    }
    keys_.TruncateRows(last);
    values_.pop_back();
    entry_gen_.pop_back();
    entry_version_.pop_back();
    ++stats_.stale_evictions;
    kObsStaleEvictions.Inc();
  }
  Reset();
  // Eviction policies track slots, not entries; rebuild their
  // bookkeeping in slot order (the LoadFrom warm-restart approximation).
  policy_->Clear();
  for (std::size_t i = 0; i < keys_.rows(); ++i) policy_->OnInsert(i);
  kObsOccupancy.Set(static_cast<double>(keys_.rows()));
}

void ApproxCache::Insert(std::span<const float> query,
                         std::vector<VectorId> docs) {
  CheckDim(query, dim_, "Insert");
  const obs::Span span(obs::Stage::kInsert);
  std::lock_guard lock(mu_);
  InsertLocked(query, std::move(docs));
}

void ApproxCache::InsertLocked(std::span<const float> query,
                               std::vector<VectorId> docs) {
  std::size_t slot;
  if (keys_.rows() < options_.capacity) {
    slot = keys_.rows();
    keys_.AppendRow(query);
    values_.emplace_back(std::move(docs));
    entry_gen_.push_back(generation_);
    entry_version_.push_back(0);
  } else {
    const obs::Span evict_span(obs::Stage::kEvict);
    slot = policy_->SelectVictim();
    ++stats_.evictions;
    kObsEvictions.Inc();
    keys_.SetRow(slot, query);  // keeps the norm cache in sync
    values_[slot] = std::move(docs);
    entry_gen_[slot] = generation_;
  }
  entry_version_[slot] = ++version_;
  ++stats_.insertions;
  kObsInsertions.Inc();
  kObsOccupancy.Set(static_cast<double>(keys_.rows()));
  kObsCapacity.Set(static_cast<double>(options_.capacity));
  policy_->OnInsert(slot);
}

void ApproxCache::Clear() {
  std::lock_guard lock(mu_);
  ResetArena();
  kObsOccupancy.Set(0.0);
}

ApproxCacheStats ApproxCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void ApproxCache::ResetStats() {
  std::lock_guard lock(mu_);
  stats_ = {};
}

std::vector<float> ApproxCache::KeyAt(std::size_t slot) const {
  std::lock_guard lock(mu_);
  if (slot >= keys_.rows()) {
    throw std::out_of_range("ApproxCache::KeyAt: bad slot");
  }
  const auto row = keys_.Row(slot);
  return {row.begin(), row.end()};
}

std::vector<VectorId> ApproxCache::ValueAt(std::size_t slot) const {
  std::lock_guard lock(mu_);
  if (slot >= values_.size()) {
    throw std::out_of_range("ApproxCache::ValueAt: bad slot");
  }
  return values_[slot];
}

void ApproxCache::SaveTo(std::ostream& os) const {
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
  w.WriteU64(0);  // the retired entry-age bound; LoadFrom requires 0
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

void ApproxCache::LoadFrom(std::istream& is) {
  // Parse and verify the whole snapshot before touching this cache, so
  // a corrupt one leaves it as it was.
  BinaryReader r(is);
  const std::uint32_t version = ReadHeader(r, kCacheMagic, /*max_version=*/2);
  const std::uint64_t dim = r.ReadU64();
  if (dim != dim_) {
    throw std::runtime_error("ApproxCache::LoadFrom: snapshot dim " +
                             std::to_string(dim) + " != cache dim " +
                             std::to_string(dim_));
  }
  ApproxCacheOptions opts;
  opts.capacity = r.ReadU64();
  opts.tolerance = r.ReadF32();
  opts.metric = ReadEnum(r, kLastMetric);
  opts.eviction = ReadEnum(r, EvictionKind::kClock);
  opts.seed = r.ReadU64();
  // An age-bounded snapshot would silently lose its bound: refuse it.
  const std::uint64_t age_bound = r.ReadU64();
  if (age_bound != 0) {
    throw std::runtime_error(
        "ApproxCache::LoadFrom: snapshot sets the retired max_age entry "
        "TTL (" + std::to_string(age_bound) +
        "); bound staleness with the index generation and a staleness "
        "policy instead");
  }
  Matrix keys = ReadMatrix(r);
  const std::uint64_t entries = r.ReadU64();
  if (entries != keys.rows() || entries > opts.capacity ||
      keys.dim() != dim) {
    throw std::runtime_error("ApproxCache::LoadFrom: shape mismatch");
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
          "ApproxCache::LoadFrom: generation list mismatch");
    }
  }
  r.VerifyChecksum();
  ValidateOptions(dim, opts);

  std::lock_guard lock(mu_);
  // The metric is fixed by the index the cache fronts (§3.1), like dim.
  if (opts.metric != options_.metric) {
    throw std::runtime_error("ApproxCache::LoadFrom: snapshot metric " +
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

}  // namespace proximity
