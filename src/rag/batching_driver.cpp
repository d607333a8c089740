#include "rag/batching_driver.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {
const obs::CounterHandle kObsSubmitted("serve.submitted");
const obs::CounterHandle kObsHits("serve.hits");
const obs::CounterHandle kObsAnswerHits("serve.answer_hits");
const obs::CounterHandle kObsRetrieved("serve.retrieved");
const obs::CounterHandle kObsCoalesced("serve.coalesced");
const obs::CounterHandle kObsShed("serve.shed");
const obs::CounterHandle kObsExpired("serve.expired");
const obs::CounterHandle kObsQuotaShed("serve.quota_shed");
const obs::CounterHandle kObsMutations("serve.mutations");
const obs::CounterHandle kObsBatches("serve.batches");
// Values are batch sizes (unitless), not nanoseconds; the log-bucket
// histogram just needs a monotone integer scale.
const obs::HistogramHandle kObsBatchSize("serve.batch_size");
const obs::HistogramHandle kObsQueueWait("serve.queue_wait_ns");
}  // namespace

BatchingDriver::BatchingDriver(const VectorIndex& index,
                               TenantRegistry& registry,
                               const HashEmbedder* embedder,
                               BatchingDriverOptions options)
    : index_(index),
      registry_(registry),
      embedder_(embedder),
      options_(options) {
  if (options_.max_batch == 0) {
    throw std::invalid_argument("BatchingDriver: max_batch must be > 0");
  }
  if (options_.top_k == 0) {
    throw std::invalid_argument("BatchingDriver: top_k must be > 0");
  }
  if (registry.dim() != index.dim()) {
    throw std::invalid_argument(
        "BatchingDriver: registry/index dim mismatch");
  }
  // §3.1: proximity is only meaningful in the database's own distance
  // function. Every tenant's cache takes the registry's template.
  const TenantRegistryOptions& topts = registry.options();
  if (topts.cache_defaults.metric != index.metric()) {
    throw std::invalid_argument(
        "BatchingDriver: cache metric differs from index metric");
  }
  // Answer reuse is a second radius on that one cache (DESIGN.md §15):
  // it has no metric or capacity of its own to differ.
  const AnswerReuseOptions& aopts = topts.answer_defaults;
  if (options_.answer_reuse &&
      (aopts.metric != topts.cache_defaults.metric ||
       (aopts.capacity != 0 &&
        aopts.capacity != topts.cache_defaults.capacity))) {
    throw std::invalid_argument(
        "BatchingDriver: answer_defaults metric/capacity differ from "
        "cache_defaults (answer reuse is a radius on the one cache)");
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

BatchingDriver::~BatchingDriver() { Shutdown(); }

namespace {

// Adapts the future API onto the callback path: non-OK outcomes become
// exceptions on the future.
BatchCallback PromiseCallback(
    std::shared_ptr<std::promise<std::vector<VectorId>>> promise) {
  return [promise = std::move(promise)](BatchResult result) {
    if (result.status == RequestStatus::kOk) {
      promise->set_value(std::move(result.documents));
    } else {
      promise->set_exception(std::make_exception_ptr(std::runtime_error(
          std::string("BatchingDriver: ") +
          RequestStatusName(result.status))));
    }
  };
}

}  // namespace

void BatchingDriver::Fail(Pending& entry, RequestStatus status,
                          Nanos queue_wait_ns) {
  BatchResult result;
  result.status = status;
  result.queue_wait_ns = queue_wait_ns;
  entry.done(std::move(result));
}

BatchingDriver::Admitted BatchingDriver::Admit(Pending& entry, bool queue) {
  entry.enqueued = std::chrono::steady_clock::now();
  enum class Outcome { kAccepted, kShed, kQuotaShed };
  Outcome outcome = Outcome::kAccepted;
  TenantId tenant = kDefaultTenant;
  {
    std::lock_guard lock(mu_);
    if (stop_) return Admitted::kStopped;
    // Resolve the tenant while the entry is still cheap to refuse:
    // quota runs before any embedding/search work is spent on it.
    entry.tenant = registry_.Resolve(entry.tenant);
    tenant = entry.tenant;
    ++stats_.submitted;
    BatchingDriverStats& tstats = tenant_stats_[tenant];
    ++tstats.submitted;
    if (registry_.Admit(tenant) != Admission::kAdmitted) {
      ++stats_.quota_shed;
      ++tstats.quota_shed;
      outcome = Outcome::kQuotaShed;
    } else if (queue && options_.queue_bound != 0 &&
               total_pending_ >= options_.queue_bound) {
      ++stats_.shed;
      ++tstats.shed;
      outcome = Outcome::kShed;
      // The quota token stays spent (rate counts admission attempts)
      // but the inflight slot is released: the entry never runs.
      registry_.OnDone(tenant);
    } else if (queue) {
      entry.seq = next_seq_++;
      TenantQueue& tq = queues_[tenant];
      if (tq.queue.empty()) rr_.push_back(tenant);
      tq.queue.push_back(std::move(entry));
      ++total_pending_;
    }
  }
  kObsSubmitted.Inc();
  TenantCounters delta;
  delta.submitted = 1;
  if (outcome == Outcome::kShed) delta.shed = 1;
  if (outcome == Outcome::kQuotaShed) delta.quota_shed = 1;
  registry_.Record(tenant, delta);
  if (outcome != Outcome::kAccepted) {
    (outcome == Outcome::kShed ? kObsShed : kObsQuotaShed).Inc();
    Fail(entry, RequestStatus::kResourceExhausted, 0);
    return Admitted::kShed;
  }
  if (queue) cv_.notify_all();
  return Admitted::kAccepted;
}

bool BatchingDriver::Enqueue(Pending&& entry) {
  return Admit(entry, /*queue=*/true) != Admitted::kStopped;
}

std::future<std::vector<VectorId>> BatchingDriver::Submit(
    std::vector<float> embedding) {
  if (embedding.size() != index_.dim()) {
    throw std::invalid_argument("BatchingDriver::Submit: dim mismatch");
  }
  auto promise = std::make_shared<std::promise<std::vector<VectorId>>>();
  auto future = promise->get_future();
  Pending entry;
  entry.embedding = std::move(embedding);
  entry.done = PromiseCallback(std::move(promise));
  entry.deadline = std::chrono::steady_clock::time_point::max();
  if (!Enqueue(std::move(entry))) {
    throw std::runtime_error("BatchingDriver: Submit after Shutdown");
  }
  return future;
}

std::future<std::vector<VectorId>> BatchingDriver::SubmitText(
    std::string text) {
  if (embedder_ == nullptr) {
    throw std::logic_error("BatchingDriver::SubmitText: no embedder");
  }
  if (text.empty()) {
    // Empty text embeds to the zero vector; route it through the
    // embedding path so the flush loop can key the text path on
    // non-emptiness.
    return Submit(std::vector<float>(index_.dim(), 0.0f));
  }
  auto promise = std::make_shared<std::promise<std::vector<VectorId>>>();
  auto future = promise->get_future();
  Pending entry;
  entry.text = std::move(text);
  entry.done = PromiseCallback(std::move(promise));
  entry.deadline = std::chrono::steady_clock::time_point::max();
  if (!Enqueue(std::move(entry))) {
    throw std::runtime_error("BatchingDriver: Submit after Shutdown");
  }
  return future;
}

void BatchingDriver::SubmitAsync(std::vector<float> embedding,
                                 const SubmitOptions& opts,
                                 BatchCallback done) {
  Pending entry;
  entry.done = std::move(done);
  entry.deadline = opts.deadline;
  entry.tenant = opts.tenant;
  entry.trace = opts.trace;
  if (embedding.size() != index_.dim()) {
    Fail(entry, RequestStatus::kInvalidArgument, 0);
    return;
  }
  entry.embedding = std::move(embedding);
  if (!Enqueue(std::move(entry))) {
    Fail(entry, RequestStatus::kUnavailable, 0);
  }
}

void BatchingDriver::EnableMutation(VectorIndex& index) {
  if (&index != &index_) {
    throw std::invalid_argument(
        "BatchingDriver::EnableMutation: not the driver's index");
  }
  if (!index.SupportsMutation()) {
    throw std::invalid_argument(
        "BatchingDriver::EnableMutation: index is build-once (" +
        index.Describe() + ")");
  }
  mutable_index_.store(&index, std::memory_order_release);
}

void BatchingDriver::SubmitMutationAsync(MutationOp op, std::string text,
                                         VectorId target,
                                         const SubmitOptions& opts,
                                         BatchCallback done) {
  Pending entry;
  entry.done = std::move(done);
  entry.deadline = opts.deadline;
  entry.tenant = opts.tenant;
  entry.trace = opts.trace;
  // Malformed mutations are refused inline, before they spend a queue
  // slot or a quota token — same contract as a bad-dim SubmitAsync.
  if (!mutation_enabled() ||
      (op != MutationOp::kInsert && op != MutationOp::kDelete) ||
      (op == MutationOp::kInsert &&
       (embedder_ == nullptr || text.empty()))) {
    Fail(entry, RequestStatus::kInvalidArgument, 0);
    return;
  }
  entry.op = op;
  if (op == MutationOp::kInsert) {
    entry.text = std::move(text);
  } else {
    entry.target = target;
  }
  if (!Enqueue(std::move(entry))) {
    Fail(entry, RequestStatus::kUnavailable, 0);
  }
}

void BatchingDriver::SubmitTextAsync(std::string text,
                                     const SubmitOptions& opts,
                                     BatchCallback done) {
  if (embedder_ == nullptr) {
    throw std::logic_error("BatchingDriver::SubmitTextAsync: no embedder");
  }
  Pending entry;
  entry.done = std::move(done);
  entry.deadline = opts.deadline;
  entry.tenant = opts.tenant;
  entry.trace = opts.trace;
  if (text.empty()) {
    entry.embedding.assign(index_.dim(), 0.0f);
  } else {
    entry.text = std::move(text);
  }
  if (!Enqueue(std::move(entry))) {
    Fail(entry, RequestStatus::kUnavailable, 0);
  }
}

std::vector<VectorId> BatchingDriver::Query(std::span<const float> embedding) {
  return Submit({embedding.begin(), embedding.end()}).get();
}

BatchResult BatchingDriver::Serve(std::span<const float> embedding) {
  if (embedding.size() != index_.dim()) {
    throw std::invalid_argument("BatchingDriver::Serve: dim mismatch");
  }
  BatchResult result;
  std::vector<Pending> batch(1);
  Pending& entry = batch.front();
  entry.embedding.assign(embedding.begin(), embedding.end());
  entry.deadline = std::chrono::steady_clock::time_point::max();
  entry.done = [&result](BatchResult r) { result = std::move(r); };
  switch (Admit(entry, /*queue=*/false)) {
    case Admitted::kStopped:
      throw std::runtime_error("BatchingDriver: Serve after Shutdown");
    case Admitted::kShed:
      break;
    case Admitted::kAccepted:
      ProcessBatch(std::move(batch));
      break;
  }
  return result;
}

void BatchingDriver::Flush() {
  // The flusher never idles while work is pending, so waiting for the
  // queue to empty is the whole drain; the caller's futures observe
  // completion of the actual processing.
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return total_pending_ == 0; });
}

void BatchingDriver::Shutdown() {
  std::lock_guard shutdown_lock(shutdown_mu_);
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

BatchingDriverStats BatchingDriver::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::map<TenantId, BatchingDriverStats> BatchingDriver::tenant_stats()
    const {
  std::lock_guard lock(mu_);
  return tenant_stats_;
}

std::size_t BatchingDriver::pending() const {
  std::lock_guard lock(mu_);
  return total_pending_;
}

std::map<TenantId, std::size_t> BatchingDriver::queue_depths() const {
  std::lock_guard lock(mu_);
  std::map<TenantId, std::size_t> depths;
  for (const auto& [id, tq] : queues_) {
    if (!tq.queue.empty()) depths[id] = tq.queue.size();
  }
  return depths;
}

std::vector<BatchingDriver::Pending> BatchingDriver::TakeBatch(
    std::size_t take) {
  std::vector<Pending> batch;
  batch.reserve(take);
  if (!options_.fair || queues_.size() <= 1) {
    // Strict global FIFO: repeatedly pop the smallest arrival seq
    // across queue fronts (each queue is itself in arrival order).
    while (batch.size() < take && total_pending_ > 0) {
      TenantQueue* best = nullptr;
      TenantId best_id = kDefaultTenant;
      for (auto& [id, tq] : queues_) {
        if (tq.queue.empty()) continue;
        if (best == nullptr ||
            tq.queue.front().seq < best->queue.front().seq) {
          best = &tq;
          best_id = id;
        }
      }
      batch.push_back(std::move(best->queue.front()));
      best->queue.pop_front();
      --total_pending_;
      if (best->queue.empty()) {
        rr_.erase(std::find(rr_.begin(), rr_.end(), best_id));
      }
    }
    return batch;
  }
  // Weighted deficit-round-robin: each visit credits the tenant its
  // weight; one credit buys one batch slot. Leftover credit carries to
  // the tenant's next visit (and is forfeited when its queue empties),
  // so over time every backlogged tenant gets batch slots proportional
  // to its weight no matter how hard another tenant floods.
  while (batch.size() < take && total_pending_ > 0) {
    const TenantId id = rr_.front();
    rr_.pop_front();
    TenantQueue& tq = queues_[id];
    tq.deficit += registry_.WeightFor(id);
    while (tq.deficit >= 1.0 && !tq.queue.empty() &&
           batch.size() < take) {
      batch.push_back(std::move(tq.queue.front()));
      tq.queue.pop_front();
      tq.deficit -= 1.0;
      --total_pending_;
    }
    if (tq.queue.empty()) {
      tq.deficit = 0.0;
    } else {
      rr_.push_back(id);
    }
  }
  return batch;
}

void BatchingDriver::FlusherLoop() {
  // Work-conserving, no timer (DESIGN.md §8): a batch is whatever
  // arrived while the previous one ran.
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || total_pending_ > 0; });
    if (total_pending_ == 0) return;  // stopped, and nothing left to drain
    std::vector<Pending> batch =
        TakeBatch(std::min(total_pending_, options_.max_batch));
    ++stats_.batches;
    if (total_pending_ == 0) cv_.notify_all();  // unblock Flush()

    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void BatchingDriver::ProcessBatch(std::vector<Pending> batch) {
  kObsBatches.Inc();
  kObsBatchSize.Record(static_cast<Nanos>(batch.size()));
  const auto flush_start = std::chrono::steady_clock::now();
  std::vector<Nanos> waited(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    waited[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    flush_start - batch[i].enqueued)
                    .count();
    kObsQueueWait.Record(waited[i]);
    // Traced entries record their admission-queue wait as a span.
    obs::EmitChildSpan(batch[i].trace, obs::TraceOp::kQueue,
                       obs::TraceRelNanos(batch[i].enqueued), waited[i]);
  }

  std::uint64_t hits = 0, answer_hits = 0, retrieved = 0, coalesced = 0,
                expired = 0, mutations = 0, completed = 0;
  // Per-tenant view of the same outcome deltas (merged under mu_ at the
  // end, mirrored into tenant.<label>.* via the registry).
  std::map<TenantId, TenantCounters> deltas;
  // Outcomes are buffered and delivered only AFTER the stats merge: a
  // caller that has seen its completion must find the entry already
  // accounted in stats()/tenant_stats() — bench/serve_load reads the
  // counters the moment its last response lands.
  std::vector<BatchResult> results(batch.size());
  std::vector<bool> done(batch.size(), false);
  try {
    // 0. Deadline check before any work: an entry whose deadline passed
    //    while queued completes with DEADLINE_EXCEEDED and is excluded
    //    from the embed/probe/search below — it is never run.
    std::vector<std::size_t> live;
    live.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline < flush_start) {
        results[i].status = RequestStatus::kDeadlineExceeded;
        results[i].queue_wait_ns = waited[i];
        done[i] = true;
        ++expired;
        ++completed;
        ++deltas[batch[i].tenant].expired;
      } else {
        live.push_back(i);
      }
    }

    // 1. Embed queued text in one batch call — one fused EmbedBatch
    //    across every tenant in the flush.
    std::vector<std::size_t> text_ids;
    std::vector<std::string> texts;
    for (const std::size_t i : live) {
      if (!batch[i].text.empty()) {
        text_ids.push_back(i);
        texts.push_back(batch[i].text);
      }
    }
    if (!texts.empty()) {
      const Nanos embed_start = obs::TraceNowNs();
      {
        const obs::Span span(obs::Stage::kEmbed);
        const Matrix embedded = embedder_->EmbedBatch(texts);
        for (std::size_t j = 0; j < text_ids.size(); ++j) {
          const auto row = embedded.Row(j);
          batch[text_ids[j]].embedding.assign(row.begin(), row.end());
        }
      }
      // One EmbedBatch call serves many requests: attribute the shared
      // timing to every traced entry that contributed text.
      const Nanos embed_ns = obs::TraceNowNs() - embed_start;
      for (const std::size_t i : text_ids) {
        obs::EmitChildSpan(batch[i].trace, obs::TraceOp::kEmbed,
                           embed_start, embed_ns);
      }
    }

    // 1.5 Apply live-corpus mutations in arrival order, BEFORE any of
    //     this flush's cache probes: queries batched alongside a
    //     mutation observe the post-mutation index, and the generation
    //     stamp pushed below reflects it. Insert embeddings came out of
    //     the shared EmbedBatch above (mutation text is text like any
    //     other).
    VectorIndex* mindex = mutable_index_.load(std::memory_order_acquire);
    std::vector<std::size_t> muts;
    for (const std::size_t i : live) {
      if (batch[i].op != MutationOp::kNone) muts.push_back(i);
    }
    std::sort(muts.begin(), muts.end(),
              [&](std::size_t a, std::size_t b) {
                return batch[a].seq < batch[b].seq;
              });
    for (const std::size_t i : muts) {
      results[i].queue_wait_ns = waited[i];
      try {
        if (batch[i].op == MutationOp::kInsert) {
          const VectorId id = mindex->Insert(batch[i].embedding);
          results[i].documents = {id};
        } else if (!mindex->Delete(batch[i].target)) {
          results[i].status = RequestStatus::kInvalidArgument;
        }
      } catch (const std::exception&) {
        results[i].status = RequestStatus::kInvalidArgument;
      }
      done[i] = true;
      ++mutations;
      ++completed;
      ++deltas[batch[i].tenant].mutations;
    }

    // 1.6 Push the index's mutation generation into every tenant cache
    //     this flush will probe (pull-at-probe: covers mutations by
    //     other drivers or background Consolidate too, not just ours).
    if (mindex != nullptr) {
      const std::uint64_t gen = mindex->generation();
      std::map<TenantId, bool> stamped;
      for (const std::size_t i : live) {
        if (done[i]) continue;
        if (!stamped.emplace(batch[i].tenant, true).second) continue;
        registry_.CacheFor(batch[i].tenant).set_generation(gen);
      }
    }

    // 2. Probe each entry's tenant cache: one scan, whose nearest key is
    //    classified against τ and, with answer reuse, τ_answer too
    //    (DESIGN.md §15). An answer hit's documents are the evidence the
    //    cached answer was generated from; either kind of hit skips the
    //    search. Mutation entries are already done and never probe.
    std::vector<std::size_t> misses;
    for (const std::size_t i : live) {
      if (done[i]) continue;
      const TenantId tenant = batch[i].tenant;
      // The probe runs with the entry's trace as the thread context, so
      // the cache's own spans (kCacheLookup/kCacheScan) join the trace.
      const obs::ScopedTraceContext trace_scope(batch[i].trace);
      std::optional<float> answer_tau;
      if (options_.answer_reuse) answer_tau = registry_.AnswerTauFor(tenant);
      auto cached =
          registry_.CacheFor(tenant).Lookup(batch[i].embedding, answer_tau);
      registry_.ObserveLookup(tenant, cached.hit);
      if (!cached.hit) {
        misses.push_back(i);
        continue;
      }
      results[i].documents = std::move(cached.value);
      results[i].cache_hit = true;
      results[i].answer_hit = cached.answer;
      results[i].queue_wait_ns = waited[i];
      done[i] = true;
      ++completed;
      if (cached.answer) {
        ++answer_hits;
        ++deltas[tenant].answer_hits;
      } else {
        ++hits;
        ++deltas[tenant].hits;
      }
    }

    // 3. Coalesce τ-similar misses onto one leader retrieval per
    //    neighborhood. Only entries of the SAME tenant may share a
    //    leader — a cross-tenant join would leak one tenant's approximate
    //    answer to another — and similarity is judged by the leader
    //    tenant's own τ.
    std::vector<std::size_t> leaders;
    std::vector<std::size_t> leader_of(batch.size(), 0);
    std::map<TenantId, float> tolerances;
    const auto tolerance_of = [&](TenantId tenant) {
      auto it = tolerances.find(tenant);
      if (it == tolerances.end()) {
        it = tolerances
                 .emplace(tenant, registry_.CacheFor(tenant).tolerance())
                 .first;
      }
      return it->second;
    };
    const Metric metric = index_.metric();
    for (const std::size_t i : misses) {
      bool joined = false;
      if (options_.coalesce) {
        for (std::size_t rank = 0; rank < leaders.size(); ++rank) {
          const std::size_t leader = leaders[rank];
          if (batch[leader].tenant != batch[i].tenant) continue;
          if (Distance(metric, batch[i].embedding,
                       batch[leader].embedding) <=
              tolerance_of(batch[leader].tenant)) {
            leader_of[i] = rank;
            joined = true;
            break;
          }
        }
      }
      if (!joined) {
        leader_of[i] = leaders.size();
        leaders.push_back(i);
      }
    }

    // 4. One grouped sharded search for all leaders — still a single
    //    fused SearchBatch across tenants; isolation is a cache/queue
    //    property, not a compute partition.
    std::vector<std::vector<VectorId>> leader_docs(leaders.size());
    std::vector<std::vector<float>> leader_dists(leaders.size());
    if (!leaders.empty()) {
      Matrix queries(0, index_.dim());
      queries.Reserve(leaders.size());
      for (const std::size_t i : leaders) {
        queries.AppendRow(batch[i].embedding);
      }
      const Nanos search_start = obs::TraceNowNs();
      const auto search_results = index_.SearchBatch(queries, options_.top_k);
      const Nanos search_ns = obs::TraceNowNs() - search_start;
      // The grouped search is shared work too: every miss — leader or
      // coalesced follower — sees the same index-search span.
      for (const std::size_t i : misses) {
        obs::EmitChildSpan(batch[i].trace, obs::TraceOp::kIndexSearch,
                           search_start, search_ns);
      }
      for (std::size_t rank = 0; rank < leaders.size(); ++rank) {
        leader_docs[rank].reserve(search_results[rank].size());
        leader_dists[rank].reserve(search_results[rank].size());
        for (const auto& n : search_results[rank]) {
          leader_docs[rank].push_back(n.id);
          leader_dists[rank].push_back(n.distance);
        }
        const obs::ScopedTraceContext trace_scope(
            batch[leaders[rank]].trace);
        registry_.CacheFor(batch[leaders[rank]].tenant)
            .Insert(batch[leaders[rank]].embedding, leader_docs[rank]);
      }
    }

    // 5. Complete misses: leaders own a retrieval, followers share it.
    for (const std::size_t i : misses) {
      const std::size_t rank = leader_of[i];
      results[i].documents = leader_docs[rank];
      results[i].distances = leader_dists[rank];
      results[i].queue_wait_ns = waited[i];
      if (leaders[rank] == i) {
        ++retrieved;
        ++deltas[batch[i].tenant].retrieved;
      } else {
        results[i].coalesced = true;
        ++coalesced;
        ++deltas[batch[i].tenant].coalesced;
      }
      done[i] = true;
      ++completed;
    }
  } catch (...) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      results[i] = BatchResult{};
      results[i].status = RequestStatus::kInternal;
      results[i].queue_wait_ns = waited[i];
      done[i] = true;
      ++completed;
    }
  }

  kObsHits.Inc(hits);
  kObsAnswerHits.Inc(answer_hits);
  kObsRetrieved.Inc(retrieved);
  kObsCoalesced.Inc(coalesced);
  kObsExpired.Inc(expired);
  kObsMutations.Inc(mutations);
  for (const auto& [tenant, delta] : deltas) {
    registry_.Record(tenant, delta);
  }
  // Every batch entry was admitted; release the inflight slots now that
  // each has completed (whatever the status).
  for (const Pending& entry : batch) {
    registry_.OnDone(entry.tenant);
  }
  {
    std::lock_guard lock(mu_);
    stats_.hits += hits;
    stats_.answer_hits += answer_hits;
    stats_.retrieved += retrieved;
    stats_.coalesced += coalesced;
    stats_.expired += expired;
    stats_.mutations += mutations;
    stats_.completed += completed;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++tenant_stats_[batch[i].tenant].completed;
    }
    for (const auto& [tenant, delta] : deltas) {
      BatchingDriverStats& tstats = tenant_stats_[tenant];
      tstats.hits += delta.hits;
      tstats.answer_hits += delta.answer_hits;
      tstats.retrieved += delta.retrieved;
      tstats.coalesced += delta.coalesced;
      tstats.expired += delta.expired;
      tstats.mutations += delta.mutations;
    }
  }

  // Deliver completions last (outside mu_ — callbacks must not run
  // under the queue lock).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].done(std::move(results[i]));
  }
}

ConcurrentRunResult RunStreamBatched(
    const Workload& workload, const VectorIndex& index,
    TenantRegistry& registry, const AnswerModel& answer_model,
    std::uint64_t answer_seed, const std::vector<StreamEntry>& stream,
    const Matrix& embeddings, std::size_t threads,
    const BatchingDriverOptions& options,
    BatchingDriverStats* driver_stats, const std::atomic<bool>* stop) {
  if (embeddings.rows() != stream.size()) {
    throw std::invalid_argument(
        "RunStreamBatched: embeddings/stream size mismatch");
  }
  if (threads == 0) {
    throw std::invalid_argument("RunStreamBatched: threads must be > 0");
  }

  const std::vector<double> difficulties =
      MakeDifficultyTable(workload.questions.size(), answer_seed);

  BatchingDriver driver(index, registry, nullptr, options);

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> processed{0};
  std::atomic<std::size_t> correct{0};
  std::mutex agg_mu;
  LatencyHistogram latencies;
  double relevance_sum = 0.0;
  double misleading_sum = 0.0;

  auto worker = [&] {
    LatencyHistogram local_latencies;
    double local_relevance = 0.0, local_misleading = 0.0;
    std::size_t local_correct = 0;
    for (;;) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= stream.size()) break;

      Stopwatch watch;
      const std::vector<VectorId> documents =
          driver.Query(embeddings.Row(i));
      local_latencies.Record(watch.ElapsedNanos());

      const Question& question = workload.questions[stream[i].question];
      ContextJudgment judgment;
      {
        const obs::Span prompt_span(obs::Stage::kPrompt);
        judgment = JudgeContext(documents, question, workload);
      }
      local_relevance += judgment.relevance;
      local_misleading += judgment.misleading;
      const obs::Span generate_span(obs::Stage::kGenerate);
      if (answer_model.AnswerCorrectly(judgment,
                                       difficulties[stream[i].question])) {
        ++local_correct;
      }
      processed.fetch_add(1, std::memory_order_relaxed);
    }
    correct.fetch_add(local_correct, std::memory_order_relaxed);
    std::lock_guard lock(agg_mu);
    latencies.Merge(local_latencies);
    relevance_sum += local_relevance;
    misleading_sum += local_misleading;
  };

  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) clients.emplace_back(worker);
  for (auto& t : clients) t.join();
  driver.Shutdown();
  if (driver_stats != nullptr) *driver_stats = driver.stats();

  ConcurrentRunResult result;
  result.cache_stats = registry.CacheFor(kDefaultTenant).stats();
  // An interrupted run (stop flag) reports over the queries it actually
  // served, so partial metrics stay meaningful instead of diluted.
  const std::size_t served = processed.load();
  const double n = static_cast<double>(served);
  result.metrics.queries = served;
  if (served > 0) {
    result.metrics.accuracy = static_cast<double>(correct.load()) / n;
    result.metrics.hit_rate =
        result.cache_stats.lookups > 0
            ? static_cast<double>(result.cache_stats.hits) /
                  static_cast<double>(result.cache_stats.lookups)
            : 0.0;
    result.metrics.mean_latency_ms = latencies.MeanNanos() / kNanosPerMilli;
    result.metrics.p50_latency_ms =
        latencies.QuantileNanos(0.5) / kNanosPerMilli;
    result.metrics.p99_latency_ms =
        latencies.QuantileNanos(0.99) / kNanosPerMilli;
    result.metrics.total_latency_ms =
        latencies.MeanNanos() * n / kNanosPerMilli;
    result.metrics.mean_relevance = relevance_sum / n;
    result.metrics.mean_misleading = misleading_sum / n;
  }
  return result;
}

}  // namespace proximity
