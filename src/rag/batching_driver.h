// Dynamic microbatching serving driver (DESIGN.md §8, §10).
//
// The one engine every query runs through — served requests, the
// figures' sequential streams (Retriever, via Serve) and the multi-user
// stream runner alike. Every submission starts with the probe step, on
// the submitting thread: admission (quota), then embedding its text,
// then one lookup of its tenant's cache. A hit — the paper's cheap path,
// a linear scan over the keys (§3.2.1) — completes right there, with no
// queue and no thread hop. Only a miss joins the admission queue, with
// its embedding. Many users query the RAG service at once, but a claim
// loop that hands each worker one query at a time only ever shows the
// database batch size 1, so a work-conserving flusher thread takes
// everything pending (up to `max_batch`) whenever it is free — no timer,
// so a batch is what missed while the previous batch ran and its size
// follows offered load — and issues the misses as ONE grouped
// SearchBatch against the index — which, for a ShardedIndex, fans
// shard×query legs across the thread pool so the fused batch kernels see
// real batch shapes.
//
// Within a flush, misses that are τ-similar to an earlier miss of the
// same batch coalesce onto that leader's retrieval. Across flushes the
// one flusher thread serializes batches. A τ-similar query that missed
// while its twin's search was in flight finds the twin's insert at
// flush: the flush rechecks the admission probe's miss against the keys
// written since (ApproxCache::Recheck), so the pair still ends as one
// retrieval plus one hit, and each request counts one cache lookup. Serve is the probe step plus, on a miss, a batch of one
// on the caller's thread, concurrently with the flusher; the caches and
// the registry carry their own locks. Every submitted query is exactly
// one of {hit, retrieved, coalesced, shed, expired, quota_shed};
// Shutdown drains the queue, so no query is dropped mid-batch.
//
// The driver is also the admission queue of the network front-end
// (DESIGN.md §9): SubmitAsync/SubmitTextAsync attach a completion
// callback instead of a future (the epoll loop must never block on
// one), `queue_bound` sheds over-admitted work with RESOURCE_EXHAUSTED
// instead of queueing without bound, and per-request deadlines are
// enforced at flush time — an entry whose deadline has already passed
// completes with DEADLINE_EXCEEDED without being embedded or searched.
//
// Tenancy (DESIGN.md §10): the driver runs over a TenantRegistry (a
// single tenant is a registry of one) and keeps one admission queue per
// tenant, flushing them with weighted deficit-round-robin, so a flooding
// tenant cannot starve the others of batch slots — while embedding and
// search still run as one fused batch across tenants. Cache
// probes/inserts route to the submitting tenant's private cache,
// τ-coalescing only joins entries of the SAME tenant (cross-tenant reuse
// of approximate answers is an isolation leak, not a hit), and the
// registry's token-bucket quota is consulted at admission — over-quota
// work completes RESOURCE_EXHAUSTED before any embedding is spent on it
// (`quota_shed`).
//
// Live-corpus mode (DESIGN.md §13): EnableMutation arms an INSERT/
// DELETE path over a mutation-capable index. A mutation-armed driver
// skips the probe step: every request rides the admission queue (quota
// and queue_bound apply), is embedded by the flusher, and mutations are
// applied in arrival order BEFORE the flush's cache probes — then the
// index's bumped generation is pushed into every tenant cache touched by
// the flush, which is what makes the cache-staleness contract observable
// at hit time, and a read sent after a write sees the write.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "common/types.h"
#include "embed/hash_embedder.h"
#include "index/vector_index.h"
#include "llm/answer_model.h"
#include "obs/trace.h"
#include "rag/pipeline.h"
#include "tenant/tenant_registry.h"
#include "workload/query_stream.h"

namespace proximity {

/// Live-corpus mutation kinds the driver can apply (EnableMutation).
enum class MutationOp : std::uint32_t {
  kNone = 0,
  /// Embed the entry's text and insert it as a new corpus vector; the
  /// completion carries the assigned VectorId as its single document.
  kInsert = 1,
  /// Tombstone the entry's target id; unknown/already-deleted targets
  /// complete with kInvalidArgument.
  kDelete = 2,
};

struct BatchingDriverOptions {
  /// Most queries one flush takes; the rest wait for the next flush.
  std::size_t max_batch = 32;
  /// Documents fetched per query (top-k of the NNS).
  std::size_t top_k = 10;
  /// Coalesce τ-similar same-tenant misses within a batch onto one
  /// retrieval.
  bool coalesce = true;
  /// Admission-queue bound (total across tenants); submissions beyond
  /// it are shed with RESOURCE_EXHAUSTED. 0 = unbounded.
  std::size_t queue_bound = 0;
  /// Batch composition across tenants: true = weighted deficit-round-
  /// robin over per-tenant queues (a flooding tenant cannot starve the
  /// rest); false = strict global FIFO by arrival (the pre-tenancy
  /// behavior, kept for the noisy-neighbor contrast bench).
  bool fair = true;
  /// Answer reuse (DESIGN.md §15): the probe also classifies the
  /// nearest key against the tenant's τ_answer, and a current-generation
  /// entry that close is an answer hit — its documents are the evidence
  /// a reusable answer was generated from. A stale entry is never one.
  bool answer_reuse = false;
};

/// Counters over the driver's lifetime. After Shutdown (queue drained,
/// flusher joined):
///   hits + answer_hits + retrieved + coalesced + shed + expired
///       + quota_shed + mutations == submitted
/// and completed == submitted - shed - quota_shed (both shed kinds
/// finish inline at admission, everything else through a flush or a
/// Serve) — no query is dropped. The same invariant holds per tenant
/// (tenant_stats()).
struct BatchingDriverStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t hits = 0;
  /// Answer hits (answer_reuse mode): counted here, not in `hits`.
  std::uint64_t answer_hits = 0;
  std::uint64_t retrieved = 0;
  std::uint64_t coalesced = 0;
  /// Shed at admission by `queue_bound` (RESOURCE_EXHAUSTED).
  std::uint64_t shed = 0;
  /// Deadline passed while queued (DEADLINE_EXCEEDED, never searched).
  std::uint64_t expired = 0;
  /// Refused by the tenant's token-bucket/inflight quota before any
  /// embedding or search work (RESOURCE_EXHAUSTED).
  std::uint64_t quota_shed = 0;
  /// Live-corpus INSERT/DELETE requests applied at flush (includes
  /// DELETEs of unknown ids, which complete kInvalidArgument).
  std::uint64_t mutations = 0;
  std::uint64_t batches = 0;
};

/// Outcome of one submission, delivered to the SubmitAsync callback.
struct BatchResult {
  RequestStatus status = RequestStatus::kOk;
  /// Top-k document ids; empty unless status == kOk.
  std::vector<VectorId> documents;
  /// Raw distances parallel to `documents`, filled only on the
  /// index-retrieval path (leaders and their coalesced followers).
  /// Cache hits leave this empty — the approximate cache stores bare id
  /// lists — which is how the cluster router knows when an exact
  /// distance merge is possible (net protocol v5, DESIGN.md §14).
  std::vector<float> distances;
  /// kOk only: served from the cache without touching the index.
  bool cache_hit = false;
  /// kOk only: a cache hit within τ_answer (answer_reuse mode); the
  /// cached answer is reused, so no generation runs either.
  bool answer_hit = false;
  /// kOk only: shared a τ-similar leader's retrieval within the batch.
  bool coalesced = false;
  /// Time spent in the admission queue before its batch flushed.
  Nanos queue_wait_ns = 0;
};

/// Completion callback; invoked exactly once: inline from Submit* on a
/// cache hit and on shed/shutdown, otherwise from the flusher thread.
/// Must not block: the net front-end writes an inline completion's
/// response on its event loop and posts a flusher completion back to it.
using BatchCallback = std::function<void(BatchResult)>;

struct SubmitOptions {
  /// Absolute deadline; max() means none. An entry whose deadline has
  /// passed at submission skips the probe step; one whose deadline has
  /// passed when its batch flushes completes with kDeadlineExceeded
  /// without being embedded, probed or searched.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Submitting tenant, resolved by the registry's unknown-tenant policy.
  TenantId tenant = kDefaultTenant;
  /// Request trace to attribute the driver's work to (obs/trace.h):
  /// queue wait, embed, cache probe, search and insert spans are all
  /// emitted under it. Inactive (default) = untraced.
  obs::TraceContext trace;
};

class BatchingDriver {
 public:
  /// Submissions carry SubmitOptions::tenant, cache probes/inserts
  /// route to that tenant's cache in `registry`, the registry's quotas
  /// gate admission, and the flush schedules across per-tenant queues
  /// (options.fair). A single tenant is a registry of one. `index` and
  /// `registry` are not owned and must outlive the driver; `embedder`
  /// may be null when only the embedding paths are used. Throws
  /// std::invalid_argument when the registry's dimension or cache
  /// metric differs from the index's (§3.1: the cache measures proximity
  /// in the database's own distance function), and, with answer_reuse,
  /// when the registry's answer_defaults name a metric or a non-zero
  /// capacity other than cache_defaults'.
  BatchingDriver(const VectorIndex& index, TenantRegistry& registry,
                 const HashEmbedder* embedder,
                 BatchingDriverOptions options = {});

  ~BatchingDriver();

  BatchingDriver(const BatchingDriver&) = delete;
  BatchingDriver& operator=(const BatchingDriver&) = delete;

  /// Runs the probe step for a pre-computed query embedding: a hit has
  /// completed the future on return, a miss is queued. Throws
  /// std::runtime_error after Shutdown; the returned future carries an
  /// exception when the entry is shed or expires (see BatchResult
  /// statuses).
  std::future<std::vector<VectorId>> Submit(std::vector<float> embedding);

  /// Text flavor: the text is embedded on the calling thread. Requires
  /// an embedder.
  std::future<std::vector<VectorId>> SubmitText(std::string text);

  /// Callback flavor for event-loop callers: never throws for
  /// flow-control reasons. `done` is invoked exactly once — inline on a
  /// cache hit, inline with kResourceExhausted when the tenant quota or
  /// the bounded queue sheds the entry, inline with kUnavailable after
  /// Shutdown, otherwise from the flusher thread.
  void SubmitAsync(std::vector<float> embedding, const SubmitOptions& opts,
                   BatchCallback done);

  /// Text flavor; requires an embedder.
  void SubmitTextAsync(std::string text, const SubmitOptions& opts,
                       BatchCallback done);

  /// Arms the live-corpus mutation path. `index` must be the SAME index
  /// the driver was constructed over (asserted) and must report
  /// SupportsMutation(); throws std::invalid_argument otherwise.
  /// Mutations ride the admission queue like queries — tenant quotas
  /// and queue_bound apply — and are applied at flush time in arrival
  /// order, BEFORE that flush's cache probes, so the generation stamp
  /// each tenant cache receives (the staleness contract) reflects them.
  void EnableMutation(VectorIndex& index);

  /// Whether EnableMutation has armed the mutation path.
  bool mutation_enabled() const noexcept {
    return mutable_index_.load(std::memory_order_acquire) != nullptr;
  }

  /// Queues one live-corpus mutation. kInsert embeds `text` (requires
  /// an embedder; `target` ignored); kDelete tombstones `target`
  /// (`text` ignored). Completes inline with kInvalidArgument when the
  /// mutation path is not enabled, the op is kNone, or an insert has no
  /// text; otherwise exactly like SubmitAsync (shed/quota/deadline all
  /// apply). A successful insert's BatchResult carries the assigned
  /// VectorId as its single document.
  void SubmitMutationAsync(MutationOp op, std::string text, VectorId target,
                           const SubmitOptions& opts, BatchCallback done);

  /// Synchronous convenience: Submit + wait.
  std::vector<VectorId> Query(std::span<const float> embedding);

  /// Serves one embedding for the default tenant on the caller's
  /// thread: the probe step and, on a miss, the batch processing of a
  /// flushed batch of one, without the queue or the hop to the flusher.
  /// Index and cache work therefore runs on this thread (a VirtualClock
  /// a SlowStorageIndex charges sees it here). Throws
  /// std::invalid_argument on a dimension mismatch and
  /// std::runtime_error after Shutdown; any other outcome, shed or
  /// failed included, is reported in the result's status.
  BatchResult Serve(std::span<const float> embedding);

  /// Waits until the flusher has taken everything currently pending,
  /// without stopping the driver.
  void Flush();

  /// Drains the queue (every pending future completes) and stops the
  /// flusher. Idempotent; called by the destructor.
  void Shutdown();

  BatchingDriverStats stats() const;
  /// Per-tenant view of the same counters; the conservation invariant
  /// holds for every entry.
  std::map<TenantId, BatchingDriverStats> tenant_stats() const;
  const BatchingDriverOptions& options() const noexcept { return options_; }

  /// Entries currently queued, total and per tenant (only tenants with
  /// a non-empty queue appear). Live introspection (/statusz) reads
  /// these while the flusher runs.
  std::size_t pending() const;
  std::map<TenantId, std::size_t> queue_depths() const;

 private:
  struct Pending {
    std::string text;              // non-empty: not embedded yet
    std::vector<float> embedding;  // used when text is empty
    /// Set when the admission probe missed: where its scan stood
    /// (ApproxCache::Recheck).
    std::optional<ProximityCache::LookupResult> probed;
    BatchCallback done;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    TenantId tenant = kDefaultTenant;
    obs::TraceContext trace;
    std::uint64_t seq = 0;  // global arrival order (FIFO mode)
    /// kNone = query; otherwise a live-corpus mutation entry.
    MutationOp op = MutationOp::kNone;
    VectorId target = kInvalidVector;  // kDelete only
  };

  /// One tenant's admission queue plus its deficit-round-robin credit.
  struct TenantQueue {
    std::deque<Pending> queue;
    double deficit = 0.0;
  };

  enum class Admitted { kStopped, kShed, kAccepted };

  /// Admission: resolves the tenant, counts the submission and consults
  /// the tenant quota. kStopped after Shutdown — the entry is left intact
  /// (callback not invoked) so the caller picks throw vs callback. kShed
  /// after the callback ran inline with kResourceExhausted. kAccepted: the
  /// caller runs or queues the entry.
  Admitted Admit(Pending& entry);
  /// Queues an admitted entry unless the queue bound sheds it (counted,
  /// inflight slot released; returns false). Caller must hold mu_.
  bool PushLocked(Pending& entry);
  /// Every request's one path (DESIGN.md §8): Admit, then
  /// ProbeAtAdmission; a miss is queued, or with `here` runs as a batch of
  /// one on this thread. An entry past its deadline, and every entry of a
  /// mutation-armed driver, skips the probe. False after Shutdown (entry
  /// intact, callback not invoked).
  bool Run(Pending& entry, bool here);
  /// Embeds and probes an admitted entry on this thread; a hit completes
  /// it here (true).
  bool ProbeAtAdmission(Pending& entry);
  /// Processes an admitted entry as a batch of one on this thread.
  void RunHere(Pending& entry);
  /// Embeds the entry's text on this thread, with its embed span.
  void Embed(Pending& entry) const;
  /// One lookup of the entry's tenant cache, classified against τ and,
  /// with answer reuse, τ_answer (DESIGN.md §15); shared by the
  /// admission probe and the flush. A hit fills `result` and counts into
  /// `delta`. At admission a miss stays open (`probed`); at flush it is
  /// rechecked against the keys written since.
  bool Probe(Pending& entry, bool admission, BatchResult& result,
             TenantCounters& delta);

  void FlusherLoop();
  /// Pops up to `take` entries — DRR across tenant queues in fair mode,
  /// global arrival order otherwise. Caller must hold mu_.
  std::vector<Pending> TakeBatch(std::size_t take);
  /// Processes one batch outside the queue lock.
  void ProcessBatch(std::vector<Pending> batch);
  /// Counts the outcomes of completed, admitted entries (`deltas`, per
  /// tenant; each entry one completion), releases their inflight slots,
  /// then runs their callbacks, so a caller that has seen its completion
  /// finds it accounted.
  void Deliver(std::span<Pending> entries, std::span<BatchResult> results,
               const std::map<TenantId, TenantCounters>& deltas);
  /// Completes `entry` with a non-OK status.
  static void Fail(Pending& entry, RequestStatus status, Nanos queue_wait_ns);

  const VectorIndex& index_;
  /// Mutable alias of index_, set by EnableMutation; null = mutation
  /// path disarmed (SubmitMutationAsync fails with kInvalidArgument).
  /// Atomic: EnableMutation may race the already-running flusher.
  std::atomic<VectorIndex*> mutable_index_{nullptr};
  TenantRegistry& registry_;
  const HashEmbedder* embedder_;
  BatchingDriverOptions options_;

  mutable std::mutex mu_;
  std::mutex shutdown_mu_;  // serializes concurrent Shutdown callers
  std::condition_variable cv_;
  // Per-tenant queues; `rr_` lists each tenant with a non-empty queue
  // exactly once, in round-robin service order. `total_pending_` is the
  // sum of queue sizes (the queue_bound denominator).
  std::map<TenantId, TenantQueue> queues_;
  std::deque<TenantId> rr_;
  std::size_t total_pending_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  BatchingDriverStats stats_;
  std::map<TenantId, BatchingDriverStats> tenant_stats_;

  std::thread flusher_;
};

struct ConcurrentRunResult {
  RunMetrics metrics;
  ApproxCacheStats cache_stats;
};

/// Multi-user stream execution: `threads` client workers claim stream
/// entries from a shared atomic cursor and submit them to one shared
/// BatchingDriver over `index` and the default tenant of `registry`, so
/// concurrent in-flight queries group into real microbatches. Each
/// worker judges whatever evidence its request was served (answer hits
/// included). The interleaving — and therefore the exact hit rate — is
/// scheduling-dependent; the driver's conservation invariant is not.
/// Embeddings must hold one row per stream entry.
/// `driver_stats`, if non-null, receives the driver counters. A non-null
/// `stop` flag makes workers stop claiming entries once it reads true
/// (the SIGINT/SIGTERM drain path: in-flight queries still complete and
/// the partial metrics are returned, not lost).
ConcurrentRunResult RunStreamBatched(
    const Workload& workload, const VectorIndex& index,
    TenantRegistry& registry, const AnswerModel& answer_model,
    std::uint64_t answer_seed, const std::vector<StreamEntry>& stream,
    const Matrix& embeddings, std::size_t threads,
    const BatchingDriverOptions& options = {},
    BatchingDriverStats* driver_stats = nullptr,
    const std::atomic<bool>* stop = nullptr);

}  // namespace proximity
