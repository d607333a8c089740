// The three served stacks the benchmark boots, one per workload.
//
//   mmlu_hits           one server: HNSW, one-tenant registry, answer tier
//                       on, Zipf-popular MMLU-like questions.
//   medrag_routed_miss  cluster::Router over 2 partition groups x 2
//                       replicas of flat-index servers, MedRAG-like
//                       questions that almost never repeat.
//   mmlu_churn          one server over index=mutable with
//                       staleness=revalidate, the mmlu_hits read stream
//                       plus 5% INSERT/DELETE writes and a periodic
//                       Consolidate().
//
// Every stack owns its whole object graph; destroying it stops every
// thread it started.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "layers.h"
#include "load.h"
#include "workload/corpus.h"

namespace perfbench {

/// Fixed parameters of one workload (sizes shrink under --tiny).
struct WorkloadParams {
  std::string name;
  /// Fixed open-loop offered rate, requests/second, set well below the
  /// capacity measured on the reference host (README.md). A constant,
  /// so parent and change see the same load.
  double offered_qps = 0;
  std::size_t corpus = 0;
  std::size_t questions = 0;  // 0 = the spec's default
  std::size_t variants = 1;
  bool zipf = false;
  std::size_t warmup_requests = 0;
  /// Every write_every-th request is a write (0 = read-only).
  std::size_t write_every = 0;
};

WorkloadParams ParamsFor(const std::string& workload, bool tiny);

/// Correctness failures found after a run; empty = correct.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Counters of the stack's components, as deltas over a window.
struct StackCounters {
  std::uint64_t quota_shed = 0;
  std::uint64_t cluster_queries = 0, cluster_legs = 0, cluster_hedges = 0,
                cluster_hedge_wins = 0, cluster_retries = 0;
};

class Stack {
 public:
  virtual ~Stack() = default;
  /// Client-facing port (server or router front-end).
  virtual std::uint16_t port() const = 0;
  virtual Mix& mix() = 0;
  virtual const proximity::Workload& workload() const = 0;
  virtual Recorder& recorder() = 0;
  /// Cumulative component counters (take deltas across a window).
  virtual StackCounters counters() const = 0;
  /// Stops servers, router and drivers (drains everything in flight)
  /// and runs the stack's own conservation checks.
  virtual void StopAndCheck(Checks& checks) = 0;
  /// Bytes the index reads per query, computed from sizes (flat: every
  /// row; graph: beam x degree rows, an upper-bound estimate).
  virtual double IndexBytesPerQuery() const = 0;
  /// The routed MedRAG-like stack: MedRAG answer-model calibration and
  /// the router row of the latency budget.
  virtual bool medrag() const { return false; }
  /// Flat oracle over the whole corpus (routed workload only).
  virtual const proximity::FlatIndex* oracle() const { return nullptr; }
  virtual const proximity::HashEmbedder& embedder() const = 0;
};

/// Boots the stack of `params.name` with inputs derived from `seed`.
std::unique_ptr<Stack> BootStack(const WorkloadParams& params,
                                 std::uint64_t seed);

}  // namespace perfbench
