#include "stacks.h"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "tenant/tenant_registry.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace perfbench {

namespace px = proximity;
namespace net = proximity::net;

namespace {

// Serving knobs shared by every stack: the `proximity_cli serve`
// defaults (top_k 10, max_batch 32, max_wait_us 200, τ 2.0) plus the
// document-cache capacity of 300 the workloads call for.
constexpr std::size_t kCacheCapacity = 300;
constexpr float kDocTau = 2.0f;
constexpr float kAnswerTau = kDocTau / 2.0f;
constexpr std::size_t kHnswEfConstruction = 100;
constexpr std::size_t kHnswEfSearch = 64;
constexpr std::size_t kHnswM = 16;
constexpr std::size_t kGroups = 2;
constexpr std::size_t kReplicas = 2;
// mmlu_churn runs Consolidate() once per this many confirmed writes.
constexpr std::uint64_t kConsolidateEvery = 64;

px::TenantRegistryOptions RegistryOptions(px::Metric metric,
                                          px::StalenessPolicy staleness,
                                          bool answer_tier) {
  px::TenantRegistryOptions topts;
  topts.cache_defaults.capacity = kCacheCapacity;
  topts.cache_defaults.tolerance = kDocTau;
  topts.cache_defaults.metric = metric;
  topts.cache_defaults.staleness = staleness;
  topts.answer_defaults.metric = metric;
  if (answer_tier) {
    topts.answer_defaults.capacity = kCacheCapacity;
    topts.answer_defaults.tolerance = kAnswerTau;
  }
  // One tenant: every request lands on the default tenant.
  topts.unknown_policy = px::UnknownTenantPolicy::kMapToDefault;
  return topts;
}

void CheckConservation(const px::BatchingDriverStats& ds,
                       const std::string& who, Checks& checks) {
  const std::uint64_t accounted = ds.hits + ds.answer_hits + ds.retrieved +
                                  ds.coalesced + ds.shed + ds.expired +
                                  ds.quota_shed + ds.mutations;
  checks.Expect(accounted == ds.submitted,
                who + ": driver conservation broken (accounted " +
                    std::to_string(accounted) + " != submitted " +
                    std::to_string(ds.submitted) + ")");
}

// Every request a server parsed was answered. A backend may also drop
// the answer of a hedge leg whose connection the router already closed
// (`abandoned`); a client-facing server may not.
void CheckServer(const net::ServerStats& ns, const std::string& who,
                 bool client_facing, Checks& checks) {
  checks.Expect(ns.requests == ns.responses + ns.abandoned,
                who + ": requests " + std::to_string(ns.requests) +
                    " != responses " + std::to_string(ns.responses) +
                    " + abandoned " + std::to_string(ns.abandoned));
  checks.Expect(!client_facing || ns.abandoned == 0,
                who + ": answers abandoned");
  checks.Expect(ns.protocol_errors == 0, who + ": protocol errors");
}

// The corpus is fixed (the specs' default seed, as in every bench of the
// repository); the seed varies what is asked of it: question order and
// popularity, arrival times and writes.
px::Workload BuildFor(const WorkloadParams& p) {
  px::WorkloadSpec spec = p.name == "medrag_routed_miss"
                              ? px::MedragLikeSpec(p.corpus)
                              : px::MmluLikeSpec(p.corpus);
  if (p.questions != 0) spec.num_questions = p.questions;
  return px::BuildWorkload(spec);
}

std::vector<px::StreamEntry> StreamFor(const WorkloadParams& p,
                                       const px::Workload& workload,
                                       std::uint64_t seed) {
  px::QueryStreamOptions sopts;
  sopts.variants_per_question = p.variants;
  sopts.seed = seed;
  if (p.zipf) {
    sopts.order = px::StreamOrder::kZipf;
    sopts.zipf_length = 20000;
  }
  return px::BuildQueryStream(workload, sopts);
}

// One server over one index: mmlu_hits and mmlu_churn.
class SingleStack final : public Stack {
 public:
  SingleStack(const WorkloadParams& p, std::uint64_t seed)
      : params_(p), workload_(BuildFor(p)) {
    const bool churn = p.write_every != 0;
    mix_ = std::make_unique<Mix>(
        workload_, StreamFor(p, workload_, seed), p.write_every, seed);
    px::IndexSpec ispec;
    ispec.kind = churn ? "mutable" : "hnsw";
    ispec.hnsw_m = kHnswM;
    ispec.hnsw_ef_construction = kHnswEfConstruction;
    ispec.hnsw_ef_search = kHnswEfSearch;
    index_ = px::BuildShardedIndex(
        ispec, embedder_.EmbedBatch(workload_.passages));
    initial_size_ = index_->size();
    timed_ = std::make_unique<TimedIndex>(*index_, recorder_);
    registry_ = std::make_unique<px::TenantRegistry>(
        embedder_.dim(),
        RegistryOptions(index_->metric(),
                        churn ? px::StalenessPolicy::kRevalidate
                              : px::StalenessPolicy::kServeStale,
                        /*answer_tier=*/!churn));
    px::BatchingDriverOptions dopts;
    dopts.answer_reuse = !churn;
    driver_ = std::make_unique<px::BatchingDriver>(*timed_, *registry_,
                                                   &embedder_, dopts);
    if (churn) {
      driver_->EnableMutation(*timed_);
      consolidator_ = std::thread([this] { ConsolidateLoop(); });
      mix_->set_on_write([this] { OnWrite(); });
    }
    sink_ = std::make_unique<net::DriverSink>(*driver_);
    timed_sink_ = std::make_unique<TimedSink>(*sink_, recorder_, 0);
    server_ = std::make_unique<net::Server>(*timed_sink_);
    server_->Start();
  }

  ~SingleStack() override { Stop(); }

  std::uint16_t port() const override { return server_->port(); }
  Mix& mix() override { return *mix_; }
  const px::Workload& workload() const override { return workload_; }
  Recorder& recorder() override { return recorder_; }
  const px::HashEmbedder& embedder() const override { return embedder_; }

  StackCounters counters() const override {
    StackCounters c;
    c.quota_shed = driver_->stats().quota_shed;
    return c;
  }

  void StopAndCheck(Checks& checks) override {
    Stop();
    CheckServer(server_->stats(), "server", /*client_facing=*/true, checks);
    CheckConservation(driver_->stats(), "driver", checks);
    if (params_.write_every != 0) {
      const std::size_t expected =
          initial_size_ + mix_->inserts_ok() - mix_->deletes_ok();
      checks.Expect(index_->size() == expected,
                    "index size " + std::to_string(index_->size()) +
                        " != initial + inserts - deletes " +
                        std::to_string(expected));
      checks.Expect(mix_->gold_deletes() == 0, "a DELETE hit a gold passage");
      checks.Expect(mix_->inserts_ok() > 0 && mix_->deletes_ok() > 0,
                    "no write completed");
    }
  }

  double IndexBytesPerQuery() const override {
    const double row = static_cast<double>(embedder_.dim() * sizeof(float));
    // Graph search reads about beam x degree rows (upper bound); HNSW's
    // bottom layer has degree 2M, the mutable graph its max_degree (32).
    // Every shard of the sharded index runs its own search.
    const double shards = static_cast<double>(index_->num_shards());
    return params_.write_every != 0
               ? 64.0 * 32.0 * row * shards
               : static_cast<double>(kHnswEfSearch * 2 * kHnswM) * row *
                     shards;
  }

 private:
  // The fixed Consolidate() cadence, run off the load threads.
  void OnWrite() {
    {
      std::lock_guard lock(cmu_);
      if (++writes_seen_ % kConsolidateEvery != 0) return;
      ++consolidations_due_;
    }
    ccv_.notify_one();
  }

  void ConsolidateLoop() {
    std::unique_lock lock(cmu_);
    for (;;) {
      ccv_.wait(lock, [&] { return stop_ || consolidations_due_ > 0; });
      if (stop_) return;
      --consolidations_due_;
      lock.unlock();
      timed_->Consolidate();
      lock.lock();
    }
  }

  void Stop() {
    {
      std::lock_guard lock(cmu_);
      stop_ = true;
    }
    ccv_.notify_all();
    if (consolidator_.joinable()) consolidator_.join();
    if (server_) server_->Stop();
    if (driver_) driver_->Shutdown();
  }

  WorkloadParams params_;
  Recorder recorder_;
  px::Workload workload_;
  std::unique_ptr<Mix> mix_;
  px::HashEmbedder embedder_;
  std::unique_ptr<px::ShardedIndex> index_;
  std::size_t initial_size_ = 0;
  std::unique_ptr<TimedIndex> timed_;
  std::unique_ptr<px::TenantRegistry> registry_;
  std::unique_ptr<px::BatchingDriver> driver_;
  std::unique_ptr<net::DriverSink> sink_;
  std::unique_ptr<TimedSink> timed_sink_;
  std::unique_ptr<net::Server> server_;

  std::mutex cmu_;
  std::condition_variable ccv_;
  std::uint64_t writes_seen_ = 0;
  std::uint64_t consolidations_due_ = 0;
  bool stop_ = false;
  std::thread consolidator_;
};

// One backend shard server over corpus partition `group` of kGroups:
// what `proximity_cli serve partition=g/2 listen=...` boots.
struct Backend {
  std::unique_ptr<px::ShardedIndex> index;
  std::unique_ptr<TimedIndex> timed;
  std::unique_ptr<px::TenantRegistry> registry;
  std::unique_ptr<px::BatchingDriver> driver;
  std::unique_ptr<net::DriverSink> sink;
  std::unique_ptr<TimedSink> timed_sink;
  std::unique_ptr<net::Server> server;

  Backend(const px::Matrix& corpus, std::uint32_t group,
          const px::HashEmbedder& embedder, Recorder& recorder) {
    px::IndexSpec ispec;
    ispec.kind = "flat";
    index = px::BuildPartitionedIndex(ispec, corpus, group, kGroups);
    timed = std::make_unique<TimedIndex>(*index, recorder);
    registry = std::make_unique<px::TenantRegistry>(
        embedder.dim(),
        RegistryOptions(index->metric(), px::StalenessPolicy::kServeStale,
                        /*answer_tier=*/false));
    driver = std::make_unique<px::BatchingDriver>(*timed, *registry,
                                                  &embedder);
    sink = std::make_unique<net::DriverSink>(*driver);
    timed_sink = std::make_unique<TimedSink>(*sink, recorder, group);
    server = std::make_unique<net::Server>(*timed_sink);
    server->Start();
  }

  void Stop() {
    server->Stop();
    driver->Shutdown();
  }
};

// Router over 2 partition groups x 2 replicas: medrag_routed_miss.
class RoutedStack final : public Stack {
 public:
  RoutedStack(const WorkloadParams& p, std::uint64_t seed)
      : workload_(BuildFor(p)) {
    mix_ = std::make_unique<Mix>(
        workload_, StreamFor(p, workload_, seed), 0, seed);
    corpus_ = embedder_.EmbedBatch(workload_.passages);
    std::string map;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        backends_.push_back(
            std::make_unique<Backend>(corpus_, g, embedder_, recorder_));
        map += "shard " + std::to_string(g) + " rpc=127.0.0.1:" +
               std::to_string(backends_.back()->server->port()) + "\n";
      }
    }
    // Hedging stays at its defaults.
    router_ = std::make_unique<px::cluster::Router>(
        px::cluster::ShardMap::Parse(map));
    router_->Start();
  }

  ~RoutedStack() override { Stop(); }

  std::uint16_t port() const override { return router_->port(); }
  Mix& mix() override { return *mix_; }
  const px::Workload& workload() const override { return workload_; }
  Recorder& recorder() override { return recorder_; }
  const px::HashEmbedder& embedder() const override { return embedder_; }
  bool medrag() const override { return true; }

  StackCounters counters() const override {
    StackCounters c;
    for (const auto& b : backends_) {
      c.quota_shed += b->driver->stats().quota_shed;
    }
    const px::cluster::RouterStats rs = router_->stats();
    c.cluster_queries = rs.queries;
    c.cluster_legs = rs.legs;
    c.cluster_hedges = rs.hedges;
    c.cluster_hedge_wins = rs.hedge_wins;
    c.cluster_retries = rs.retries;
    return c;
  }

  void StopAndCheck(Checks& checks) override {
    Stop();
    CheckServer(router_->server_stats(), "router", /*client_facing=*/true,
                checks);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const std::string who = "backend " + std::to_string(i);
      CheckServer(backends_[i]->server->stats(), who,
                  /*client_facing=*/false, checks);
      CheckConservation(backends_[i]->driver->stats(), who, checks);
    }
  }

  double IndexBytesPerQuery() const override {
    // Every query scans every row of both partitions once.
    return static_cast<double>(corpus_.rows() * corpus_.dim() *
                               sizeof(float));
  }

  const px::FlatIndex* oracle() const override {
    // Built on first use, after the measured window: it is the
    // correctness reference, not part of the served stack.
    if (!oracle_) {
      oracle_ = std::make_unique<px::FlatIndex>(corpus_.dim());
      oracle_->AddBatch(corpus_);
    }
    return oracle_.get();
  }

 private:
  void Stop() {
    if (router_) router_->Stop();
    for (auto& b : backends_) b->Stop();
  }

  Recorder recorder_;
  px::Workload workload_;
  std::unique_ptr<Mix> mix_;
  px::HashEmbedder embedder_;
  px::Matrix corpus_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<px::cluster::Router> router_;
  mutable std::unique_ptr<px::FlatIndex> oracle_;
};

}  // namespace

WorkloadParams ParamsFor(const std::string& workload, bool tiny) {
  WorkloadParams p;
  p.name = workload;
  if (workload == "mmlu_hits" || workload == "mmlu_churn") {
    p.corpus = tiny ? 1500 : 6000;
    p.variants = 4;
    p.zipf = true;
    p.warmup_requests = tiny ? 300 : 3000;
    if (workload == "mmlu_churn") {
      p.offered_qps = tiny ? 200 : 300;
      p.write_every = 20;  // a fixed 5% of requests are writes
    } else {
      p.offered_qps = tiny ? 200 : 1000;
    }
  } else if (workload == "medrag_routed_miss") {
    // Enough questions that a request repeats only after the stream
    // wraps, far beyond each backend cache's 300 entries.
    p.questions = tiny ? 300 : 2000;
    p.corpus = tiny ? 1500 : 12000;
    p.variants = 1;
    p.warmup_requests = tiny ? 100 : 600;
    p.offered_qps = tiny ? 100 : 150;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return p;
}

std::unique_ptr<Stack> BootStack(const WorkloadParams& params,
                                 std::uint64_t seed) {
  if (params.name == "medrag_routed_miss") {
    return std::make_unique<RoutedStack>(params, seed);
  }
  return std::make_unique<SingleStack>(params, seed);
}

}  // namespace perfbench
