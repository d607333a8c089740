// A-disk (DESIGN.md): §4.3.3 — "the speedup gains by Proximity increase as
// the latency of vector database lookups increases. … implementations such
// as DISKANN (partially) store indices on the disk, which increases
// retrieval latency … such implementations would highly benefit from the
// speedups enabled by Proximity."
//
// The MedRAG-like workload runs against an index (flat by default; pass
// index=mutable for a Vamana graph, DiskANN's in-memory core) wrapped in a
// storage-latency model, sweeping the simulated per-search delay from 0
// (RAM-resident, the paper's setup) to tens of milliseconds
// (disk-resident regime). The index is built once and shared across all
// delay configurations. Expected shape: the relative latency reduction
// converges to the hit rate, while the *absolute* savings per query keep
// growing with storage latency — the paper's "would highly benefit".
//
// Usage: diskann_sim [corpus=8000] [capacity=200] [tau=5] [seeds=3]
//                    [delays_us=0,100,1000,10000,50000] [index=flat]
//                    [quiet=true]
#include <cstdio>
#include <iostream>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/csv.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

/// Non-owning storage-latency wrapper: delegates to a shared inner index
/// and charges a fixed virtual delay per search (cf. SlowStorageIndex,
/// which owns its inner index; here the expensive-to-build graph is
/// shared across delay configurations).
class BorrowedSlowIndex final : public VectorIndex {
 public:
  BorrowedSlowIndex(const VectorIndex* inner, Nanos delay_ns,
                    VirtualClock* clock)
      : inner_(inner), delay_ns_(delay_ns), clock_(clock) {}

  std::size_t dim() const noexcept override { return inner_->dim(); }
  Metric metric() const noexcept override { return inner_->metric(); }
  std::size_t size() const noexcept override { return inner_->size(); }
  VectorId Add(std::span<const float>) override {
    throw std::logic_error("BorrowedSlowIndex is read-only");
  }
  std::string Describe() const override {
    return "borrowed_slow(" + inner_->Describe() + ")";
  }

  std::vector<Neighbor> Search(std::span<const float> query,
                               std::size_t k) const override {
    auto results = inner_->Search(query, k);
    clock_->Advance(delay_ns_);
    return results;
  }

 private:
  const VectorIndex* inner_;
  Nanos delay_ns_;
  VirtualClock* clock_;
};

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);

  const auto corpus = static_cast<std::size_t>(cfg.GetInt("corpus", 8000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 5.0));
  const auto seeds = static_cast<std::size_t>(cfg.GetInt("seeds", 3));
  const auto delays_us =
      cfg.GetIntList("delays_us", {0, 100, 1000, 10000, 50000});

  const Workload workload = BuildWorkload(MedragLikeSpec(corpus, 42));
  HashEmbedder embedder;
  IndexSpec ispec;
  ispec.kind = cfg.GetString("index", "flat");
  ispec.vamana_beam = static_cast<std::size_t>(cfg.GetInt("beam", 48));
  LogInfo("building {} over {} passages (once, shared across delays)",
          ispec.kind, workload.passages.size());
  auto inner = BuildIndex(ispec, embedder.EmbedBatch(workload.passages));

  // Pre-embedded per-seed streams, shared by every delay configuration.
  std::vector<std::vector<StreamEntry>> streams;
  std::vector<Matrix> stream_embeddings;
  for (std::size_t s = 0; s < seeds; ++s) {
    QueryStreamOptions sopts;
    sopts.seed = 1 + s;
    streams.push_back(BuildQueryStream(workload, sopts));
    std::vector<std::string> texts;
    for (const auto& e : streams.back()) texts.push_back(e.text);
    stream_embeddings.push_back(embedder.EmbedBatch(texts));
  }

  CsvTable table({"storage_delay_us", "baseline_latency_ms",
                  "cached_latency_ms", "latency_reduction_pct",
                  "saved_ms_per_query", "hit_rate", "accuracy"});

  VirtualClock clock;
  for (std::int64_t delay_us : delays_us) {
    const BorrowedSlowIndex slow(inner.get(), delay_us * 1000, &clock);

    auto run = [&](double run_tau, std::uint64_t seed) {
      ApproxCacheOptions copts;
      copts.capacity = capacity;
      copts.tolerance = static_cast<float>(run_tau);
      copts.metric = slow.metric();
      copts.seed = seed;
      TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
      BatchingDriver driver(slow, registry, nullptr);
      Retriever retriever(driver, &clock);
      RagPipeline pipeline(&workload, &retriever,
                           AnswerModel(MedragAnswerParams()), seed);
      const std::size_t slot = static_cast<std::size_t>(seed - 1);
      return pipeline.RunStream(streams[slot], stream_embeddings[slot]);
    };

    double base_lat = 0, cached_lat = 0, hit = 0, acc = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const RunMetrics baseline = run(0.0, 1 + s);
      const RunMetrics cached = run(tau, 1 + s);
      base_lat += baseline.mean_latency_ms;
      cached_lat += cached.mean_latency_ms;
      hit += cached.hit_rate;
      acc += cached.accuracy;
    }
    const double n = static_cast<double>(seeds);
    base_lat /= n;
    cached_lat /= n;
    const double reduction =
        base_lat > 0 ? (1.0 - cached_lat / base_lat) * 100.0 : 0.0;
    table.AddRow({delay_us, base_lat, cached_lat, reduction,
                  base_lat - cached_lat, hit / n, acc / n});
    LogInfo("delay={}us: baseline={:.3f}ms cached={:.3f}ms reduction={:.1f}%",
            delay_us, base_lat, cached_lat, reduction);
  }

  std::printf(
      "# DiskANN-style storage-latency sweep (paper remark, §4.3.3)\n");
  table.Write(std::cout);
  return 0;
}
