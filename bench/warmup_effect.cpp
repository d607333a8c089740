// A-warmup (extension): cold start vs history-based warm-up.
//
// A restarted cache serves its first queries at full database price. This
// bench measures the early-stream hit rate under three starts:
//   cold     — empty cache
//   warmed   — seeded via WarmCacheFromHistory from yesterday's queries
//              (a different shuffle/prefix realization of the workload)
//   snapshot — yesterday's cache restored verbatim (upper bound)
// and reports the hit rate over the first `window` queries plus overall.
//
// Usage: warmup_effect [corpus=8000] [capacity=200] [tau=2] [window=100]
//                      [budget=100] [quiet=true]
#include <cstdio>
#include <iostream>
#include <sstream>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/csv.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "rag/batching_driver.h"
#include "rag/retriever.h"
#include "rag/warmup.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);

  const auto corpus = static_cast<std::size_t>(cfg.GetInt("corpus", 8000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 200));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));
  const auto window = static_cast<std::size_t>(cfg.GetInt("window", 100));
  const auto budget = static_cast<std::size_t>(cfg.GetInt("budget", 100));

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus, 42));
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_ef_construction = 100;
  auto index = BuildIndex(spec, corpus_embeddings);

  auto build_stream = [&](std::uint64_t seed) {
    QueryStreamOptions sopts;
    sopts.seed = seed;
    auto stream = BuildQueryStream(workload, sopts);
    std::vector<std::string> texts;
    for (const auto& e : stream) texts.push_back(e.text);
    return std::make_pair(std::move(stream), embedder.EmbedBatch(texts));
  };
  const auto [yesterday, yesterday_embeddings] = build_stream(7);
  const auto [today, today_embeddings] = build_stream(8);

  auto retrieve = [&](std::span<const float> q) {
    std::vector<VectorId> ids;
    for (const auto& n : index->Search(q, 10)) ids.push_back(n.id);
    return ids;
  };

  ApproxCacheOptions copts;
  copts.capacity = capacity;
  copts.tolerance = tau;
  copts.metric = index->metric();

  // Yesterday's session, used for both the snapshot and the history.
  std::stringstream snapshot;
  {
    TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    for (std::size_t i = 0; i < yesterday.size(); ++i) {
      retriever.Retrieve(yesterday_embeddings.Row(i));
    }
    registry.CacheFor(kDefaultTenant).SaveTo(snapshot);
  }

  CsvTable table({"start", "seed_retrievals", "early_hit_rate",
                  "overall_hit_rate"});

  // Each start is the default tenant of its own registry.
  auto run_today = [&](const char* label, TenantRegistry& registry,
                       std::size_t seed_retrievals) {
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    std::size_t early_hits = 0, hits = 0;
    for (std::size_t i = 0; i < today.size(); ++i) {
      const bool hit = retriever.Retrieve(today_embeddings.Row(i)).cache_hit;
      hits += hit ? 1 : 0;
      if (i < window) early_hits += hit ? 1 : 0;
    }
    table.AddRow(
        {std::string(label), static_cast<std::int64_t>(seed_retrievals),
         static_cast<double>(early_hits) /
             static_cast<double>(std::min(window, today.size())),
         static_cast<double>(hits) / static_cast<double>(today.size())});
  };

  // Cold.
  TenantRegistry cold(embedder.dim(), {.cache_defaults = copts});
  run_today("cold", cold, 0);

  // History warm-up: cluster yesterday's query embeddings.
  TenantRegistry warmed(embedder.dim(), {.cache_defaults = copts});
  WarmupOptions wopts;
  wopts.budget = budget;
  const auto report = WarmCacheFromHistory(warmed.CacheFor(kDefaultTenant),
                                           yesterday_embeddings, retrieve,
                                           wopts);
  LogInfo("warmup: seeded {} entries, estimated coverage {:.3f}",
          report.entries_seeded, report.estimated_coverage);
  run_today("warmed", warmed, report.retrievals_performed);

  // Snapshot restore into the tenant's cache.
  TenantRegistry restored(embedder.dim(), {.cache_defaults = copts});
  restored.CacheFor(kDefaultTenant).LoadFrom(snapshot);
  run_today("snapshot", restored, 0);

  std::printf("# Cold vs warmed vs snapshot start (extension)\n");
  table.Write(std::cout);
  return 0;
}
