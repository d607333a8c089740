// A-stale: what happens to a warm cache when the corpus is mutated
// underneath it — and what each staleness policy buys (DESIGN.md §13).
//
// The cached values are document-id lists retrieved in the past; when a
// document is rewritten in place, a hit keeps serving the pre-update
// list. Simulation: each question has 6 gold passages, but in "epoch 1"
// two of them are not yet written (their corpus slots hold background
// text). The cache warms against the epoch-1 corpus; then the update is
// applied as REAL streaming mutations on the one live index — the stub
// slots are Delete()d, Consolidate() reclaims them, and the finished
// passages are Insert()ed into the reclaimed slots (slot reuse keeps
// every id stable, so cached lists remain valid ids — just stale
// evidence). The index generation the mutations bumped is then pushed
// into each warm cache, and the post-update stream is replayed under
// each hit-time staleness policy:
//   serve-stale       — stale hits served anyway (fast, wrong evidence)
//   revalidate        — stale hits degrade to misses and re-retrieve
//   invalidate-region — a stale hit evicts its whole τ-region
//   fresh             — cache cleared at the update (oracle baseline)
//
// Expected shape: `serve-stale` keeps its high hit rate but loses
// relevance and accuracy; `revalidate`/`invalidate-region` pay misses
// to recover accuracy; `fresh` has full accuracy and the worst early
// hit rate.
//
// Usage: staleness_sim [corpus=8000] [capacity=300] [tau=2] [quiet=true]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/csv.h"
#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"
#include "workload/synth_text.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);

  const auto corpus_size =
      static_cast<std::size_t>(cfg.GetInt("corpus", 8000));
  const auto capacity = static_cast<std::size_t>(cfg.GetInt("capacity", 300));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));

  WorkloadSpec spec = MedragLikeSpec(corpus_size, 42);
  spec.golds_per_question = 6;  // headroom for the "new documents"
  const Workload workload = BuildWorkload(spec);

  // Epoch 1: the last 2 golds of each question do not exist yet — their
  // corpus slots are overwritten with unrelated background-style text so
  // ids stay aligned across epochs.
  std::vector<std::string> epoch1 = workload.passages;
  std::vector<VectorId> updated_ids;
  for (const auto& question : workload.questions) {
    for (std::size_t g = 4; g < question.gold_ids.size(); ++g) {
      const auto id = static_cast<std::size_t>(question.gold_ids[g]);
      std::string filler;
      for (int w = 0; w < 45; ++w) {
        if (w) filler += ' ';
        filler += GlobalWord((id * 45 + static_cast<std::size_t>(w)) % 600);
      }
      epoch1[id] = filler;
      updated_ids.push_back(question.gold_ids[g]);
    }
  }
  std::sort(updated_ids.begin(), updated_ids.end());
  updated_ids.erase(std::unique(updated_ids.begin(), updated_ids.end()),
                    updated_ids.end());

  HashEmbedder embedder;
  IndexSpec ispec;
  ispec.kind = "mutable";
  LogInfo("building live index over epoch-1 corpus ({} passages)",
          workload.passages.size());
  auto index = BuildIndex(ispec, embedder.EmbedBatch(epoch1));

  QueryStreamOptions sopts;
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);
  const std::size_t half = stream.size() / 2;

  auto warm_phase = [&](TenantRegistry& registry) {
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    RagPipeline pipeline(&workload, &retriever,
                         AnswerModel(MedragAnswerParams()), 1);
    for (std::size_t i = 0; i < half; ++i) {
      pipeline.ProcessQuery(stream[i], embeddings.Row(i));
    }
  };

  auto post_update_phase = [&](TenantRegistry& registry) {
    BatchingDriver driver(*index, registry, nullptr);
    Retriever retriever(driver);
    RagPipeline pipeline(&workload, &retriever,
                         AnswerModel(MedragAnswerParams()), 1);
    std::size_t correct = 0, hits = 0;
    double relevance = 0;
    for (std::size_t i = half; i < stream.size(); ++i) {
      const QueryResult r =
          pipeline.ProcessQuery(stream[i], embeddings.Row(i));
      correct += r.correct ? 1 : 0;
      hits += r.cache_hit ? 1 : 0;
      relevance += r.judgment.relevance;
    }
    const double n = static_cast<double>(stream.size() - half);
    return std::tuple{static_cast<double>(correct) / n,
                      static_cast<double>(hits) / n, relevance / n};
  };

  // Every mode's cache warms against the SAME pre-update index state,
  // before the mutations below are applied.
  ApproxCacheOptions copts;
  copts.capacity = capacity;
  copts.tolerance = tau;
  ApproxCacheOptions serve_stale = copts;
  serve_stale.staleness = StalenessPolicy::kServeStale;
  ApproxCacheOptions revalidate = copts;
  revalidate.staleness = StalenessPolicy::kRevalidate;
  ApproxCacheOptions invalidate = copts;
  invalidate.staleness = StalenessPolicy::kInvalidateRegion;

  TenantRegistry stale(embedder.dim(), {.cache_defaults = serve_stale});
  TenantRegistry reval(embedder.dim(), {.cache_defaults = revalidate});
  TenantRegistry region(embedder.dim(), {.cache_defaults = invalidate});
  TenantRegistry fresh(embedder.dim(), {.cache_defaults = copts});
  warm_phase(stale);
  warm_phase(reval);
  warm_phase(region);
  warm_phase(fresh);

  // The update, as real streaming mutations: tombstone every stub slot,
  // consolidate so the slots are reclaimed, then insert the finished
  // passages in ascending-id order — slot reuse hands back the lowest
  // free slot first, so every document keeps its id across the update.
  LogInfo("applying {} in-place document updates via Delete/Insert",
          updated_ids.size());
  const Matrix finished = embedder.EmbedBatch(workload.passages);
  for (const VectorId id : updated_ids) {
    if (!index->Delete(id)) {
      throw std::runtime_error("staleness_sim: Delete failed");
    }
  }
  const std::size_t reclaimed = index->Consolidate();
  if (reclaimed != updated_ids.size()) {
    throw std::runtime_error("staleness_sim: consolidation reclaimed " +
                             std::to_string(reclaimed) + " of " +
                             std::to_string(updated_ids.size()));
  }
  for (const VectorId id : updated_ids) {
    const VectorId got =
        index->Insert(finished.Row(static_cast<std::size_t>(id)));
    if (got != id) {
      throw std::runtime_error("staleness_sim: slot reuse broke id " +
                               std::to_string(id) + " -> " +
                               std::to_string(got));
    }
  }
  const std::uint64_t generation = index->generation();

  // The staleness contract: push the post-mutation generation into each
  // warm cache; every pre-update entry is now stale at hit time.
  for (TenantRegistry* registry : {&stale, &reval, &region, &fresh}) {
    registry->CacheFor(kDefaultTenant).set_generation(generation);
  }
  fresh.CacheFor(kDefaultTenant).Clear();  // the refresh-everything oracle

  CsvTable table(
      {"mode", "accuracy", "hit_rate", "mean_relevance", "stale_hits"});
  const auto run_mode = [&](const std::string& mode,
                            TenantRegistry& registry) {
    const auto [acc, hit, rel] = post_update_phase(registry);
    table.AddRow(
        {mode, acc, hit, rel,
         static_cast<double>(
             registry.CacheFor(kDefaultTenant).stats().stale_hits)});
  };
  run_mode("serve-stale", stale);
  run_mode("revalidate", reval);
  run_mode("invalidate-region", region);
  run_mode("fresh", fresh);

  std::printf("# Staleness under live-corpus mutation (policies of "
              "DESIGN.md §13)\n");
  table.Write(std::cout);
  return 0;
}
