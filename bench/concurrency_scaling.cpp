// A-concurrency (extension): behaviour of the shared cache under
// multi-user load — hit + coalescing rates and database-retrieval count
// as client threads submitting to one BatchingDriver increase. The
// driver's one flusher serializes batches and τ-coalesces similar misses
// within a batch, so the number of database queries stays roughly flat
// even as concurrency grows, which is the multi-tenant analogue of the
// paper's "lowers the computational burden on the vector database".
//
// Usage: concurrency_scaling [corpus=6000] [tau=2] [threads=1,2,4,8]
//                            [zipf_length=2000] [quiet=true]
#include <cstdio>
#include <iostream>

#include "cache/approx_cache.h"
#include "common/config.h"
#include "common/csv.h"
#include "common/log.h"
#include "index/index_factory.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

int main(int argc, char** argv) {
  using namespace proximity;
  const Config cfg = Config::FromArgs(argc, argv);
  if (cfg.GetBool("quiet", false)) SetLogLevel(LogLevel::kWarn);

  const auto corpus = static_cast<std::size_t>(cfg.GetInt("corpus", 6000));
  const float tau = static_cast<float>(cfg.GetDouble("tau", 2.0));
  const auto thread_counts = cfg.GetIntList("threads", {1, 2, 4, 8});

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus, 42));
  HashEmbedder embedder;
  const Matrix corpus_embeddings = embedder.EmbedBatch(workload.passages);
  IndexSpec spec;
  spec.kind = "hnsw";
  spec.hnsw_ef_construction = 100;
  auto index = BuildIndex(spec, corpus_embeddings);

  QueryStreamOptions sopts;
  sopts.order = StreamOrder::kZipf;
  sopts.zipf_length =
      static_cast<std::size_t>(cfg.GetInt("zipf_length", 2000));
  sopts.seed = 1;
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  CsvTable table({"threads", "hit_rate", "coalesced", "db_retrievals",
                  "accuracy", "mean_latency_ms", "wall_ms"});

  for (std::int64_t threads : thread_counts) {
    ApproxCacheOptions copts;
    copts.capacity = 200;
    copts.tolerance = tau;
    TenantRegistry registry(embedder.dim(), {.cache_defaults = copts});

    Stopwatch wall;
    BatchingDriverStats driver;
    const auto result = RunStreamBatched(
        workload, *index, registry, AnswerModel(MmluAnswerParams()), 1, stream,
        embeddings, static_cast<std::size_t>(threads), {}, &driver);
    const double wall_ms = wall.ElapsedMillis();

    table.AddRow({threads, result.metrics.hit_rate,
                  static_cast<std::int64_t>(driver.coalesced),
                  static_cast<std::int64_t>(driver.retrieved),
                  result.metrics.accuracy, result.metrics.mean_latency_ms,
                  wall_ms});
    LogInfo("threads={}: hit={:.3f} retrievals={} coalesced={}", threads,
            result.metrics.hit_rate, driver.retrieved, driver.coalesced);
  }

  std::printf("# Shared-cache concurrency scaling (extension)\n");
  table.Write(std::cout);
  return 0;
}
