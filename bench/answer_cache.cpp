// A-answer (DESIGN.md §15): acceptance gates for answer reuse,
// machine-readable in BENCH_answer.json.
//
// Setup: an MMLU-like workload over a storage-latency index (fixed
// per-search delay on a VirtualClock, the disk-resident regime of
// §4.3.3 where reuse matters most). Both runs go through the serving
// driver over one cache whose document radius is τ = 0, so every query
// that is not an answer hit pays the storage delay and TTFT differences
// come from answer reuse alone; the answer run adds the radius
// τ_answer. Generation is modeled at a fixed cost, charged to every
// query that is not an answer hit; an answer hit is served from the
// cached evidence of a current-generation entry with no retrieval and
// no generation.
//
// Two gates, both judged on the SAME shuffled variant stream:
//
//   1. TTFT: within the answer-reuse run, mean TTFT of answer-hit
//      queries must be at least 2x better than mean TTFT of the rest
//      (which pay retrieval plus the full generation cost):
//      "ttft_speedup" >= 2.
//
//   2. Accuracy: end-to-end accuracy of the answer-reuse run must stay
//      within 1 point of a baseline run (same stream, same seeds, no
//      answer reuse): "accuracy_delta_pp" <= 1.
//
// Flags: --json=PATH --corpus=N --tau=F (τ_answer) --capacity=N --quick
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stopwatch.h"
#include "embed/hash_embedder.h"
#include "host_info.h"
#include "index/index_factory.h"
#include "index/slow_storage_index.h"
#include "llm/answer_model.h"
#include "rag/batching_driver.h"
#include "rag/pipeline.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"

namespace proximity {
namespace {

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_answer.json";
  std::size_t corpus = 8000;
  double tau = 2.0;
  std::size_t capacity = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--tau=", 6) == 0) {
      tau = std::atof(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = static_cast<std::size_t>(std::atoll(argv[i] + 11));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      corpus = 3000;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  // The storage model and generation cost are fixed: the gates compare
  // query classes within one configuration, not absolute numbers.
  constexpr Nanos kStorageFixedNs = 150'000;      // 150 us per search
  constexpr Nanos kStoragePerResultNs = 2'000;    // + 2 us per candidate
  // Generation dominates retrieval in a real deployment; 5 ms keeps
  // that ordering against the real (wall-clock) flat-scan cost that
  // retrieval latency also includes.
  constexpr Nanos kGenerationCostNs = 5'000'000;  // 5 ms full answer

  std::printf("answer_cache: corpus=%zu tau=%.2f capacity=%zu\n", corpus,
              tau, capacity);

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus, 42));
  HashEmbedder embedder;
  VirtualClock clock;
  IndexSpec ispec;  // flat: exact search
  LogInfo("building {} over {} passages", ispec.kind,
          workload.passages.size());
  SlowStorageIndex index(
      BuildIndex(ispec, embedder.EmbedBatch(workload.passages)),
      StorageModel{kStorageFixedNs, kStoragePerResultNs}, &clock);

  QueryStreamOptions sopts;
  sopts.seed = 1;  // the paper's protocol: 4 variants, global shuffle
  const auto stream = BuildQueryStream(workload, sopts);
  std::vector<std::string> texts;
  texts.reserve(stream.size());
  for (const auto& e : stream) texts.push_back(e.text);
  const Matrix embeddings = embedder.EmbedBatch(texts);

  // Both runs: one tenant whose cache serves documents at τ = 0 (exact
  // repeats only); the answer run adds answer reuse at τ_answer = tau.
  TenantRegistryOptions topts;
  topts.cache_defaults.capacity = capacity;
  topts.cache_defaults.tolerance = 0.0f;
  topts.cache_defaults.metric = index.metric();
  topts.answer_defaults.tolerance = static_cast<float>(tau);
  topts.answer_defaults.metric = index.metric();
  const auto run = [&](bool answer_reuse, auto&& on_query) {
    TenantRegistry registry(embedder.dim(), topts);
    BatchingDriver driver(index, registry, nullptr,
                          {.answer_reuse = answer_reuse});
    Retriever retriever(driver, &clock);
    RagPipeline pipeline(&workload, &retriever,
                         AnswerModel(MmluAnswerParams()), 1,
                         kGenerationCostNs);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      on_query(pipeline.ProcessQuery(stream[i], embeddings.Row(i)));
    }
  };

  // --- Baseline: no answer reuse, same stream, same answer seed.
  double base_correct = 0, base_ttft_ns = 0;
  run(false, [&](const QueryResult& r) {
    base_correct += r.correct ? 1 : 0;
    base_ttft_ns += static_cast<double>(r.ttft_ns);
  });

  // --- Answer-reuse run: same stream, τ_answer armed.
  double correct = 0;
  double hit_ttft_ns = 0, miss_ttft_ns = 0;
  std::size_t hit_n = 0, miss_n = 0;
  run(true, [&](const QueryResult& r) {
    correct += r.correct ? 1 : 0;
    if (r.answer_hit) {
      hit_ttft_ns += static_cast<double>(r.ttft_ns);
      ++hit_n;
    } else {
      miss_ttft_ns += static_cast<double>(r.ttft_ns);
      ++miss_n;
    }
  });

  const double n = static_cast<double>(stream.size());
  const double base_accuracy = base_correct / n;
  const double accuracy = correct / n;
  const double accuracy_delta_pp = std::abs(accuracy - base_accuracy) * 100;
  const double hit_ttft_us = hit_n ? hit_ttft_ns / hit_n * 1e-3 : 0;
  const double miss_ttft_us = miss_n ? miss_ttft_ns / miss_n * 1e-3 : 0;
  const double ttft_speedup = hit_ttft_us > 0 ? miss_ttft_us / hit_ttft_us
                                              : 0;
  const double answer_hit_rate = static_cast<double>(hit_n) / n;

  const bool ttft_gate = ttft_speedup >= 2.0;
  const bool accuracy_gate = accuracy_delta_pp <= 1.0;

  std::printf("baseline: accuracy=%.4f mean_ttft_us=%.1f\n", base_accuracy,
              base_ttft_ns / n * 1e-3);
  std::printf("answer:   accuracy=%.4f answer_hit_rate=%.3f\n", accuracy,
              answer_hit_rate);
  std::printf("ttft:     hit=%.1fus miss=%.1fus speedup=%.2fx\n",
              hit_ttft_us, miss_ttft_us, ttft_speedup);
  std::printf("gates:    ttft_speedup>=2 %s | accuracy_delta_pp<=1 %s\n",
              ttft_gate ? "PASS" : "FAIL",
              accuracy_gate ? "PASS" : "FAIL");

  std::ofstream os(json_path);
  os << "{\n"
     << "  " << HostJson() << ",\n"
     << "  \"corpus\": " << corpus << ",\n"
     << "  \"queries\": " << stream.size() << ",\n"
     << "  \"tau\": " << tau << ",\n"
     << "  \"capacity\": " << capacity << ",\n"
     << "  \"generation_cost_us\": " << kGenerationCostNs / 1000 << ",\n"
     << "  \"baseline_accuracy\": " << base_accuracy << ",\n"
     << "  \"answer_accuracy\": " << accuracy << ",\n"
     << "  \"accuracy_delta_pp\": " << accuracy_delta_pp << ",\n"
     << "  \"answer_hit_rate\": " << answer_hit_rate << ",\n"
     << "  \"hit_ttft_us\": " << hit_ttft_us << ",\n"
     << "  \"miss_ttft_us\": " << miss_ttft_us << ",\n"
     << "  \"ttft_speedup\": " << ttft_speedup << ",\n"
     << "  \"ttft_gate\": " << (ttft_gate ? "true" : "false") << ",\n"
     << "  \"accuracy_gate\": " << (accuracy_gate ? "true" : "false")
     << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  return ttft_gate && accuracy_gate ? 0 : 1;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
