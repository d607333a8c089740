// A-answer (DESIGN.md §15): acceptance gates for the answer-level
// semantic cache with grounded reuse routing, machine-readable in
// BENCH_answer.json.
//
// Setup: an MMLU-like workload over a storage-latency index (fixed
// per-search delay on a VirtualClock, the disk-resident regime of
// §4.3.3 where reuse matters most), no retrieval-tier cache — every
// database search pays the storage delay, so TTFT differences come
// from the answer tier alone. Generation is modeled at a fixed cost;
// on answer-cache hits the draft overlaps the grounding retrieval
// (AnswerReuseOptions::overlap).
//
// Two gates, both judged on the SAME shuffled variant stream:
//
//   1. TTFT: within the answer-cache run, mean TTFT of answer-hit
//      queries (served or patched) must be at least 2x better than
//      mean TTFT of the rest (miss/regenerate, which pay retrieval
//      plus the full generation cost): "ttft_speedup" >= 2.
//
//   2. Accuracy: end-to-end accuracy of the answer-cache run must stay
//      within 1 point of a baseline run (same stream, same seeds, no
//      answer tier): "accuracy_delta_pp" <= 1.
//
// The router's serve/patch/regenerate split and the overlap draft
// accounting (drafts == commits + discards) are reported alongside.
//
// Flags: --json=PATH --corpus=N --tau=F --capacity=N --quick
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cache/approx_cache.h"
#include "cache/reuse_router.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/slow_storage_index.h"
#include "llm/answer_model.h"
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
  constexpr double kDraftFraction = 0.25;

  std::printf("answer_cache: corpus=%zu tau=%.2f capacity=%zu\n", corpus,
              tau, capacity);

  const Workload workload = BuildWorkload(MmluLikeSpec(corpus, 42));
  HashEmbedder embedder;
  VirtualClock clock;
  IndexSpec ispec;  // flat: exact search, so drift profiles are stable
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

  // --- Baseline: no answer tier, same stream, same answer seed. TTFT
  // is modeled the same way (retrieval + full generation per query).
  Retriever base_retriever(&index, nullptr, &clock, {.top_k = 10});
  RagPipeline baseline(&workload, &embedder, &base_retriever,
                       AnswerModel(MmluAnswerParams()), 1);
  double base_correct = 0, base_ttft_ns = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QueryResult r = baseline.ProcessQuery(stream[i],
                                                embeddings.Row(i), i);
    base_correct += r.correct ? 1 : 0;
    base_ttft_ns +=
        static_cast<double>(r.retrieval_latency_ns + kGenerationCostNs);
  }

  // --- Answer-cache run: same stream, reuse tier armed.
  AnswerCacheOptions aopts;
  aopts.capacity = capacity;
  aopts.tolerance = static_cast<float>(tau);
  aopts.metric = index.metric();
  AnswerCache acache(embedder.dim(), aopts);
  ReuseRouter router;  // default serve/patch thresholds
  Retriever retriever(&index, nullptr, &clock, {.top_k = 10});
  RagPipeline pipeline(&workload, &embedder, &retriever,
                       AnswerModel(MmluAnswerParams()), 1);
  AnswerReuseOptions ropts;
  ropts.overlap = true;
  ropts.generation_cost_ns = kGenerationCostNs;
  ropts.draft_fraction = kDraftFraction;
  pipeline.EnableAnswerReuse(&acache, &router, ropts);

  double correct = 0;
  double hit_ttft_ns = 0, miss_ttft_ns = 0;
  std::size_t hit_n = 0, miss_n = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QueryResult r = pipeline.ProcessQuery(stream[i],
                                                embeddings.Row(i), i);
    correct += r.correct ? 1 : 0;
    if (r.answer_hit) {
      hit_ttft_ns += static_cast<double>(r.ttft_ns);
      ++hit_n;
    } else {
      miss_ttft_ns += static_cast<double>(r.ttft_ns);
      ++miss_n;
    }
  }

  const double n = static_cast<double>(stream.size());
  const double base_accuracy = base_correct / n;
  const double accuracy = correct / n;
  const double accuracy_delta_pp = std::abs(accuracy - base_accuracy) * 100;
  const double hit_ttft_us = hit_n ? hit_ttft_ns / hit_n * 1e-3 : 0;
  const double miss_ttft_us = miss_n ? miss_ttft_ns / miss_n * 1e-3 : 0;
  const double ttft_speedup = hit_ttft_us > 0 ? miss_ttft_us / hit_ttft_us
                                              : 0;
  const double answer_hit_rate = static_cast<double>(hit_n) / n;
  const AnswerReuseStats& rs = pipeline.answer_stats();
  const bool drafts_balanced = rs.drafts == rs.commits + rs.discards;

  const bool ttft_gate = ttft_speedup >= 2.0;
  const bool accuracy_gate = accuracy_delta_pp <= 1.0;

  std::printf("baseline: accuracy=%.4f mean_ttft_us=%.1f\n", base_accuracy,
              base_ttft_ns / n * 1e-3);
  std::printf("answer:   accuracy=%.4f answer_hit_rate=%.3f\n", accuracy,
              answer_hit_rate);
  std::printf("ttft:     hit=%.1fus miss=%.1fus speedup=%.2fx\n",
              hit_ttft_us, miss_ttft_us, ttft_speedup);
  std::printf("router:   served=%llu patched=%llu regenerated=%llu "
              "stale=%llu\n",
              static_cast<unsigned long long>(rs.served),
              static_cast<unsigned long long>(rs.patched),
              static_cast<unsigned long long>(rs.regenerated),
              static_cast<unsigned long long>(rs.stale_hits));
  std::printf("overlap:  drafts=%llu commits=%llu discards=%llu (%s)\n",
              static_cast<unsigned long long>(rs.drafts),
              static_cast<unsigned long long>(rs.commits),
              static_cast<unsigned long long>(rs.discards),
              drafts_balanced ? "balanced" : "IMBALANCED");
  std::printf("gates:    ttft_speedup>=2 %s | accuracy_delta_pp<=1 %s\n",
              ttft_gate ? "PASS" : "FAIL",
              accuracy_gate ? "PASS" : "FAIL");

  std::ofstream os(json_path);
  os << "{\n"
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
     << "  \"served\": " << rs.served << ",\n"
     << "  \"patched\": " << rs.patched << ",\n"
     << "  \"regenerated\": " << rs.regenerated << ",\n"
     << "  \"drafts\": " << rs.drafts << ",\n"
     << "  \"commits\": " << rs.commits << ",\n"
     << "  \"discards\": " << rs.discards << ",\n"
     << "  \"drafts_balanced\": " << (drafts_balanced ? "true" : "false")
     << ",\n"
     << "  \"ttft_gate\": " << (ttft_gate ? "true" : "false") << ",\n"
     << "  \"accuracy_gate\": " << (accuracy_gate ? "true" : "false")
     << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  return ttft_gate && accuracy_gate && drafts_balanced ? 0 : 1;
}

}  // namespace
}  // namespace proximity

int main(int argc, char** argv) { return proximity::Main(argc, argv); }
