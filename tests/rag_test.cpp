// Integration tests for src/rag: retriever semantics, the end-to-end
// pipeline, and the Figure-3 sweep runner on a miniature workload.
#include <gtest/gtest.h>

#include <memory>

#include "common/log.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "index/slow_storage_index.h"
#include "llm/answer_model.h"
#include "rag/experiment.h"
#include "rag/pipeline.h"
#include "rag/retriever.h"
#include "workload/benchmark_spec.h"
#include "one_tenant.h"

namespace proximity {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { SetLogLevel(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);

Matrix RandomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Matrix m(rows, dim);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& x : m.MutableRow(r)) {
      x = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  return m;
}

// ------------------------------------------------------------ Retriever --

TEST(RetrieverTest, CacheHitBypassesIndexAndIsFaster) {
  FlatIndex index(4);
  index.AddBatch(RandomMatrix(20000, 4, 2));
  ApproxCacheOptions copts;
  copts.capacity = 10;
  copts.tolerance = 0.01f;
  OneTenant stack(index, copts, nullptr, {.top_k = 5});
  Retriever retriever(stack.driver);
  const std::vector<float> q = {0.5f, 0.5f, 0.5f, 0.5f};
  const auto miss = retriever.Retrieve(q);
  const auto hit = retriever.Retrieve(q);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.documents, hit.documents);
  EXPECT_EQ(retriever.stats().HitRate(), 0.5);
}

// The retriever runs the driver's request path, so the §3.1 checks sit
// at driver construction: the cache must use the index's metric.
TEST(RetrieverTest, RejectsMetricMismatch) {
  FlatIndex index(4, {.metric = Metric::kCosine});
  TenantRegistry l2(4, {.cache_defaults = {.metric = Metric::kL2}});
  EXPECT_THROW(BatchingDriver(index, l2, nullptr), std::invalid_argument);

  // Answer reuse is a radius on that cache: with it on, answer_defaults
  // may name no other metric and no other non-zero capacity.
  TenantRegistryOptions topts;
  topts.cache_defaults.metric = Metric::kCosine;
  topts.answer_defaults.metric = Metric::kL2;
  TenantRegistry mixed(4, topts);
  EXPECT_THROW(BatchingDriver(index, mixed, nullptr, {.answer_reuse = true}),
               std::invalid_argument);
  EXPECT_NO_THROW(BatchingDriver(index, mixed, nullptr));

  topts.answer_defaults.metric = Metric::kCosine;
  topts.answer_defaults.capacity = topts.cache_defaults.capacity + 1;
  TenantRegistry resized(4, topts);
  EXPECT_THROW(
      BatchingDriver(index, resized, nullptr, {.answer_reuse = true}),
      std::invalid_argument);
  EXPECT_NO_THROW(BatchingDriver(index, resized, nullptr));
  topts.answer_defaults.capacity = topts.cache_defaults.capacity;
  TenantRegistry same(4, topts);
  EXPECT_NO_THROW(BatchingDriver(index, same, nullptr, {.answer_reuse = true}));
}

TEST(RetrieverTest, RejectsDimensionMismatch) {
  FlatIndex index(4);
  TenantRegistry registry(8);
  EXPECT_THROW(BatchingDriver(index, registry, nullptr),
               std::invalid_argument);
}

// A null index cannot reach the driver (it takes a reference); a zero
// top-k, or a zero batch, is refused at construction.
TEST(RetrieverTest, RejectsNullIndexAndZeroK) {
  FlatIndex index(4);
  TenantRegistry registry(4);
  EXPECT_THROW(BatchingDriver(index, registry, nullptr, {.top_k = 0}),
               std::invalid_argument);
  EXPECT_THROW(BatchingDriver(index, registry, nullptr, {.max_batch = 0}),
               std::invalid_argument);
}

TEST(RetrieverTest, VirtualClockDelayCountsTowardLatency) {
  VirtualClock clock;
  auto inner = std::make_unique<FlatIndex>(4);
  inner->AddBatch(RandomMatrix(50, 4, 3));
  SlowStorageIndex slow(std::move(inner), {.fixed_ns = 50'000'000}, &clock);
  OneTenant stack(slow, {.tolerance = 0.0f}, nullptr, {.top_k = 5});
  Retriever retriever(stack.driver, &clock);
  const std::vector<float> q = {0, 0, 0, 0};
  const auto outcome = retriever.Retrieve(q);
  EXPECT_GE(outcome.latency_ns, 50'000'000);
}

// --------------------------------------------------------- RagPipeline --

struct PipelineFixture {
  PipelineFixture() {
    WorkloadSpec spec = MmluLikeSpec(800, 42);
    spec.num_questions = 20;
    spec.num_clusters = 4;
    workload = BuildWorkload(spec);
    corpus_embeddings = embedder.EmbedBatch(workload.passages);
    index = std::make_unique<FlatIndex>(embedder.dim());
    index->AddBatch(corpus_embeddings);

    QueryStreamOptions sopts;
    sopts.seed = 1;
    stream = BuildQueryStream(workload, sopts);
    std::vector<std::string> texts;
    for (const auto& e : stream) texts.push_back(e.text);
    stream_embeddings = embedder.EmbedBatch(texts);
  }

  HashEmbedder embedder;
  Workload workload;
  Matrix corpus_embeddings;
  std::unique_ptr<FlatIndex> index;
  std::vector<StreamEntry> stream;
  Matrix stream_embeddings;
};

// τ = 0 is the no-caching baseline of Figure 3.
ApproxCacheOptions Uncached() { return {.tolerance = 0.0f}; }

TEST(RagPipelineTest, ExactRetrievalIsFullyRelevant) {
  PipelineFixture fx;
  OneTenant stack(*fx.index, Uncached());
  Retriever retriever(stack.driver);
  RagPipeline pipeline(&fx.workload, &retriever,
                       AnswerModel(MmluAnswerParams()), 1);
  const RunMetrics m = pipeline.RunStream(fx.stream, fx.stream_embeddings);
  EXPECT_EQ(m.queries, fx.stream.size());
  EXPECT_DOUBLE_EQ(m.hit_rate, 0.0);
  EXPECT_GT(m.mean_relevance, 0.95);
  // Accuracy near the MMLU RAG anchor.
  EXPECT_NEAR(m.accuracy, 0.502, 0.05);
}

TEST(RagPipelineTest, LooseCacheProducesHitsAndFasterRetrieval) {
  PipelineFixture fx;
  ApproxCacheOptions copts;
  copts.capacity = 100;
  copts.tolerance = 2.0f;
  OneTenant stack(*fx.index, copts);
  Retriever retriever(stack.driver);
  RagPipeline pipeline(&fx.workload, &retriever,
                       AnswerModel(MmluAnswerParams()), 1);
  const RunMetrics m = pipeline.RunStream(fx.stream, fx.stream_embeddings);
  EXPECT_GT(m.hit_rate, 0.4);   // variants hit at tau = 2
  EXPECT_GT(m.mean_relevance, 0.9);  // variant hits serve the right docs
}

TEST(RagPipelineTest, DeterministicAcrossRuns) {
  PipelineFixture fx;
  auto run = [&] {
    ApproxCacheOptions copts;
    copts.capacity = 50;
    copts.tolerance = 2.0f;
    OneTenant stack(*fx.index, copts);
    Retriever retriever(stack.driver);
    RagPipeline pipeline(&fx.workload, &retriever,
                         AnswerModel(MmluAnswerParams()), 1);
    return pipeline.RunStream(fx.stream, fx.stream_embeddings);
  };
  const RunMetrics a = run();
  const RunMetrics b = run();
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.hit_rate, b.hit_rate);
}

TEST(RagPipelineTest, ValidatesInput) {
  PipelineFixture fx;
  OneTenant stack(*fx.index, Uncached());
  Retriever retriever(stack.driver);
  EXPECT_THROW(RagPipeline(nullptr, &retriever,
                           AnswerModel(MmluAnswerParams()), 1),
               std::invalid_argument);
  RagPipeline pipeline(&fx.workload, &retriever,
                       AnswerModel(MmluAnswerParams()), 1);
  StreamEntry bad;
  bad.question = 9999;
  const std::vector<float> q(fx.embedder.dim(), 0.f);
  EXPECT_THROW(pipeline.ProcessQuery(bad, q), std::out_of_range);
  const Matrix wrong(3, fx.embedder.dim());
  EXPECT_THROW(pipeline.RunStream(fx.stream, wrong), std::invalid_argument);
}

// ---------------------------------------------------------- SweepRunner --

SweepConfig TinySweep() {
  SweepConfig cfg;
  cfg.workload_spec = MmluLikeSpec(600, 42);
  cfg.workload_spec.num_questions = 15;
  cfg.workload_spec.num_clusters = 3;
  cfg.index_spec.kind = "flat";
  cfg.answer_params = MmluAnswerParams();
  cfg.capacities = {5, 40};
  cfg.tolerances = {0, 2, 10};
  cfg.num_seeds = 2;
  return cfg;
}

TEST(SweepRunnerTest, GridShapeAndMonotoneHitRate) {
  SweepRunner runner(TinySweep());
  const auto cells = runner.Run();
  ASSERT_EQ(cells.size(), 6u);  // 2 capacities x 3 tolerances

  for (const auto& cell : cells) {
    if (cell.tolerance == 0.0) {
      EXPECT_DOUBLE_EQ(cell.mean.hit_rate, 0.0);  // tau=0: no hits (§4.3.2)
    }
    EXPECT_GE(cell.mean.accuracy, 0.0);
    EXPECT_LE(cell.mean.accuracy, 1.0);
  }
  // Hit rate grows with tau at fixed capacity.
  auto find_cell = [&](std::int64_t c, double tau) {
    for (const auto& cell : cells) {
      if (cell.capacity == c && cell.tolerance == tau) return cell;
    }
    throw std::logic_error("cell not found");
  };
  EXPECT_LT(find_cell(40, 0).mean.hit_rate, find_cell(40, 2).mean.hit_rate);
  EXPECT_LE(find_cell(40, 2).mean.hit_rate, find_cell(40, 10).mean.hit_rate);
  // Hit rate grows with capacity at fixed tau (§4.3.2).
  EXPECT_LE(find_cell(5, 2).mean.hit_rate, find_cell(40, 2).mean.hit_rate);
}

TEST(SweepRunnerTest, CsvHasOneRowPerCell) {
  SweepRunner runner(TinySweep());
  const auto cells = runner.Run();
  const CsvTable table = SweepRunner::ToCsv(cells);
  EXPECT_EQ(table.rows(), cells.size());
  const std::string csv = table.ToString();
  EXPECT_NE(csv.find("accuracy"), std::string::npos);
  EXPECT_NE(csv.find("hit_rate"), std::string::npos);
}

TEST(SweepRunnerTest, LatencySummaryHasOneRowPerCapacity) {
  SweepRunner runner(TinySweep());
  const auto cells = runner.Run();
  // Unconstrained accuracy: every capacity has a qualifying tau > 0 cell.
  const CsvTable summary =
      SweepRunner::LatencyReductionSummary(cells, /*max_accuracy_drop=*/1.0);
  EXPECT_EQ(summary.rows(), 2u);
}

TEST(SweepRunnerTest, LatencySummaryRespectsAccuracyGuard) {
  // Synthetic cells: the fast tau = 10 cell loses too much accuracy, so
  // the guarded summary must pick tau = 2.
  std::vector<SweepCell> cells(3);
  cells[0].capacity = 10;
  cells[0].tolerance = 0;
  cells[0].mean.accuracy = 0.50;
  cells[0].mean.mean_latency_ms = 1.0;
  cells[1].capacity = 10;
  cells[1].tolerance = 2;
  cells[1].mean.accuracy = 0.495;
  cells[1].mean.mean_latency_ms = 0.5;
  cells[2].capacity = 10;
  cells[2].tolerance = 10;
  cells[2].mean.accuracy = 0.40;  // accuracy collapse
  cells[2].mean.mean_latency_ms = 0.01;
  const CsvTable summary =
      SweepRunner::LatencyReductionSummary(cells, /*max_accuracy_drop=*/0.01);
  ASSERT_EQ(summary.rows(), 1u);
  const std::string csv = summary.ToString();
  // best_tolerance column must be 2 (the guarded choice), not 10.
  EXPECT_NE(csv.find(",0.5,2,50,"), std::string::npos) << csv;
}

TEST(SweepRunnerTest, RunOneRejectsUnknownSeed) {
  SweepRunner runner(TinySweep());
  EXPECT_THROW(runner.RunOne(5, 1.0, /*seed=*/99), std::out_of_range);
}

TEST(SweepRunnerTest, EvictionOverrideChangesBehaviourUnderZipf) {
  SweepConfig cfg = TinySweep();
  cfg.stream_order = StreamOrder::kZipf;
  cfg.zipf_length = 600;
  cfg.zipf_exponent = 1.2;
  SweepRunner runner(cfg);
  const RunMetrics fifo = runner.RunOne(5, 2.0, 1, EvictionKind::kFifo);
  const RunMetrics lru = runner.RunOne(5, 2.0, 1, EvictionKind::kLru);
  // Under skewed popularity with a tiny cache, LRU should do at least as
  // well as FIFO (it protects the popular head).
  EXPECT_GE(lru.hit_rate + 0.02, fifo.hit_rate);
}

TEST(SweepRunnerTest, StorageModelInflatesLatency) {
  SweepConfig slow_cfg = TinySweep();
  slow_cfg.storage = StorageModel{.fixed_ns = 5'000'000};  // 5ms per miss
  SweepRunner slow(slow_cfg);
  const RunMetrics m = slow.RunOne(5, 0.0, 1);
  EXPECT_GE(m.mean_latency_ms, 5.0);
}

TEST(SweepRunnerTest, AdaptiveRunApproachesTarget) {
  SweepConfig cfg = TinySweep();
  SweepRunner runner(cfg);
  AdaptiveTauOptions opts;
  opts.target_hit_rate = 0.5;
  opts.initial_tau = 0.1;
  opts.max_tau = 30.0;
  opts.window = 8;
  opts.period = 2;
  opts.step = 1.5;  // aggressive steps: the stream is only 60 queries long
  const auto result = runner.RunAdaptive(40, opts, 1);
  // The controller must have widened tau from 0.1 and produced hits.
  EXPECT_GT(result.final_tau, 0.1);
  EXPECT_GT(result.metrics.hit_rate, 0.1);
  EXPECT_GT(result.adjustments, 0u);
}

TEST(SweepRunnerTest, ValidatesConfig) {
  SweepConfig cfg = TinySweep();
  cfg.capacities = {};
  EXPECT_THROW(SweepRunner{cfg}, std::invalid_argument);
  SweepConfig cfg2 = TinySweep();
  cfg2.num_seeds = 0;
  EXPECT_THROW(SweepRunner{cfg2}, std::invalid_argument);
}

}  // namespace
}  // namespace proximity
