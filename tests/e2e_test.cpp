// End-to-end integration tests: the full Figure-1 workflow driven through
// text (no precomputed embeddings), combining components the unit suites
// test in isolation — tiered caching inside a retrieval flow, trace
// round-trips through the pipeline, and snapshot/restore of a mid-session
// state.
#include <gtest/gtest.h>

#include <sstream>

#include "common/log.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/index_io.h"
#include "llm/answer_model.h"
#include "llm/prompt.h"
#include "rag/pipeline.h"
#include "one_tenant.h"
#include "workload/benchmark_spec.h"
#include "workload/query_stream.h"
#include "workload/trace.h"

namespace proximity {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { SetLogLevel(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);

struct E2eFixture {
  E2eFixture() {
    WorkloadSpec spec = MmluLikeSpec(700, 42);
    spec.num_questions = 12;
    spec.num_clusters = 3;
    workload = BuildWorkload(spec);
    corpus_embeddings = embedder.EmbedBatch(workload.passages);
    IndexSpec ispec;
    ispec.kind = "flat";
    index = BuildIndex(ispec, corpus_embeddings);

    QueryStreamOptions sopts;
    sopts.seed = 5;
    stream = BuildQueryStream(workload, sopts);
  }

  HashEmbedder embedder;
  Workload workload;
  Matrix corpus_embeddings;
  std::unique_ptr<VectorIndex> index;
  std::vector<StreamEntry> stream;
};

TEST(E2eTest, TextToPromptCarriesRetrievedPassages) {
  E2eFixture fx;
  // Step 3-7 of Figure 1 for one query, all through text.
  const auto& entry = fx.stream.front();
  const auto embedding = fx.embedder.Embed(entry.text);
  const auto neighbors = fx.index->Search(embedding, 3);
  std::vector<VectorId> ids;
  for (const auto& n : neighbors) ids.push_back(n.id);
  const std::string prompt = BuildPrompt(entry.text, ids, fx.workload.passages);
  // The prompt must quote the retrieved passages verbatim and end with
  // the user question.
  for (VectorId id : ids) {
    EXPECT_NE(prompt.find(fx.workload.passages[static_cast<std::size_t>(id)]),
              std::string::npos);
  }
  EXPECT_NE(prompt.find(entry.text), std::string::npos);
}

TEST(E2eTest, RetrievalForAQuestionFindsItsGoldPassages) {
  E2eFixture fx;
  // Every verbatim question retrieves all of its gold passages in the
  // top-k (this is the ground-truth property the accuracy panel rests
  // on).
  for (const auto& question : fx.workload.questions) {
    const auto embedding = fx.embedder.Embed(question.text);
    const auto neighbors = fx.index->Search(embedding, 10);
    std::size_t found = 0;
    for (const auto& n : neighbors) {
      if (std::find(question.gold_ids.begin(), question.gold_ids.end(),
                    n.id) != question.gold_ids.end()) {
        ++found;
      }
    }
    EXPECT_EQ(found, question.gold_ids.size())
        << "question: " << question.text.substr(0, 40);
  }
}

TEST(E2eTest, TraceRoundTripReproducesPipelineMetricsExactly) {
  E2eFixture fx;
  std::stringstream trace;
  WriteTrace(trace, fx.stream);
  const auto replayed = ReadTrace(trace, fx.workload.questions.size());

  auto run = [&](const std::vector<StreamEntry>& entries) {
    ApproxCacheOptions copts;
    copts.capacity = 32;
    copts.tolerance = 2.0f;
    OneTenant stack(*fx.index, copts);
    Retriever retriever(stack.driver);
    RagPipeline pipeline(&fx.workload, &retriever,
                         AnswerModel(MmluAnswerParams()), 5);
    std::vector<std::string> texts;
    for (const auto& e : entries) texts.push_back(e.text);
    const Matrix embeddings = fx.embedder.EmbedBatch(texts);
    return pipeline.RunStream(entries, embeddings);
  };

  const RunMetrics original = run(fx.stream);
  const RunMetrics replay = run(replayed);
  EXPECT_DOUBLE_EQ(replay.accuracy, original.accuracy);
  EXPECT_DOUBLE_EQ(replay.hit_rate, original.hit_rate);
}

TEST(E2eTest, MidSessionSnapshotRestoresServingState) {
  E2eFixture fx;
  ApproxCacheOptions copts;
  copts.capacity = 48;
  copts.tolerance = 2.0f;
  OneTenant live(*fx.index, copts);
  Retriever retriever(live.driver);

  // Serve half the stream, snapshot index + cache, reload, serve the rest.
  const std::size_t half = fx.stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    retriever.Retrieve(fx.embedder.Embed(fx.stream[i].text));
  }
  std::stringstream index_snap, cache_snap;
  fx.index->SaveTo(index_snap);
  live.cache().SaveTo(cache_snap);

  // The snapshot restores into the default tenant of a fresh stack.
  auto restored_index = LoadIndex(index_snap);
  OneTenant restored_stack(*restored_index, {});
  restored_stack.cache().LoadFrom(cache_snap);
  EXPECT_EQ(restored_stack.cache().size(), live.cache().size());
  Retriever restored(restored_stack.driver);

  // Both instances serve the second half identically (documents must
  // match query by query; latencies obviously differ).
  for (std::size_t i = half; i < fx.stream.size(); ++i) {
    const auto embedding = fx.embedder.Embed(fx.stream[i].text);
    const auto a = retriever.Retrieve(embedding);
    const auto b = restored.Retrieve(embedding);
    EXPECT_EQ(a.documents, b.documents) << "query " << i;
    EXPECT_EQ(a.cache_hit, b.cache_hit) << "query " << i;
  }
}

TEST(E2eTest, HnswAndFlatPipelinesAgreeOnHighRecallSettings) {
  E2eFixture fx;
  IndexSpec hspec;
  hspec.kind = "hnsw";
  hspec.hnsw_ef_construction = 100;
  hspec.hnsw_ef_search = 700;  // ef >= corpus: exhaustive
  auto hnsw = BuildIndex(hspec, fx.corpus_embeddings);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto embedding = fx.embedder.Embed(fx.stream[i].text);
    EXPECT_EQ(hnsw->Search(embedding, 5), fx.index->Search(embedding, 5))
        << "query " << i;
  }
}

}  // namespace
}  // namespace proximity
