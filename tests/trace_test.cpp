// End-to-end request tracing (src/obs/trace.{h,cpp}, DESIGN.md §12):
// op taxonomy, context propagation through Span and the BatchingDriver,
// seqlock trace rings under concurrent read/write (the TSan workout),
// tail-based sampling keep/drop rules, and the trace_event exporter.
//
// The no-op sections compile and run under PROXIMITY_OBS_ENABLED=0:
// ids stay 0, contexts never activate, collectors keep nothing.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "obs/span.h"
#include "rag/batching_driver.h"
#include "one_tenant.h"

namespace proximity::obs {
namespace {

TEST(TraceOpTest, NamesCoverTheWholeTaxonomy) {
  // Stage ops delegate to StageName; pseudo-stages have their own names.
  EXPECT_STREQ(TraceOpName(TraceOp::kEmbed), "embed");
  EXPECT_STREQ(TraceOpName(TraceOp::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(TraceOpName(TraceOp::kInsert), "insert");
  EXPECT_STREQ(TraceOpName(TraceOp::kRequest), "request");
  EXPECT_STREQ(TraceOpName(TraceOp::kQueue), "queue");
  EXPECT_STREQ(TraceOpName(TraceOp::kClientCall), "client_call");
  for (std::size_t i = 0; i < kNumTraceOps; ++i) {
    EXPECT_NE(TraceOpName(static_cast<TraceOp>(i)), nullptr);
    EXPECT_GT(std::string(TraceOpName(static_cast<TraceOp>(i))).size(),
              0u);
  }
  // The stage prefix of the taxonomy stays value-identical to Stage.
  EXPECT_EQ(TraceOpFromStage(Stage::kEmbed), TraceOp::kEmbed);
  EXPECT_EQ(TraceOpFromStage(Stage::kInsert), TraceOp::kInsert);
}

TEST(TraceContextTest, InactiveByDefaultAndScopedRestores) {
  EXPECT_FALSE(TraceContext{}.active());
  const TraceContext before = CurrentTraceContext();
  {
    const ScopedTraceContext scope(TraceContext{42, 7});
#if PROXIMITY_OBS_ENABLED
    EXPECT_EQ(CurrentTraceContext().trace_id, 42u);
    EXPECT_EQ(CurrentTraceContext().span_id, 7u);
#endif
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, before.trace_id);
  EXPECT_EQ(CurrentTraceContext().span_id, before.span_id);
}

#if PROXIMITY_OBS_ENABLED

TEST(TraceIdTest, TraceIdsAreNonZeroAndDistinct) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = NewTraceId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(TraceIdTest, SpanIdsAreDistinctAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        per_thread[t].push_back(NewSpanId());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TraceEmitTest, SpanJoinsActiveTraceWithParentChain) {
  const std::uint64_t trace_id = NewTraceId();
  const std::uint64_t root = NewSpanId();
  {
    const ScopedTraceContext scope(TraceContext{trace_id, root});
    const Span outer(Stage::kCacheLookup);
    {
      const Span inner(Stage::kCacheScan);
      (void)inner;
    }
    (void)outer;
  }
  const auto spans = CollectTraceSpans(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start: outer opened first.
  EXPECT_EQ(spans[0].op, TraceOp::kCacheLookup);
  EXPECT_EQ(spans[1].op, TraceOp::kCacheScan);
  EXPECT_EQ(spans[0].parent_id, root);
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].start_ns + spans[0].duration_ns,
            spans[1].start_ns + spans[1].duration_ns);
}

TEST(TraceEmitTest, SpanWithoutContextEmitsNothing) {
  // No active trace: the Span only feeds the stage histogram/ring.
  const std::uint64_t probe = NewTraceId();
  {
    const Span s(Stage::kEvict);
    (void)s;
  }
  EXPECT_TRUE(CollectTraceSpans(probe).empty());
}

TEST(TraceEmitTest, EmitChildSpanInactiveParentIsNoOp) {
  EXPECT_EQ(EmitChildSpan(TraceContext{}, TraceOp::kQueue, 10, 5), 0u);
}

TEST(TraceEmitTest, EmitChildSpanAttributesSharedTiming) {
  const TraceContext parent{NewTraceId(), NewSpanId()};
  const std::uint64_t child =
      EmitChildSpan(parent, TraceOp::kEmbed, 100, 50);
  ASSERT_NE(child, 0u);
  const auto spans = CollectTraceSpans(parent.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, child);
  EXPECT_EQ(spans[0].parent_id, parent.span_id);
  EXPECT_EQ(spans[0].op, TraceOp::kEmbed);
  EXPECT_EQ(spans[0].start_ns, 100);
  EXPECT_EQ(spans[0].duration_ns, 50);
}

// The TSan workout: writers hammer their per-thread rings (overwriting
// them many times over) while readers continuously collect. A torn read
// would surface as a record whose fields disagree with the encoding
// writers use; unbounded memory would surface as more spans for one
// trace than a ring can hold.
TEST(TraceRingTest, ConcurrentCollectSeesNoTornSpans) {
  // A fixed trace id all writers emit under (readers filter on it); no
  // NewTraceId() can ever collide with it because those end in bit 0.
  constexpr std::uint64_t kRingTraceId = 0x7717CEF100000000ull;
  constexpr int kWriters = 3;
  constexpr int kSpansEach =
      static_cast<int>(kTraceRingCapacity) * 3;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  // Writers tag every field with the same per-record nonce, so readers
  // can verify a record is internally consistent.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSpansEach; ++i) {
        const std::uint64_t nonce =
            (static_cast<std::uint64_t>(w + 1) << 32) |
            static_cast<std::uint64_t>(i + 1);
        TraceSpanRecord r;
        r.trace_id = kRingTraceId;
        r.span_id = nonce;
        r.parent_id = nonce;
        r.start_ns = static_cast<Nanos>(nonce);
        r.duration_ns = static_cast<Nanos>(nonce);
        EmitTraceSpan(r);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& s : CollectTraceSpans(kRingTraceId)) {
        if (s.span_id != s.parent_id ||
            static_cast<Nanos>(s.span_id) != s.start_ns ||
            s.start_ns != s.duration_ns) {
          torn.fetch_add(1);
        }
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  // Bounded memory: each writer overwrote its ring repeatedly; at most
  // one ring's worth of records per writer thread can survive.
  EXPECT_LE(CollectTraceSpans(kRingTraceId).size(),
            static_cast<std::size_t>(kWriters) * kTraceRingCapacity);
}

TEST(TraceCollectorTest, NonOkAlwaysKeptOkOnlyWhenSlow) {
  TraceCollectorOptions opts;
  opts.keep = 16;
  opts.bootstrap_keep = 2;
  opts.recompute_every = 4;
  TraceCollector collector(opts);

  // Bootstrap: the first OK completions are kept unconditionally.
  EXPECT_TRUE(collector.Complete({NewTraceId(), 0}, RequestStatus::kOk,
                                 1000));
  EXPECT_TRUE(collector.Complete({NewTraceId(), 0}, RequestStatus::kOk,
                                 1000));

  // Feed enough fast completions to arm the threshold.
  for (int i = 0; i < 32; ++i) {
    collector.Complete({NewTraceId(), 0}, RequestStatus::kOk, 1000);
  }
  ASSERT_LT(collector.slow_threshold_ns(),
            std::numeric_limits<Nanos>::max());

  // A fast OK completion is dropped; a very slow one is kept.
  EXPECT_FALSE(
      collector.Complete({NewTraceId(), 0}, RequestStatus::kOk, 1));
  EXPECT_TRUE(collector.Complete({NewTraceId(), 0}, RequestStatus::kOk,
                                 1000000000));

  // Shed / expired / error outcomes are always kept, however fast.
  EXPECT_TRUE(collector.Complete(
      {NewTraceId(), 0}, RequestStatus::kResourceExhausted, 1));
  EXPECT_TRUE(collector.Complete(
      {NewTraceId(), 0}, RequestStatus::kDeadlineExceeded, 1));
  EXPECT_TRUE(collector.Complete({NewTraceId(), 0},
                                 RequestStatus::kUnavailable, 1));
  EXPECT_TRUE(
      collector.Complete({NewTraceId(), 0}, RequestStatus::kInternal, 1));

  // Inactive contexts are never sampled.
  EXPECT_FALSE(
      collector.Complete(TraceContext{}, RequestStatus::kInternal, 1));
}

TEST(TraceCollectorTest, KeepIsBoundedNewestFirstAndFindRefreshes) {
  TraceCollectorOptions opts;
  opts.keep = 3;
  opts.bootstrap_keep = 0;
  TraceCollector collector(opts);
  std::vector<std::uint64_t> kept_ids;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = NewTraceId();
    kept_ids.push_back(id);
    EXPECT_TRUE(
        collector.Complete({id, 0}, RequestStatus::kInternal, 100 + i));
  }
  const auto sampled = collector.Sampled();
  ASSERT_EQ(sampled.size(), 3u);  // bounded by keep
  EXPECT_EQ(sampled[0].trace_id, kept_ids[4]);  // newest first
  EXPECT_EQ(sampled[2].trace_id, kept_ids[2]);
  EXPECT_FALSE(collector.Find(kept_ids[0]).has_value());  // fell off

  // Find() re-merges spans emitted after the completion (the client-side
  // call span lands only once the response has been parsed).
  const std::uint64_t late = kept_ids[4];
  EmitTraceSpan({late, NewSpanId(), 0, TraceOp::kClientCall, 0, 5, 9});
  const auto found = collector.Find(late);
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->spans.size(), 1u);
  EXPECT_EQ(found->spans[0].op, TraceOp::kClientCall);

  collector.Reset();
  EXPECT_TRUE(collector.Sampled().empty());
}

TEST(TraceDriverTest, SubmitTextAsyncPropagatesContextThroughStages) {
  HashEmbedder embedder;
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    corpus.push_back("passage about topic " + std::to_string(i));
  }
  const auto index =
      BuildShardedIndex(IndexSpec{.kind = "flat"},
                        embedder.EmbedBatch(corpus), {});
  OneTenant stack(*index, {.capacity = 16, .tolerance = 0.5f}, &embedder);
  BatchingDriver& driver = stack.driver;

  const TraceContext trace{NewTraceId(), NewSpanId()};
  SubmitOptions opts;
  opts.trace = trace;
  std::atomic<bool> done{false};
  driver.SubmitTextAsync("what is topic 7", opts, [&](BatchResult r) {
    EXPECT_EQ(r.status, RequestStatus::kOk);
    done.store(true, std::memory_order_release);
  });
  driver.Flush();
  driver.Shutdown();
  ASSERT_TRUE(done.load());

  // The driver attributed queue wait, embed, cache probe and search to
  // the submitted trace, all parented under it.
  const auto spans = CollectTraceSpans(trace.trace_id);
  std::set<TraceOp> ops;
  for (const auto& s : spans) {
    ops.insert(s.op);
    EXPECT_EQ(s.trace_id, trace.trace_id);
  }
  EXPECT_TRUE(ops.count(TraceOp::kQueue));
  EXPECT_TRUE(ops.count(TraceOp::kEmbed));
  EXPECT_TRUE(ops.count(TraceOp::kCacheLookup));
  EXPECT_TRUE(ops.count(TraceOp::kIndexSearch));
}

// The same text again is a cache hit served inline by the probe step: its
// trace carries embed and cache-lookup spans directly under the request
// span, and neither a queue wait nor a search.
TEST(TraceDriverTest, InlineHitTracesEmbedAndLookupUnderTheRequest) {
  HashEmbedder embedder;
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    corpus.push_back("passage about topic " + std::to_string(i));
  }
  const auto index =
      BuildShardedIndex(IndexSpec{.kind = "flat"},
                        embedder.EmbedBatch(corpus), {});
  OneTenant stack(*index, {.capacity = 16, .tolerance = 0.5f}, &embedder);
  BatchingDriver& driver = stack.driver;
  (void)driver.SubmitText("what is topic 7").get();

  const TraceContext trace{NewTraceId(), NewSpanId()};
  SubmitOptions opts;
  opts.trace = trace;
  bool hit = false;
  driver.SubmitTextAsync("what is topic 7", opts, [&](BatchResult r) {
    hit = r.status == RequestStatus::kOk && r.cache_hit;
  });
  EXPECT_TRUE(hit);  // completed inline, before SubmitTextAsync returned
  driver.Shutdown();

  std::set<TraceOp> ops;
  for (const auto& s : CollectTraceSpans(trace.trace_id)) {
    ops.insert(s.op);
    if (s.op == TraceOp::kEmbed || s.op == TraceOp::kCacheLookup) {
      EXPECT_EQ(s.parent_id, trace.span_id) << TraceOpName(s.op);
    }
  }
  EXPECT_TRUE(ops.count(TraceOp::kEmbed));
  EXPECT_TRUE(ops.count(TraceOp::kCacheLookup));
  EXPECT_FALSE(ops.count(TraceOp::kQueue));
  EXPECT_FALSE(ops.count(TraceOp::kIndexSearch));
}

TEST(TraceExportTest, TraceEventJsonShape) {
  SampledTrace trace;
  trace.trace_id = 0xABCDu;
  trace.status = RequestStatus::kOk;
  trace.duration_ns = 1500000;
  trace.spans.push_back(
      {0xABCDu, 1, 0, TraceOp::kRequest, 1, 0, 1500000});
  trace.spans.push_back(
      {0xABCDu, 2, 1, TraceOp::kIndexSearch, 2, 250000, 1000000});
  const std::string json = ToTraceEventJson(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"index_search\""), std::string::npos);
  // Timestamps/durations are microseconds: 1.5ms request = 1500us.
  EXPECT_NE(json.find("1500.000"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  const std::string list = ToTraceListJson({trace});
  EXPECT_NE(list.find("\"traces\""), std::string::npos);
  EXPECT_NE(list.find("\"OK\""), std::string::npos);
  EXPECT_NE(list.find("\"spans\":2"), std::string::npos);
  EXPECT_EQ(ToTraceListJson({}), "{\"traces\":[]}");
}

#else  // PROXIMITY_OBS_ENABLED == 0

TEST(TraceOffTest, EverythingIsAnInertNoOp) {
  EXPECT_EQ(NewTraceId(), 0u);
  EXPECT_EQ(NewSpanId(), 0u);
  EXPECT_FALSE(CurrentTraceContext().active());
  EXPECT_EQ(EmitChildSpan({1, 2}, TraceOp::kEmbed, 0, 1), 0u);
  EXPECT_TRUE(CollectTraceSpans(1).empty());
  TraceCollector collector;
  EXPECT_FALSE(collector.Complete({1, 2}, RequestStatus::kInternal, 1));
  EXPECT_TRUE(collector.Sampled().empty());
}

#endif  // PROXIMITY_OBS_ENABLED

}  // namespace
}  // namespace proximity::obs
