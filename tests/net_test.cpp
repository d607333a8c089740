// Net serving front-end (DESIGN.md §9): protocol framing, the loopback
// integration path, and the unglamorous cases the server must get right
// — overload shedding, in-queue deadlines, disconnecting clients, and
// the signal-driven drain.
//
// The acceptance equation pinned here: after a drain,
//   hits + retrieved + coalesced + shed + expired == submitted
// on the driver, and requests == responses on the server — every frame
// that reaches the server is answered exactly once, every submitted
// query is accounted for, nothing leaks.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "one_tenant.h"

namespace proximity {
namespace {

// ------------------------------------------------------------ protocol --

TEST(NetProtocolTest, RequestRoundTrip) {
  net::Request in;
  in.id = 0x1122334455667788ull;
  in.flags = 7;
  in.deadline_us = 2500;
  in.text = "what is approximate caching?";
  std::vector<std::uint8_t> wire;
  net::AppendFrame(wire, in);

  net::Request out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::ParseFrame(wire, &consumed, &out), net::ParseResult::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.deadline_us, in.deadline_us);
  EXPECT_EQ(out.text, in.text);
}

TEST(NetProtocolTest, ResponseRoundTrip) {
  net::Response in;
  in.id = 42;
  in.status = RequestStatus::kOk;
  in.flags = net::kFlagCacheHit;
  in.queue_ns = 1234;
  in.server_ns = 56789;
  in.documents = {3, 1, 4, 1, 5};
  std::vector<std::uint8_t> wire;
  net::AppendFrame(wire, in);

  net::Response out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::ParseFrame(wire, &consumed, &out), net::ParseResult::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.status, in.status);
  EXPECT_TRUE(out.cache_hit());
  EXPECT_FALSE(out.coalesced());
  EXPECT_EQ(out.queue_ns, in.queue_ns);
  EXPECT_EQ(out.server_ns, in.server_ns);
  EXPECT_EQ(out.documents, in.documents);
}

// Partial reads: every strict prefix parses as kNeedMore, never kError,
// and the full buffer parses exactly once.
TEST(NetProtocolTest, PartialFramesNeedMore) {
  net::Request in;
  in.id = 9;
  in.text = "prefix safety";
  std::vector<std::uint8_t> wire;
  net::AppendFrame(wire, in);

  for (std::size_t n = 0; n < wire.size(); ++n) {
    net::Request out;
    std::size_t consumed = 0;
    EXPECT_EQ(net::ParseFrame(
                  std::span<const std::uint8_t>(wire.data(), n), &consumed,
                  &out),
              net::ParseResult::kNeedMore)
        << "prefix length " << n;
  }
}

// Pipelining: two frames in one buffer separate cleanly.
TEST(NetProtocolTest, PipelinedFramesSeparate) {
  net::Request a, b;
  a.id = 1;
  a.text = "first";
  b.id = 2;
  b.text = "second, longer than the first";
  std::vector<std::uint8_t> wire;
  net::AppendFrame(wire, a);
  net::AppendFrame(wire, b);

  net::Request out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::ParseFrame(wire, &consumed, &out), net::ParseResult::kOk);
  EXPECT_EQ(out.id, 1u);
  const auto rest =
      std::span<const std::uint8_t>(wire).subspan(consumed);
  ASSERT_EQ(net::ParseFrame(rest, &consumed, &out), net::ParseResult::kOk);
  EXPECT_EQ(out.id, 2u);
  EXPECT_EQ(out.text, b.text);
}

TEST(NetProtocolTest, MalformedFramesAreErrors) {
  net::Request in;
  in.id = 5;
  in.text = "ok";
  std::vector<std::uint8_t> wire;
  net::AppendFrame(wire, in);

  // Corrupt magic.
  auto bad_magic = wire;
  bad_magic[4] ^= 0xFF;
  net::Request out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::ParseFrame(bad_magic, &consumed, &out),
            net::ParseResult::kError);

  // Oversized length prefix.
  std::vector<std::uint8_t> oversize(8, 0);
  const std::uint32_t huge = net::kMaxFrameBytes + 1;
  std::memcpy(oversize.data(), &huge, sizeof(huge));
  EXPECT_EQ(net::ParseFrame(oversize, &consumed, &out),
            net::ParseResult::kError);

  // Truncated payload: length prefix says 4 bytes of garbage.
  std::vector<std::uint8_t> garbage{4, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(net::ParseFrame(garbage, &consumed, &out),
            net::ParseResult::kError);
}

// -------------------------------------------------------------- server --

// The full serving stack over a tiny corpus; per-test options.
struct TestStack {
  HashEmbedder embedder;
  FlatIndex index;
  std::unique_ptr<OneTenant> tenant;
  BatchingDriver* driver = nullptr;
  std::unique_ptr<net::Server> server;

  explicit TestStack(BatchingDriverOptions dopts = {},
                     net::ServerOptions nopts = {})
      : embedder(SmallEmbedder()), index(embedder.dim()) {
    const std::vector<std::string> docs{
        "approximate caching for retrieval augmented generation",
        "vector databases shard across cores",
        "epoll event loops serve many sockets",
        "microbatching amortizes embedding and search",
        "deadlines and backpressure keep tails bounded",
        "graceful drains finish in-flight work",
    };
    const Matrix corpus = embedder.EmbedBatch(docs);
    for (std::size_t r = 0; r < corpus.rows(); ++r) {
      index.Add(corpus.Row(r));
    }
    ApproxCacheOptions copts;
    copts.capacity = 16;
    copts.tolerance = 1.0f;
    dopts.top_k = 3;
    tenant = std::make_unique<OneTenant>(index, copts, &embedder, dopts);
    driver = &tenant->driver;
    server = std::make_unique<net::Server>(*driver, nopts);
    server->Start();
  }

  static HashEmbedderOptions SmallEmbedder() {
    HashEmbedderOptions eopts;
    eopts.dim = 32;
    return eopts;
  }

  ~TestStack() {
    server->Stop();
    driver->Shutdown();
  }
};

// Acceptance: N connections × M requests each; every id answered exactly
// once; after a SIGTERM-triggered drain the driver accounts for every
// submission.
TEST(NetServerTest, LoopbackIntegrationAnswersEveryRequestOnce) {
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kPerConn = 50;
  TestStack stack;

  std::vector<std::map<std::uint64_t, int>> seen(kConns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
      for (std::size_t i = 0; i < kPerConn; ++i) {
        net::Request req;
        req.id = c * kPerConn + i + 1;
        req.text = "query number " + std::to_string(i % 7);
        net::Response resp;
        ASSERT_TRUE(client.Call(req, &resp));
        EXPECT_EQ(resp.id, req.id);
        EXPECT_EQ(resp.status, RequestStatus::kOk);
        EXPECT_EQ(resp.documents.size(), 3u);
        ++seen[c][resp.id];
      }
    });
  }
  for (auto& t : threads) t.join();

  std::size_t answered = 0;
  for (const auto& m : seen) {
    for (const auto& [id, count] : m) {
      EXPECT_EQ(count, 1) << "id " << id << " answered more than once";
      ++answered;
    }
  }
  EXPECT_EQ(answered, kConns * kPerConn);

  // Signal-driven drain: the handler only calls RequestDrain.
  net::InstallSignalDrain(stack.server.get());
  std::raise(SIGTERM);
  stack.server->Join();
  net::InstallSignalDrain(nullptr);
  stack.driver->Shutdown();

  const net::ServerStats ns = stack.server->stats();
  EXPECT_EQ(ns.requests, kConns * kPerConn);
  EXPECT_EQ(ns.responses, ns.requests);
  EXPECT_EQ(ns.protocol_errors, 0u);

  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.submitted, kConns * kPerConn);
  EXPECT_EQ(ds.hits + ds.retrieved + ds.coalesced + ds.shed + ds.expired,
            ds.submitted);
}

// An answer hit is a cache hit on the wire: flagged kFlagCacheHit and,
// like every cache hit, without distances even when the request asks
// for them, so a router never exact-merges it as a fresh retrieval.
TEST(NetServerTest, AnswerHitIsFlaggedCacheHitWithoutDistances) {
  BatchingDriverOptions dopts;
  dopts.answer_reuse = true;
  TestStack stack(dopts);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  net::Request req;
  req.flags = net::kReqFlagWantDistances;
  req.text = "approximate caching for retrieval augmented generation";
  net::Response fresh;
  req.id = 1;
  ASSERT_TRUE(client.Call(req, &fresh));
  ASSERT_EQ(fresh.status, RequestStatus::kOk);
  EXPECT_FALSE(fresh.cache_hit());
  EXPECT_TRUE(fresh.has_distances());

  net::Response reused;
  req.id = 2;  // the same text: distance 0, within τ_answer
  ASSERT_TRUE(client.Call(req, &reused));
  ASSERT_EQ(reused.status, RequestStatus::kOk);
  EXPECT_TRUE(reused.cache_hit());
  EXPECT_FALSE(reused.coalesced());
  EXPECT_FALSE(reused.has_distances());
  EXPECT_TRUE(reused.distances.empty());
  EXPECT_EQ(reused.documents, fresh.documents);
  EXPECT_EQ(reused.queue_ns, 0u);  // served by the probe step, unqueued

  stack.server->Stop();
  stack.driver->Shutdown();
  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.answer_hits, 1u);
  EXPECT_EQ(ds.hits, 0u);
  EXPECT_EQ(ds.retrieved, 1u);
}

// A cache hit never queues: with the flusher parked, a cached text sent
// after a miss on the same connection is answered first, from the event
// loop (queue_ns 0, kFlagCacheHit); the miss waits in the queue until the
// flusher runs.
TEST(NetServerTest, CacheHitCompletesWhileTheFlusherIsParked) {
  TestStack stack;
  const std::string cached =
      "approximate caching for retrieval augmented generation";
  const std::vector<VectorId> cached_docs = {0, 1, 2};
  stack.tenant->cache().Insert(stack.embedder.Embed(cached), cached_docs);
  ParkedFlusher park(*stack.driver, stack.index.dim());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  net::Request miss;
  miss.id = 1;
  miss.text = "epoll event loops serve many sockets";
  ASSERT_TRUE(client.Send(miss));
  net::Request hit;
  hit.id = 2;
  hit.text = cached;
  ASSERT_TRUE(client.Send(hit));

  net::Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 2u);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_TRUE(resp.cache_hit());
  EXPECT_EQ(resp.queue_ns, 0u);
  EXPECT_EQ(resp.documents, cached_docs);
  EXPECT_EQ(stack.driver->pending(), 1u);

  park.Release();
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_FALSE(resp.cache_hit());
  EXPECT_EQ(resp.documents.size(), 3u);
}

// The event loop's inline probes race the flusher's inserts and a
// concurrent Serve caller on one tenant cache (TSan-labelled): every
// request is answered, the driver conserves, and each request counts
// exactly one cache lookup.
TEST(NetServerTest, InlineHitsRaceFlushInsertsAndServe) {
  BatchingDriverOptions dopts;
  dopts.answer_reuse = true;
  TestStack stack(dopts);
  constexpr std::size_t kConns = 3;
  constexpr std::size_t kPerConn = 60;
  constexpr std::size_t kServes = 60;
  const auto text = [](std::size_t i) {
    return "racing query number " + std::to_string(i % 9);
  };

  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
      for (std::size_t i = 0; i < kPerConn; ++i) {
        net::Request req;
        req.id = i + 1;
        req.text = text(i * (c + 1));
        net::Response resp;
        ASSERT_TRUE(client.Call(req, &resp));
        if (resp.status == RequestStatus::kOk) ++ok;
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kServes; ++i) {
      const BatchResult r = stack.driver->Serve(stack.embedder.Embed(text(i)));
      if (r.status == RequestStatus::kOk) ++ok;
    }
  });
  for (auto& t : threads) t.join();
  stack.server->Stop();
  stack.driver->Shutdown();

  constexpr std::size_t kTotal = kConns * kPerConn + kServes;
  EXPECT_EQ(ok.load(), kTotal);
  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.submitted, kTotal);
  EXPECT_EQ(ds.hits + ds.answer_hits + ds.retrieved + ds.coalesced,
            ds.submitted);
  EXPECT_GT(ds.hits + ds.answer_hits, 0u);
  EXPECT_EQ(stack.tenant->cache().stats().lookups, kTotal);
}

// Overload: the driver's admission queue is bounded at 4 and the flusher
// is parked, so of 40 pipelined requests exactly 4 can queue — the rest
// must be shed with RESOURCE_EXHAUSTED while every request still gets
// an answer.
TEST(NetServerTest, OverloadShedsWithResourceExhausted) {
  BatchingDriverOptions dopts;
  dopts.queue_bound = 4;
  TestStack stack(dopts);
  ParkedFlusher park(*stack.driver, stack.index.dim());

  constexpr std::size_t kRequests = 40;
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  for (std::size_t i = 0; i < kRequests; ++i) {
    net::Request req;
    req.id = i + 1;
    req.text = "overload " + std::to_string(i);
    ASSERT_TRUE(client.Send(req));
  }

  // Release the queued 4 only after every request has been admitted or
  // shed, so the outcome split is deterministic.
  std::thread flusher([&] {
    while (stack.server->stats().requests < kRequests) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    park.Release();
  });

  std::size_t ok = 0, shed = 0;
  std::map<std::uint64_t, int> seen;
  for (std::size_t i = 0; i < kRequests; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.Recv(&resp));
    ++seen[resp.id];
    if (resp.status == RequestStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(resp.status, RequestStatus::kResourceExhausted);
      ++shed;
    }
  }
  flusher.join();

  EXPECT_EQ(ok, dopts.queue_bound);
  EXPECT_EQ(shed, kRequests - dopts.queue_bound);
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "id " << id;
  }
  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.shed, shed);
  EXPECT_EQ(ds.hits + ds.retrieved + ds.coalesced + ds.shed + ds.expired,
            ds.submitted);
}

// Polls `pred` every 5 ms for up to 5 s; true once it holds.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// A request whose deadline passes while queued completes with
// DEADLINE_EXCEEDED without ever being embedded or searched.
TEST(NetServerTest, DeadlineExpiresInQueueWithoutRunning) {
  TestStack stack;
  ParkedFlusher park(*stack.driver, stack.index.dim());
  // The decoy (an expired entry itself) is already counted here.
  const BatchingDriverStats before = stack.driver->stats();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  net::Request req;
  req.id = 77;
  req.deadline_us = 1000;  // 1ms — long gone when the parked flush runs
  req.text = "too late";
  ASSERT_TRUE(client.Send(req));
  ASSERT_TRUE(EventuallyTrue([&] { return stack.driver->pending() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  park.Release();
  net::Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 77u);
  EXPECT_EQ(resp.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(resp.documents.empty());

  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.expired - before.expired, 1u);
  EXPECT_EQ(ds.retrieved - before.retrieved, 0u);  // index never touched
  EXPECT_EQ(ds.hits - before.hits, 0u);
}

// A client that disconnects mid-flight: its completion finds no
// connection and is discarded (counted), never written to a dead fd.
TEST(NetServerTest, DisconnectedClientCompletionIsAbandoned) {
  TestStack stack;
  ParkedFlusher park(*stack.driver, stack.index.dim());

  {
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
    net::Request req;
    req.id = 1;
    req.text = "abandon me";
    ASSERT_TRUE(client.Send(req));
    ASSERT_TRUE(
        EventuallyTrue([&] { return stack.driver->pending() == 1; }));
  }  // destructor closes the socket with the request still in flight

  // Release the flush once the server has seen the disconnect: the
  // request completes, and its connection is gone.
  ASSERT_TRUE(
      EventuallyTrue([&] { return stack.server->stats().closed == 1; }));
  park.Release();
  ASSERT_TRUE(
      EventuallyTrue([&] { return stack.server->stats().abandoned > 0; }));
  const net::ServerStats ns = stack.server->stats();
  EXPECT_EQ(ns.abandoned, 1u);
  EXPECT_EQ(ns.requests, 1u);
  EXPECT_EQ(ns.responses, 0u);

  const BatchingDriverStats ds = stack.driver->stats();
  EXPECT_EQ(ds.completed, 2u);  // + the decoy: the work was not dropped
}

// Garbage on the wire is a protocol error: the connection closes and the
// server stays healthy for other clients.
TEST(NetServerTest, MalformedFrameClosesConnectionOnly) {
  TestStack stack;

  {
    // A raw loopback socket sends a frame with a corrupted magic.
    net::Request poison;
    poison.id = 1;
    poison.text = "x";
    std::vector<std::uint8_t> wire;
    net::AppendFrame(wire, poison);
    wire[4] ^= 0xFF;  // corrupt the magic inside the payload

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(stack.server->port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    // The server closes on us without answering: read() sees EOF.
    std::uint8_t buf[16];
    EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);
    ::close(fd);
  }

  // A healthy client still gets served.
  net::Client good;
  ASSERT_TRUE(good.Connect("127.0.0.1", stack.server->port()));
  net::Request req;
  req.id = 2;
  req.text = "still alive?";
  net::Response resp;
  ASSERT_TRUE(good.Call(req, &resp));
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_GE(stack.server->stats().protocol_errors, 1u);
}

// Draining server answers new requests UNAVAILABLE (when they arrive on
// an existing connection) and refuses new connections.
TEST(NetServerTest, DrainAnswersUnavailable) {
  net::ServerOptions nopts;
  nopts.drain_timeout_ms = 2000;
  TestStack stack({}, nopts);
  // Park in-flight work during the drain.
  ParkedFlusher park(*stack.driver, stack.index.dim());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  net::Request held;
  held.id = 1;
  held.text = "held in queue";
  ASSERT_TRUE(client.Send(held));

  // Drain once the event loop has admitted the request.
  ASSERT_TRUE(EventuallyTrue([&] { return stack.driver->pending() == 1; }));
  stack.server->RequestDrain();

  net::Request late;
  late.id = 2;
  late.text = "too late to start";
  ASSERT_TRUE(client.Send(late));

  // Both answers arrive: UNAVAILABLE for the late one while the held
  // request is parked, then the held request completes once released
  // and the drain ends.
  std::map<std::uint64_t, RequestStatus> got;
  for (int i = 0; i < 2; ++i) {
    net::Response resp;
    ASSERT_TRUE(client.Recv(&resp));
    got[resp.id] = resp.status;
    park.Release();  // after the first answer; idempotent after that
  }
  EXPECT_EQ(got[1], RequestStatus::kOk);
  EXPECT_EQ(got[2], RequestStatus::kUnavailable);

  stack.server->Join();
  EXPECT_EQ(stack.server->stats().unavailable, 1u);
}

}  // namespace
}  // namespace proximity
