// Cluster router plane (DESIGN.md §14): shard-map parsing and ring
// stability, the bit-identical pin (a routed k-NN over N partitioned
// backends equals the single-process ShardedIndex answer, distance bits
// included), replica failover when a backend dies mid-run, hedged
// requests winning on a stalled primary, client timeout primitives, and
// the byte-identical relay contract — a fully composed v4
// tenant+trace+mutation frame reaches the backend exactly as the client
// sent it (pinned against tests/golden/request_v4_all_extensions.bin),
// while query legs differ from the client frame in only the flags word.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/approx_cache.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "one_tenant.h"

namespace proximity {
namespace {

// ----------------------------------------------------------- shard map --

TEST(ShardMapTest, ParsesGroupsReplicasAndComments) {
  const cluster::ShardMap map = cluster::ShardMap::Parse(
      "# routing for the two-group cluster\n"
      "\n"
      "shard 0 rpc=127.0.0.1:7101 admin=127.0.0.1:7201\n"
      "shard 0 rpc=127.0.0.1:7102\n"
      "shard 1 rpc=10.0.0.5:7103 admin=10.0.0.5:7203\n");
  ASSERT_EQ(map.num_groups(), 2u);
  ASSERT_EQ(map.group(0).replicas.size(), 2u);
  ASSERT_EQ(map.group(1).replicas.size(), 1u);
  EXPECT_EQ(map.group(0).replicas[0].host, "127.0.0.1");
  EXPECT_EQ(map.group(0).replicas[0].port, 7101);
  EXPECT_EQ(map.group(0).replicas[0].admin_port, 7201);
  // admin= is optional: the second replica is probed passively.
  EXPECT_EQ(map.group(0).replicas[1].admin_port, 0);
  EXPECT_EQ(map.group(1).replicas[0].host, "10.0.0.5");
  EXPECT_EQ(map.group(1).replicas[0].Address(), "10.0.0.5:7103");
}

TEST(ShardMapTest, RejectsMalformedMaps) {
  // Group ids must be dense 0..G-1: group g serves corpus partition
  // g/G, so a hole is a missing corpus slice, not a formatting nit.
  EXPECT_THROW(cluster::ShardMap::Parse("shard 1 rpc=127.0.0.1:7101\n"),
               std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse(""), std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse("shard 0 admin=127.0.0.1:7201\n"),
               std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse("shard 0 rpc=noport\n"),
               std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse("shard 0 rpc=127.0.0.1:99999\n"),
               std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse("shard 0 bogus=1 rpc=127.0.0.1:1\n"),
               std::invalid_argument);
  EXPECT_THROW(cluster::ShardMap::Parse("replica 0 rpc=127.0.0.1:1\n"),
               std::invalid_argument);
}

TEST(ShardMapTest, RingIsDeterministicAndCoversEveryGroup) {
  const std::string text =
      "shard 0 rpc=127.0.0.1:7101\n"
      "shard 1 rpc=127.0.0.1:7102\n"
      "shard 2 rpc=127.0.0.1:7103\n";
  const cluster::ShardMap a = cluster::ShardMap::Parse(text);
  const cluster::ShardMap b = cluster::ShardMap::Parse(text);
  std::vector<std::size_t> hits(3, 0);
  for (std::uint64_t key = 0; key < 3000; ++key) {
    const std::uint32_t g = a.GroupForKey(key);
    // Same key, same map text -> same group, across instances: the
    // property mutation routing correctness rests on.
    EXPECT_EQ(g, b.GroupForKey(key));
    ASSERT_LT(g, 3u);
    ++hits[g];
  }
  // The ring must spread keys over every group: 64 mixed vnodes/group
  // keeps every share within a few percent of even, so a 20% floor has
  // wide margin yet still catches the degenerate rings (an unmixed
  // point hash once collapsed each group's vnodes into one cluster).
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_GT(hits[g], 3000u / 5) << "group " << g << " starved";
  }
  // Text hashing is deterministic too (INSERT routing key).
  EXPECT_EQ(cluster::ShardMap::HashText("hello"),
            cluster::ShardMap::HashText("hello"));
  EXPECT_NE(cluster::ShardMap::HashText("hello"),
            cluster::ShardMap::HashText("world"));
}

// ------------------------------------------------------- backend stack --

HashEmbedderOptions SmallEmbedder() {
  HashEmbedderOptions eopts;
  eopts.dim = 32;
  return eopts;
}

std::vector<std::string> TestCorpus(std::size_t n) {
  std::vector<std::string> docs;
  docs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    docs.push_back("corpus document number " + std::to_string(i) +
                   " about topic " + std::to_string(i % 7));
  }
  return docs;
}

// One backend shard server over partition `part`/`parts` of the corpus
// — exactly what `proximity_cli serve partition=I/N` boots, minus the
// CLI. `tolerance` 0 keeps unique queries on the fresh-retrieval path
// (distances attach); a large tolerance exercises cache-hit legs.
struct BackendStack {
  HashEmbedder embedder;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<OneTenant> tenant;
  std::unique_ptr<net::Server> server;

  BackendStack(const Matrix& corpus, std::size_t part, std::size_t parts,
               float tolerance = 0.0f, net::ServerOptions nopts = {})
      : embedder(SmallEmbedder()) {
    IndexSpec spec;
    spec.kind = "flat";
    index = BuildPartitionedIndex(spec, corpus, part, parts);
    ApproxCacheOptions copts;
    copts.capacity = 64;
    copts.tolerance = tolerance;
    BatchingDriverOptions dopts;
    dopts.top_k = 5;
    dopts.max_batch = 8;
    tenant = std::make_unique<OneTenant>(*index, copts, &embedder, dopts);
    server = std::make_unique<net::Server>(tenant->driver, nopts);
    server->Start();
  }

  std::uint16_t port() const { return server->port(); }

  ~BackendStack() {
    server->Stop();
    tenant->driver.Shutdown();
  }
};

std::string MapLine(std::uint32_t group, std::uint16_t port) {
  return "shard " + std::to_string(group) + " rpc=127.0.0.1:" +
         std::to_string(port) + "\n";
}

// -------------------------------------------------- bit-identical pin --

// The tentpole acceptance pin: a k-NN routed over three partitioned
// backends is bit-identical — ids AND distance bits — to the same
// query against a single-process ShardedIndex over the whole corpus,
// because partition striping matches shard striping and the router
// reuses ShardedIndex::MergeSorted for the cross-group merge.
TEST(ClusterRouterTest, RoutedKnnBitIdenticalToSingleProcess) {
  constexpr std::size_t kParts = 3;
  constexpr std::size_t kTopK = 5;
  HashEmbedder embedder(SmallEmbedder());
  const Matrix corpus = embedder.EmbedBatch(TestCorpus(61));

  std::vector<std::unique_ptr<BackendStack>> backends;
  std::string map_text;
  for (std::size_t p = 0; p < kParts; ++p) {
    backends.push_back(std::make_unique<BackendStack>(corpus, p, kParts));
    map_text +=
        MapLine(static_cast<std::uint32_t>(p), backends[p]->port());
  }

  cluster::RouterOptions ropts;
  ropts.workers = 2;
  ropts.hedge = false;  // single replica per group; nothing to hedge to
  cluster::Router router(cluster::ShardMap::Parse(map_text), ropts);
  router.Start();

  IndexSpec spec;
  spec.kind = "flat";
  ShardedIndexOptions sopts;
  sopts.num_shards = kParts;
  const auto reference = BuildShardedIndex(spec, corpus, sopts);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  for (std::size_t q = 0; q < 12; ++q) {
    const std::string text =
        "unique probe query " + std::to_string(q) + " about topic " +
        std::to_string(q % 7);
    net::Request req;
    req.id = q + 1;
    req.flags = net::kReqFlagWantDistances;
    req.text = text;
    net::Response resp;
    ASSERT_TRUE(client.Call(req, &resp));
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    ASSERT_TRUE(resp.has_distances());

    const Matrix embedded = embedder.EmbedBatch({text});
    const auto want = reference->Search(embedded.Row(0), kTopK);
    ASSERT_EQ(resp.documents.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(resp.documents[i], want[i].id) << "rank " << i;
      // Bit-identical, not approximately-equal: the router merged the
      // very floats the backends computed, through the same routine.
      EXPECT_EQ(std::memcmp(&resp.distances[i], &want[i].distance,
                            sizeof(float)),
                0)
          << "distance bits differ at rank " << i;
    }
  }
  EXPECT_EQ(router.stats().queries, 12u);
  EXPECT_EQ(router.stats().merge_fallbacks, 0u)
      << "unique queries must stay on the exact-merge path";
  router.Stop();
}

// When a leg answers from the approximate cache it has no distances, so
// the router must fall back to deterministic rank interleaving — and
// count it — instead of fabricating an exact merge.
TEST(ClusterRouterTest, CacheHitLegsFallBackToRankInterleave) {
  HashEmbedder embedder(SmallEmbedder());
  const Matrix corpus = embedder.EmbedBatch(TestCorpus(40));
  // Generous tolerance: the second identical query hits the cache.
  BackendStack b0(corpus, 0, 2, /*tolerance=*/100.0f);
  BackendStack b1(corpus, 1, 2, /*tolerance=*/100.0f);

  cluster::RouterOptions ropts;
  ropts.workers = 1;
  ropts.hedge = false;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, b0.port()) +
                               MapLine(1, b1.port())),
      ropts);
  router.Start();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  net::Response first;
  net::Response second;
  for (int round = 0; round < 2; ++round) {
    net::Request req;
    req.id = static_cast<std::uint64_t>(round) + 1;
    req.text = "the same query twice";
    net::Response resp;
    ASSERT_TRUE(client.Call(req, &resp));
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    ASSERT_FALSE(resp.documents.empty());
    (round == 0 ? first : second) = resp;
  }
  // Round two answered from both backend caches: hit-flagged and merged
  // by rank, counted as a fallback.
  EXPECT_TRUE(second.cache_hit());
  EXPECT_GE(router.stats().merge_fallbacks, 1u);
  router.Stop();
}

// ------------------------------------------------------------ failover --

TEST(ClusterRouterTest, FailsOverToReplicaWhenBackendDies) {
  HashEmbedder embedder(SmallEmbedder());
  const Matrix corpus = embedder.EmbedBatch(TestCorpus(30));
  // One group, two replicas serving the same (whole) partition.
  auto primary = std::make_unique<BackendStack>(corpus, 0, 1);
  BackendStack replica(corpus, 0, 1);

  cluster::RouterOptions ropts;
  ropts.workers = 1;
  ropts.hedge = false;
  ropts.recv_timeout_ms = 2000;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, primary->port()) +
                               MapLine(0, replica.port())),
      ropts);
  router.Start();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  auto ask = [&](std::uint64_t id) {
    net::Request req;
    req.id = id;
    req.text = "failover probe " + std::to_string(id);
    net::Response resp;
    EXPECT_TRUE(client.Call(req, &resp));
    EXPECT_EQ(resp.status, RequestStatus::kOk);
  };
  ask(1);

  // Kill the primary outright. The router's next leg to it fails, the
  // replica serves, and the client sees zero failed requests.
  primary.reset();
  for (std::uint64_t id = 2; id <= 6; ++id) ask(id);

  const auto status = router.backend_status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].healthy, 1u);
  const cluster::RouterStats stats = router.stats();
  EXPECT_GE(stats.failovers, 1u);
  // The dead leg surfaced either as a recv error (connection was up
  // when the backend died) or as a failed redial — both retry.
  EXPECT_GE(stats.leg_errors + stats.retries, 1u);
  router.Stop();
}

// ------------------------------------------------------------- hedging --

TEST(ClusterRouterTest, HedgedLegWinsOverStalledPrimary) {
  HashEmbedder embedder(SmallEmbedder());
  const Matrix corpus = embedder.EmbedBatch(TestCorpus(30));
  // Replica 0 stalls every SECOND response by 50 ms (debug injection);
  // replica 1 is healthy. The unstalled responses keep the recorded
  // latency quantile small, so each stalled response blows far past the
  // hedge delay and the hedge leg to the fast replica wins decisively
  // — no race against the stall duration itself.
  net::ServerOptions stall;
  stall.debug_stall_every = 2;
  stall.debug_stall_us = 50000;
  BackendStack slow(corpus, 0, 1, 0.0f, stall);
  BackendStack fast(corpus, 0, 1);

  cluster::RouterOptions ropts;
  ropts.workers = 1;
  ropts.hedge = true;
  ropts.hedge_warmup = 4;
  ropts.hedge_min_us = 500;
  // A low quantile keeps the hedge delay near the fast-path latency.
  ropts.hedge_quantile = 0.25;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, slow.port()) +
                               MapLine(0, fast.port())),
      ropts);
  router.Start();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  for (std::uint64_t id = 1; id <= 20; ++id) {
    net::Request req;
    req.id = id;
    req.text = "hedge probe " + std::to_string(id);
    net::Response resp;
    ASSERT_TRUE(client.Call(req, &resp));
    ASSERT_EQ(resp.status, RequestStatus::kOk);
  }
  const cluster::RouterStats stats = router.stats();
  EXPECT_GE(stats.hedges, 1u) << "hedging never armed";
  EXPECT_GE(stats.hedge_wins, 1u)
      << "the fast replica never beat the stalled primary";
  router.Stop();
}

// ----------------------------------------------------------- mutations --

TEST(ClusterRouterTest, MutationsRouteToOneGroupAndRoundTrip) {
  HashEmbedder embedder(SmallEmbedder());
  const Matrix corpus = embedder.EmbedBatch(TestCorpus(30));

  // Mutable backends: index=mutable equivalents, partitioned 2 ways.
  auto make_mutable = [&](std::size_t part) {
    IndexSpec spec;
    spec.kind = "mutable";
    auto index = BuildPartitionedIndex(spec, corpus, part, 2);
    return index;
  };
  struct MutableStack {
    HashEmbedder embedder{SmallEmbedder()};
    std::unique_ptr<ShardedIndex> index;
    std::unique_ptr<OneTenant> tenant;
    std::unique_ptr<net::Server> server;
  };
  std::vector<MutableStack> backends(2);
  std::string map_text;
  for (std::size_t p = 0; p < 2; ++p) {
    MutableStack& b = backends[p];
    b.index = make_mutable(p);
    ApproxCacheOptions copts;
    copts.capacity = 16;
    copts.tolerance = 0.0f;
    BatchingDriverOptions dopts;
    dopts.top_k = 3;
    b.tenant = std::make_unique<OneTenant>(*b.index, copts, &b.embedder,
                                           dopts);
    b.tenant->driver.EnableMutation(*b.index);
    b.server = std::make_unique<net::Server>(b.tenant->driver);
    b.server->Start();
    map_text += MapLine(static_cast<std::uint32_t>(p), b.server->port());
  }

  cluster::RouterOptions ropts;
  ropts.workers = 1;
  cluster::Router router(cluster::ShardMap::Parse(map_text), ropts);
  router.Start();

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  net::Request ins;
  ins.id = 1;
  ins.mutation_op = net::kMutationInsert;
  ins.text = "a brand new live document";
  net::Response resp;
  ASSERT_TRUE(client.Call(ins, &resp));
  ASSERT_EQ(resp.status, RequestStatus::kOk);
  ASSERT_EQ(resp.documents.size(), 1u);

  // Exactly one backend applied it (single-group routing), and the ring
  // says which.
  const std::size_t want_group =
      router.map().GroupForKey(cluster::ShardMap::HashText(ins.text));
  EXPECT_EQ(router.stats().mutations, 1u);
  const auto status = router.backend_status();
  for (std::size_t g = 0; g < status.size(); ++g) {
    EXPECT_EQ(status[g].sent, g == want_group ? 1u : 0u)
        << "mutation leg on group " << g;
  }

  // DELETE the id just assigned, routed by target id this time.
  net::Request del;
  del.id = 2;
  del.mutation_op = net::kMutationDelete;
  del.mutation_target = static_cast<std::uint64_t>(resp.documents[0]);
  net::Response del_resp;
  ASSERT_TRUE(client.Call(del, &del_resp));
  // The DELETE may route to the other group (it hashes the id, not the
  // text) where that id does not exist — kOk or kInvalidArgument are
  // both valid single-group outcomes; what matters is the round-trip
  // and that exactly one more mutation was routed.
  EXPECT_EQ(router.stats().mutations, 2u);
  router.Stop();
  for (auto& b : backends) {
    b.server->Stop();
    b.tenant->driver.Shutdown();
  }
}

// ------------------------------------------------- byte-exact relay --

// A capturing fake backend: accepts router connections, records every
// raw frame byte-for-byte, answers each request with a canned kOk
// response so the router completes.
class CapturingBackend {
 public:
  CapturingBackend() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    thread_ = std::thread([this] { Serve(); });
  }

  ~CapturingBackend() {
    stop_.store(true);
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return port_; }

  std::vector<std::vector<std::uint8_t>> frames() {
    std::lock_guard lock(mu_);
    return frames_;
  }

 private:
  void Serve() {
    while (!stop_.load()) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::vector<std::uint8_t> buf;
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        buf.insert(buf.end(), chunk, chunk + n);
        // Slice out complete frames: [u32 len][payload].
        while (buf.size() >= 4) {
          std::uint32_t flen = 0;
          std::memcpy(&flen, buf.data(), 4);
          if (buf.size() < flen + 4u) break;
          const std::vector<std::uint8_t> frame(buf.begin(),
                                                buf.begin() + flen + 4);
          buf.erase(buf.begin(), buf.begin() + flen + 4);
          net::Request req;
          std::size_t consumed = 0;
          // No gtest asserts off the main thread; a bad frame simply
          // goes unanswered and the test's own expectations fail.
          if (net::ParseFrame(frame, &consumed, &req) !=
              net::ParseResult::kOk) {
            break;
          }
          {
            std::lock_guard lock(mu_);
            frames_.push_back(frame);
          }
          net::Response resp;
          resp.id = req.id;
          resp.status = RequestStatus::kOk;
          resp.documents = {42};
          std::vector<std::uint8_t> out;
          net::AppendFrame(out, resp);
          (void)::send(conn, out.data(), out.size(), MSG_NOSIGNAL);
        }
      }
      ::close(conn);
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> frames_;
};

std::vector<std::uint8_t> ReadGolden(const std::string& name) {
  const std::string path = std::string(PROXIMITY_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Satellite pin: the fully composed tenant+trace+mutation INSERT frame
// (golden request_v4_all_extensions.bin) relays through the router to
// the backend BYTE-IDENTICALLY — the router neither re-encodes nor
// rewrites mutation frames. Query frames differ in exactly one word:
// the flags u32 gains kReqFlagWantDistances.
TEST(ClusterRelayTest, ComposedMutationFrameRelaysByteIdentically) {
  CapturingBackend backend;
  cluster::RouterOptions ropts;
  ropts.workers = 1;
  ropts.hedge = false;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, backend.port())), ropts);
  router.Start();

  const auto golden = ReadGolden("request_v4_all_extensions.bin");
  ASSERT_FALSE(golden.empty());

  // Drive the router with the golden bytes verbatim (a raw socket, not
  // net::Client, so nothing between the pinned bytes and the wire).
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(router.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, golden.data(), golden.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(golden.size()));
  // Read the router's response (any complete frame will do).
  std::vector<std::uint8_t> rbuf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "router closed without answering";
    rbuf.insert(rbuf.end(), chunk, chunk + n);
    net::Response resp;
    std::size_t consumed = 0;
    const auto pr = net::ParseFrame(rbuf, &consumed, &resp);
    ASSERT_NE(pr, net::ParseResult::kError);
    if (pr == net::ParseResult::kOk) {
      EXPECT_EQ(resp.status, RequestStatus::kOk);
      break;
    }
  }
  ::close(fd);

  const auto frames = backend.frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], golden)
      << "the relayed mutation frame must be byte-identical to what the "
         "client sent";
  router.Stop();
}

TEST(ClusterRelayTest, QueryLegDiffersOnlyInTheFlagsWord) {
  CapturingBackend backend;
  cluster::RouterOptions ropts;
  ropts.workers = 1;
  ropts.hedge = false;
  cluster::Router router(
      cluster::ShardMap::Parse(MapLine(0, backend.port())), ropts);
  router.Start();

  net::Request req;
  req.id = 99;
  req.deadline_us = 500000;
  req.tenant = 3;
  req.trace_id = 0xDEADBEEFull;
  req.trace_parent = 0xFEEDull;
  req.text = "query with tenant and trace attached";
  std::vector<std::uint8_t> sent;
  net::AppendFrame(sent, req);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()));
  ASSERT_TRUE(client.Send(req));
  net::Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  ASSERT_EQ(resp.status, RequestStatus::kOk);

  const auto frames = backend.frames();
  ASSERT_EQ(frames.size(), 1u);
  const auto& relayed = frames[0];
  ASSERT_EQ(relayed.size(), sent.size())
      << "want-distances must add no bytes";
  // The expected leg: the same frame with kReqFlagWantDistances ORed
  // into the flags u32 (offset 16: len 4 + magic 4 + id 8).
  std::vector<std::uint8_t> expected = sent;
  expected[16] |= static_cast<std::uint8_t>(net::kReqFlagWantDistances);
  EXPECT_EQ(relayed, expected)
      << "query legs must differ from the client frame in exactly the "
         "flags word";
  router.Stop();
}

// ----------------------------------------------- client timeout/TryRecv --

// A listener that accepts and then stays silent — the shape of a hung
// backend, which is what recv timeouts and hedging exist for.
struct SilentServer {
  int fd = -1;
  std::uint16_t port = 0;
  SilentServer() {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
    ::listen(fd, 4);
  }
  ~SilentServer() { ::close(fd); }
};

TEST(ClientTimeoutTest, TryRecvTimesOutAndKeepsTheConnection) {
  SilentServer silent;
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", silent.port));
  net::Response resp;
  // No response is coming: TryRecv must report timeout quickly and
  // leave the connection open — the hedging primitive (the primary's
  // eventual answer must still be receivable).
  EXPECT_EQ(client.TryRecv(&resp, 50), net::Client::RecvStatus::kTimeout);
  EXPECT_TRUE(client.connected());
}

TEST(ClientTimeoutTest, RecvTimeoutOptionClosesOnExpiry) {
  SilentServer silent;
  net::ClientOptions copts;
  copts.recv_timeout_ms = 50;
  net::Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", silent.port));
  net::Response resp;
  // Blocking Recv under a recv_timeout budget: expiry is a failed call
  // and the connection is closed (a half-read frame cannot resume).
  EXPECT_FALSE(client.Recv(&resp));
  EXPECT_FALSE(client.connected());
}

TEST(ClientTimeoutTest, ConnectTimeoutOptionStillConnects) {
  // The nonblocking-connect path must succeed against a live listener
  // (the timeout only bounds the dial).
  SilentServer silent;
  net::ClientOptions copts;
  copts.connect_timeout_ms = 1000;
  net::Client client(copts);
  EXPECT_TRUE(client.Connect("127.0.0.1", silent.port));
  EXPECT_TRUE(client.connected());
}

}  // namespace
}  // namespace proximity
