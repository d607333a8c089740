// Live introspection plane (src/net/admin.{h,cpp}, DESIGN.md §12):
// endpoint routing via Handle() (socketless), the drain-FSM-aware
// /healthz against a real net::Server, /tracez over a populated
// collector, and one real-socket GET through the epoll loop.
//
// The admin plane compiles unconditionally; only the /metrics and
// /tracez payload contents depend on PROXIMITY_OBS_ENABLED.
#include "net/admin.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "cache/approx_cache.h"
#include "embed/hash_embedder.h"
#include "index/flat_index.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "rag/batching_driver.h"
#include "one_tenant.h"

namespace proximity {
namespace {

TEST(AdminRoutingTest, HealthzFollowsTheHook) {
  net::AdminHooks hooks;
  net::HealthState state = net::HealthState::kServing;
  hooks.health = [&] { return state; };
  const net::AdminServer admin(std::move(hooks));

  auto resp = admin.Handle("/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "serving\n");

  state = net::HealthState::kDraining;
  resp = admin.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, "draining\n");

  state = net::HealthState::kUnavailable;
  resp = admin.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, "unavailable\n");
}

TEST(AdminRoutingTest, HealthzWithoutHookDefaultsToServing) {
  const net::AdminServer admin;
  EXPECT_EQ(admin.Handle("/healthz").status, 200);
}

TEST(AdminRoutingTest, MetricsServesPrometheusExposition) {
  const net::AdminServer admin;
  const auto resp = admin.Handle("/metrics");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
#if PROXIMITY_OBS_ENABLED
  // The registry carries the trace/admin families this suite touches.
  EXPECT_NE(resp.body.find("proximity_admin_requests"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE"), std::string::npos);
#endif
}

TEST(AdminRoutingTest, StatuszAppendsTheOwnerHook) {
  net::AdminHooks hooks;
  hooks.health = [] { return net::HealthState::kServing; };
  hooks.statusz = [] { return std::string("tenant 0: everything fine\n"); };
  const net::AdminServer admin(std::move(hooks));
  const auto resp = admin.Handle("/statusz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("health: serving"), std::string::npos);
  EXPECT_NE(resp.body.find("tenant 0: everything fine"),
            std::string::npos);
}

TEST(AdminRoutingTest, IndexListsEndpointsAndUnknownIs404) {
  const net::AdminServer admin;
  const auto index = admin.Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/tracez"), std::string::npos);
  EXPECT_EQ(admin.Handle("/nope").status, 404);
  EXPECT_EQ(admin.Handle("/metricsz").status, 404);
}

TEST(AdminRoutingTest, TracezListsAndResolvesSampledTraces) {
  const net::AdminServer admin;
  const auto list = admin.Handle("/tracez");
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(list.content_type, "application/json");
  EXPECT_NE(list.body.find("\"traces\""), std::string::npos);

  // An id that can never be sampled -> 404.
  EXPECT_EQ(admin.Handle("/tracez?id=2").status, 404);

#if PROXIMITY_OBS_ENABLED
  // Seed the default collector with an always-kept (error) trace and
  // resolve it through the query path, hex id as /tracez renders it.
  const obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
  obs::EmitTraceSpan({ctx.trace_id, obs::NewSpanId(), ctx.span_id,
                      obs::TraceOp::kRequest, 0, 1, 2});
  ASSERT_TRUE(obs::TraceCollector::Default().Complete(
      ctx, RequestStatus::kInternal, 12345));
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(ctx.trace_id));
  const auto one = admin.Handle(std::string("/tracez?id=") + id_hex);
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(one.body.find("\"request\""), std::string::npos);
#endif
}

// /healthz against the real drain FSM: serving -> draining -> stopped.
TEST(AdminHealthTest, TracksServerDrainTransitions) {
  HashEmbedderOptions eopts;
  eopts.dim = 32;
  HashEmbedder embedder(eopts);
  FlatIndex index(embedder.dim());
  const Matrix corpus = embedder.EmbedBatch(
      {"draining servers answer unavailable", "epoll loops poll"});
  for (std::size_t r = 0; r < corpus.rows(); ++r) index.Add(corpus.Row(r));
  OneTenant stack(index, {}, &embedder);
  // Park queued work so the drain stays observable until released.
  ParkedFlusher park(stack.driver, index.dim());
  net::ServerOptions nopts;
  nopts.drain_timeout_ms = 2000;
  net::Server server(stack.driver, nopts);
  server.Start();

  net::AdminHooks hooks;
  hooks.health = [&server] {
    switch (server.health()) {
      case net::ServerHealth::kServing: return net::HealthState::kServing;
      case net::ServerHealth::kDraining:
        return net::HealthState::kDraining;
      case net::ServerHealth::kStopped: break;
    }
    return net::HealthState::kUnavailable;
  };
  const net::AdminServer admin(std::move(hooks));

  EXPECT_EQ(admin.Handle("/healthz").body, "serving\n");

  // Hold one request in the parked queue so the drain has work to wait
  // for, then ask for the drain and observe the FSM through /healthz.
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::Request held;
  held.id = 1;
  held.text = "held in queue";
  ASSERT_TRUE(client.Send(held));
  while (stack.driver.pending() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.RequestDrain();
  const auto draining = admin.Handle("/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");

  park.Release();
  server.Join();
  stack.driver.Shutdown();
  const auto stopped = admin.Handle("/healthz");
  EXPECT_EQ(stopped.status, 503);
  EXPECT_EQ(stopped.body, "unavailable\n");
}

// One real GET through the socket/epoll path, plus the 405 contract.
TEST(AdminSocketTest, ServesGetOverASocketAndRejectsPost) {
  net::AdminServer admin;
  admin.Start();
  ASSERT_NE(admin.port(), 0);

  const auto fetch = [&](const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(admin.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;  // Connection: close ends the response
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  };

  const std::string ok =
      fetch("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);
  EXPECT_NE(ok.find("serving"), std::string::npos);

  const std::string post =
      fetch("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  admin.Stop();
}

TEST(AdminSocketTest, StartTwiceThrowsAndStopIsIdempotent) {
  net::AdminServer admin;
  admin.Start();
  EXPECT_THROW(admin.Start(), std::logic_error);
  admin.Stop();
  admin.Stop();
}

}  // namespace
}  // namespace proximity
