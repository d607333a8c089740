#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "obs/metrics_registry.h"

namespace proximity::net {

namespace {

const obs::CounterHandle kObsAccepted("net.accepted");
const obs::CounterHandle kObsRequests("net.requests");
const obs::CounterHandle kObsResponses("net.responses");
const obs::CounterHandle kObsShed("net.shed");
const obs::CounterHandle kObsDeadline("net.deadline_exceeded");
const obs::CounterHandle kObsAbandoned("net.abandoned");
const obs::CounterHandle kObsMutationRequests("net.mutations");
const obs::CounterHandle kObsProtocolErrors("net.protocol_errors");
// Receipt -> response serialization, split by cache outcome: the
// client-observed analogue of the retrieve.hit_ns / miss_ns contrast.
const obs::HistogramHandle kObsRequestNs("net.request_ns");
const obs::HistogramHandle kObsHitNs("net.hit_ns");
const obs::HistogramHandle kObsMissNs("net.miss_ns");

// A stalled client that never drains its socket cannot buffer the
// server into the ground; past this the connection is dropped.
constexpr std::size_t kMaxWriteBuffer = 16u << 20;

Nanos SinceNs(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// The server whose event loop runs on this thread, if any: a completion
// delivered here is written in the same loop iteration.
thread_local const Server* tl_loop_server = nullptr;

void SetNonBlocking(int fd) {
  // accept4/SOCK_NONBLOCK cover the common paths; this is the fallback.
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

void DriverSink::Submit(Request request, const SubmitOptions& options,
                        BatchCallback done) {
  if (request.mutation_op != kMutationNone) {
    // v4 live-corpus mutation: same admission queue, same completion
    // path. The driver refuses inline (kInvalidArgument) when its
    // mutation path was never armed, so a v4 frame against a build-once
    // index degrades to an error response, not a crash.
    const MutationOp op = request.mutation_op == kMutationInsert
                              ? MutationOp::kInsert
                              : MutationOp::kDelete;
    driver_.SubmitMutationAsync(
        op, std::move(request.text),
        static_cast<VectorId>(request.mutation_target), options,
        std::move(done));
    return;
  }
  driver_.SubmitTextAsync(std::move(request.text), options, std::move(done));
}

Server::Server(BatchingDriver& driver, ServerOptions options)
    : owned_sink_(std::make_unique<DriverSink>(driver)),
      sink_(*owned_sink_),
      options_(std::move(options)) {}

Server::Server(RequestSink& sink, ServerOptions options)
    : sink_(sink), options_(std::move(options)) {}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("net::Server: Start called twice");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("net::Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::invalid_argument("net::Server: bad listen host '" +
                                options_.host + "' (numeric IPv4 only)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("net::Server: bind/listen on ") +
                             options_.host + " failed: " +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("net::Server: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  loop_ = std::thread([this] { Loop(); });
  LogInfo("net: listening on {}:{}", options_.host, bound_port_);
}

void Server::RequestDrain() noexcept {
  draining_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    // write() is async-signal-safe; the return value is irrelevant
    // because the loop also polls `draining_` on every wakeup.
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::Join() {
  if (loop_.joinable()) loop_.join();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void Server::Stop() {
  if (!started_.load()) return;
  RequestDrain();
  Join();
}

ServerHealth Server::health() const noexcept {
  if (loop_exited_.load(std::memory_order_acquire)) {
    return ServerHealth::kStopped;
  }
  if (!started_.load(std::memory_order_acquire)) {
    return ServerHealth::kStopped;
  }
  return draining_.load(std::memory_order_acquire) ? ServerHealth::kDraining
                                                   : ServerHealth::kServing;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = stats_.accepted.load();
  s.rejected_connections = stats_.rejected_connections.load();
  s.closed = stats_.closed.load();
  s.requests = stats_.requests.load();
  s.responses = stats_.responses.load();
  s.shed = stats_.shed.load();
  s.unavailable = stats_.unavailable.load();
  s.deadline_exceeded = stats_.deadline_exceeded.load();
  s.abandoned = stats_.abandoned.load();
  s.mutation_requests = stats_.mutation_requests.load();
  s.protocol_errors = stats_.protocol_errors.load();
  s.bytes_in = stats_.bytes_in.load();
  s.bytes_out = stats_.bytes_out.load();
  return s;
}

bool Server::DrainComplete() const {
  if (inflight_ != 0) return false;
  for (const auto& [fd, conn] : conns_) {
    if (conn->woff < conn->wbuf.size()) return false;
  }
  return true;
}

void Server::Loop() {
  tl_loop_server = this;
  std::array<epoll_event, 64> events;
  bool drain_initiated = false;
  for (;;) {
    const int timeout_ms = drain_initiated ? 50 : -1;
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        ProcessCompletions();
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HandleReadable(conn);
        // HandleReadable may have closed and erased the connection.
        if (conns_.find(fd) == conns_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }

    if (draining_.load(std::memory_order_acquire)) {
      if (!drain_initiated) {
        drain_initiated = true;
        drain_started_ = std::chrono::steady_clock::now();
        if (listen_fd_ >= 0) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        LogInfo("net: drain started ({} in flight)", inflight_);
      }
      ProcessCompletions();
      if (DrainComplete()) break;
      const auto waited = std::chrono::steady_clock::now() - drain_started_;
      if (waited >
          std::chrono::milliseconds(options_.drain_timeout_ms)) {
        LogWarn("net: drain timeout, force-closing {} connections "
                "({} in flight)",
                conns_.size(), inflight_);
        break;
      }
    }
  }

  // Loop exit: every connection closes; late completions for them are
  // discarded by ProcessCompletions (driver shutdown is the owner's
  // job, after Join).
  while (!conns_.empty()) CloseConn(*conns_.begin()->second);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  tl_loop_server = nullptr;
  loop_exited_.store(true, std::memory_order_release);
}

void Server::HandleAccept() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try next wakeup
    }
    if (conns_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      stats_.rejected_connections.fetch_add(1);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);  // belt and braces; accept4 already set it
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_by_id_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
    stats_.accepted.fetch_add(1);
    kObsAccepted.Inc();
  }
}

void Server::HandleReadable(Conn& conn) {
  // EOF does not short-circuit parsing: a client that sends and
  // immediately closes still gets its buffered complete frames admitted
  // (their completions are then discarded as `abandoned`), so work is
  // never silently dropped on the floor.
  bool eof = false;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), chunk.data(), chunk.data() + n);
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }

  const auto received = std::chrono::steady_clock::now();
  const int fd = conn.fd;
  std::size_t off = 0;
  for (;;) {
    Request request;
    std::size_t consumed = 0;
    const ParseResult parsed = ParseFrame(
        std::span<const std::uint8_t>(conn.rbuf).subspan(off), &consumed,
        &request);
    if (parsed == ParseResult::kNeedMore) break;
    if (parsed == ParseResult::kError) {
      stats_.protocol_errors.fetch_add(1);
      kObsProtocolErrors.Inc();
      CloseConn(conn);
      return;
    }
    off += consumed;
    HandleRequest(conn, std::move(request), received);
    // Answering can close the connection (dead peer, write-buffer cap);
    // `conn` is destroyed then, so stop touching it.
    if (conns_.find(fd) == conns_.end()) return;
  }
  if (off > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  if (eof) CloseConn(conn);
}

void Server::HandleRequest(Conn& conn, Request request,
                           std::chrono::steady_clock::time_point received) {
  stats_.requests.fetch_add(1);
  kObsRequests.Inc();

  // Every request gets a trace: a propagated client context is adopted
  // (client -> server stitch into one trace), otherwise a fresh id is
  // minted. Whether the trace survives is decided at completion time by
  // the tail sampler; with PROXIMITY_OBS=OFF the ids stay 0 and every
  // emission below is a no-op.
  obs::TraceContext trace;
  trace.trace_id =
      request.trace_id != 0 ? request.trace_id : obs::NewTraceId();
  if (trace.trace_id != 0) trace.span_id = obs::NewSpanId();
  const std::uint64_t trace_parent = request.trace_parent;
  // Requests answered inline (drain, shed) never reach the driver, but
  // the tail sampler must still see them: shed/unavailable outcomes are
  // always kept.
  const auto complete_inline = [&](RequestStatus status) {
    if (!trace.active()) return;
    obs::TraceSpanRecord rec;
    rec.trace_id = trace.trace_id;
    rec.span_id = trace.span_id;
    rec.parent_id = trace_parent;
    rec.op = obs::TraceOp::kRequest;
    rec.start_ns = obs::TraceRelNanos(received);
    rec.duration_ns = obs::TraceNowNs() - rec.start_ns;
    obs::EmitTraceSpan(rec);
    obs::TraceCollector::Default().Complete(trace, status, rec.duration_ns);
  };

  if (draining_.load(std::memory_order_acquire)) {
    Response resp;
    resp.id = request.id;
    resp.status = RequestStatus::kUnavailable;
    stats_.unavailable.fetch_add(1);
    complete_inline(resp.status);
    QueueResponse(conn, resp);
    return;
  }
  if (inflight_ >= options_.max_inflight) {
    Response resp;
    resp.id = request.id;
    resp.status = RequestStatus::kResourceExhausted;
    stats_.shed.fetch_add(1);
    kObsShed.Inc();
    complete_inline(resp.status);
    QueueResponse(conn, resp);
    return;
  }

  auto deadline = std::chrono::steady_clock::time_point::max();
  const std::uint64_t budget_us = request.deadline_us != 0
                                      ? request.deadline_us
                                      : options_.default_deadline_us;
  if (budget_us != 0) {
    deadline = received + std::chrono::microseconds(budget_us);
  }

  ++inflight_;
  ++conn.inflight;
  SubmitOptions sopts;
  sopts.deadline = deadline;
  sopts.tenant = request.tenant;
  sopts.trace = trace;
  // The callback runs inline right here on a cache hit or a shed: the
  // response is then written in this loop iteration. From the flusher
  // thread it only posts to the completion queue and rings the eventfd,
  // so neither thread ever blocks on the other.
  const bool want_distances =
      (request.flags & kReqFlagWantDistances) != 0;
  auto done = [this, conn_id = conn.id, request_id = request.id, received,
               deadline, trace, trace_parent,
               want_distances](BatchResult result) {
    Completion c{conn_id, request_id,   received,       deadline,
                 trace,   trace_parent, want_distances, std::move(result)};
    if (tl_loop_server == this) {
      Complete(c, std::chrono::steady_clock::now());
      return;
    }
    {
      std::lock_guard lock(completions_mu_);
      completions_.push_back(std::move(c));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
  };
  if (request.mutation_op != kMutationNone) {
    stats_.mutation_requests.fetch_add(1);
    kObsMutationRequests.Inc();
  }
  sink_.Submit(std::move(request), sopts, std::move(done));
}

void Server::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard lock(completions_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& c : batch) Complete(c, now);
}

void Server::Complete(Completion& c,
                      std::chrono::steady_clock::time_point now) {
  if (inflight_ > 0) --inflight_;
  const auto it = conns_by_id_.find(c.conn_id);
  if (it == conns_by_id_.end()) {
    // The client is gone; the work still completed in the driver and
    // is simply discarded — never leaked, never written to a dead fd.
    stats_.abandoned.fetch_add(1);
    kObsAbandoned.Inc();
    return;
  }
  Conn& conn = *it->second;
  if (conn.inflight > 0) --conn.inflight;

  Response resp;
  resp.id = c.request_id;
  resp.status = c.result.status;
  resp.queue_ns = static_cast<std::uint64_t>(c.result.queue_wait_ns);
  resp.server_ns = static_cast<std::uint64_t>(SinceNs(c.received, now));
  // Response-time deadline check: a reply that would arrive after the
  // deadline degrades to DEADLINE_EXCEEDED even though the work ran.
  if (resp.status == RequestStatus::kOk && now > c.deadline) {
    resp.status = RequestStatus::kDeadlineExceeded;
  }
  if (resp.status == RequestStatus::kOk) {
    resp.documents = std::move(c.result.documents);
    if (c.result.cache_hit) resp.flags |= kFlagCacheHit;
    if (c.result.coalesced) resp.flags |= kFlagCoalesced;
    // v5 distance side-channel, opt-in per request. Cache hits carry
    // no distances (the cache stores bare ids), so the field — and
    // kFlagHasDistances — appears only on fresh retrievals; the
    // router's merge falls back to rank interleave without it.
    if (c.want_distances && !c.result.distances.empty()) {
      resp.distances = std::move(c.result.distances);
    }
    const Nanos served_ns = SinceNs(c.received, now);
    (c.result.cache_hit ? kObsHitNs : kObsMissNs).Record(served_ns);
  }
  switch (resp.status) {
    case RequestStatus::kResourceExhausted:
      stats_.shed.fetch_add(1);
      kObsShed.Inc();
      break;
    case RequestStatus::kDeadlineExceeded:
      stats_.deadline_exceeded.fetch_add(1);
      kObsDeadline.Inc();
      break;
    case RequestStatus::kUnavailable:
      stats_.unavailable.fetch_add(1);
      break;
    default:
      break;
  }
  kObsRequestNs.Record(static_cast<Nanos>(resp.server_ns));
  // The request's root span closes here (receipt -> serialization);
  // only now is the outcome known, so this is also where the trace
  // meets the tail sampler.
  if (c.trace.active()) {
    obs::TraceSpanRecord rec;
    rec.trace_id = c.trace.trace_id;
    rec.span_id = c.trace.span_id;
    rec.parent_id = c.trace_parent;
    rec.op = obs::TraceOp::kRequest;
    rec.start_ns = obs::TraceRelNanos(c.received);
    rec.duration_ns = static_cast<Nanos>(resp.server_ns);
    obs::EmitTraceSpan(rec);
    obs::TraceCollector::Default().Complete(c.trace, resp.status,
                                            rec.duration_ns);
  }
  if (options_.debug_stall_every != 0 &&
      ++stall_tick_ % options_.debug_stall_every == 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.debug_stall_us));
  }
  QueueResponse(conn, resp);
}

void Server::QueueResponse(Conn& conn, const Response& response) {
  AppendFrame(conn.wbuf, response);
  stats_.responses.fetch_add(1);
  kObsResponses.Inc();
  if (conn.wbuf.size() - conn.woff > kMaxWriteBuffer) {
    CloseConn(conn);
    return;
  }
  FlushWrites(conn);
}

void Server::FlushWrites(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as
    // EPIPE here, not as a process-killing SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        UpdateEpoll(conn);
      }
      return;
    }
    CloseConn(conn);
    return;
  }
  conn.wbuf.clear();
  conn.woff = 0;
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(conn);
  }
}

void Server::HandleWritable(Conn& conn) { FlushWrites(conn); }

void Server::UpdateEpoll(Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::CloseConn(Conn& conn) {
  const int fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_by_id_.erase(conn.id);
  conns_.erase(fd);  // destroys `conn`
  stats_.closed.fetch_add(1);
}

namespace {

std::atomic<Server*> g_drain_server{nullptr};

void DrainSignalHandler(int /*signum*/) {
  Server* server = g_drain_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

}  // namespace

void InstallSignalDrain(Server* server) {
  g_drain_server.store(server, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = server != nullptr ? DrainSignalHandler : SIG_DFL;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace proximity::net
