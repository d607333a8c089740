// Nonblocking epoll-based RPC serving front-end (DESIGN.md §9).
//
// One event-loop thread owns every socket: it accepts connections,
// reassembles length-prefixed request frames from partial reads, and
// hands each request to the BatchingDriver via the callback Submit path.
// A completion delivered on the loop thread itself — a cache hit the
// driver's probe step served inline, or a shed — is encoded and written
// in the same loop iteration. Completions from the flusher thread are
// posted back through a mutex-protected queue plus an eventfd wakeup, so
// the event loop never blocks on a future and the driver never touches a
// socket. Responses are written with partial-write handling (EPOLLOUT
// is armed only while a connection has unflushed bytes).
//
// The unglamorous production cases are first-class here:
//   - slow/disconnecting clients: a closed connection's in-flight
//     requests still complete in the driver; their completions find no
//     connection and are discarded (counted `abandoned`), never leaked;
//   - overload: admission beyond `max_inflight` (or the driver's
//     queue_bound) answers RESOURCE_EXHAUSTED immediately instead of
//     queueing without bound;
//   - deadlines: enforced in-queue by the driver and re-checked at
//     response time, so a reply that would arrive too late degrades to
//     DEADLINE_EXCEEDED;
//   - graceful drain: RequestDrain() (async-signal-safe, the SIGINT /
//     SIGTERM handler calls it) stops accepting, answers new requests
//     UNAVAILABLE, flushes everything in flight, then exits the loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/trace.h"
#include "rag/batching_driver.h"

namespace proximity::net {

/// The drain FSM as seen by /healthz: running -> draining -> stopped.
enum class ServerHealth { kServing, kDraining, kStopped };

/// Where admitted requests go. The front-end couples to the rag layer
/// only through this seam: the production sink adapts BatchingDriver
/// (DriverSink below), and the cluster router (src/cluster) implements
/// its own sink that scatter-gathers over backend connections — reusing
/// this entire epoll front-end (framing, admission control, drain FSM,
/// completion ring, partial-write handling) unchanged.
class RequestSink {
 public:
  virtual ~RequestSink() = default;

  /// Dispatches one admitted request. `done` must be called exactly
  /// once, from any thread or inline before Submit returns (the driver
  /// completes a cache hit inline; the server then writes its response
  /// without a thread hop). The sink
  /// receives the request exactly as parsed off the wire (flags
  /// included), which is what lets a relaying sink forward it
  /// byte-identically.
  virtual void Submit(Request request, const SubmitOptions& options,
                      BatchCallback done) = 0;
};

/// The production sink: queries go to SubmitTextAsync, v4 mutation
/// frames to SubmitMutationAsync.
class DriverSink final : public RequestSink {
 public:
  explicit DriverSink(BatchingDriver& driver) : driver_(driver) {}

  void Submit(Request request, const SubmitOptions& options,
              BatchCallback done) override;

 private:
  BatchingDriver& driver_;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result from port().
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// Server-wide bound on admitted-but-unanswered requests; beyond it
  /// requests are shed with RESOURCE_EXHAUSTED.
  std::size_t max_inflight = 1024;
  /// Applied when a request carries deadline_us == 0; 0 = no deadline.
  std::uint64_t default_deadline_us = 0;
  /// Hard cap on a graceful drain; connections still unflushed or in
  /// flight after this are force-closed so drain always terminates.
  std::uint64_t drain_timeout_ms = 10000;
  /// Fault injection for tail-latency experiments (the hedging sweep in
  /// bench/cluster_scaling): every Nth response stalls the event loop
  /// for `debug_stall_us` before serialization, the way a GC or
  /// compaction pause would stall a real replica. 0 disables.
  std::size_t debug_stall_every = 0;
  std::uint64_t debug_stall_us = 0;
};

/// Counters over the server's lifetime; exact once the loop has exited.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_connections = 0;
  std::uint64_t closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  /// RESOURCE_EXHAUSTED answers (server max_inflight + driver sheds).
  std::uint64_t shed = 0;
  /// UNAVAILABLE answers (request arrived while draining).
  std::uint64_t unavailable = 0;
  /// DEADLINE_EXCEEDED answers (in-queue expiry + response-time check).
  std::uint64_t deadline_exceeded = 0;
  /// Completions whose connection was already gone; discarded safely.
  std::uint64_t abandoned = 0;
  /// v4 INSERT/DELETE frames dispatched to the driver's mutation path.
  std::uint64_t mutation_requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class Server {
 public:
  /// `driver` must outlive the server and must not be Shutdown before
  /// the server's loop has exited (Join/Stop).
  Server(BatchingDriver& driver, ServerOptions options = {});
  /// Serves an arbitrary sink (the cluster router's path). `sink` must
  /// outlive the server and keep accepting `done` callbacks until the
  /// loop has exited.
  Server(RequestSink& sink, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event-loop thread. Throws
  /// std::runtime_error when the socket cannot be bound.
  void Start();

  /// The bound TCP port (after Start); useful with options.port == 0.
  std::uint16_t port() const noexcept { return bound_port_; }

  /// Begins a graceful drain. Async-signal-safe (atomic store + eventfd
  /// write) so SIGINT/SIGTERM handlers may call it directly. Idempotent.
  void RequestDrain() noexcept;

  /// Blocks until the event loop has exited (drain finished).
  void Join();

  /// RequestDrain + Join. Idempotent; called by the destructor.
  void Stop();

  ServerStats stats() const;

  /// Drain-FSM state, readable from any thread (the admin plane's
  /// /healthz hook): kServing until RequestDrain, kDraining while the
  /// loop flushes in-flight work, kStopped once the loop has exited.
  ServerHealth health() const noexcept;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    std::size_t inflight = 0;
    bool want_write = false;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::chrono::steady_clock::time_point received;
    std::chrono::steady_clock::time_point deadline;
    /// Request trace: trace id + this request's root span, with the
    /// client-side span (if propagated) as the root's parent. The root
    /// span is emitted and the trace completed into the tail sampler
    /// when the response is serialized.
    obs::TraceContext trace;
    std::uint64_t trace_parent = 0;
    /// The request carried kReqFlagWantDistances: attach the result's
    /// distance array (when the retrieval produced one) to the wire
    /// response.
    bool want_distances = false;
    BatchResult result;
  };

  void Loop();
  void HandleAccept();
  void HandleReadable(Conn& conn);
  void HandleWritable(Conn& conn);
  void HandleRequest(Conn& conn, Request request,
                     std::chrono::steady_clock::time_point received);
  void ProcessCompletions();
  /// Answers one completion on the loop thread: its connection gets the
  /// encoded response (a gone connection counts `abandoned`).
  void Complete(Completion& c, std::chrono::steady_clock::time_point now);
  /// Serializes `response` into the connection's write buffer and
  /// flushes as much as the socket accepts.
  void QueueResponse(Conn& conn, const Response& response);
  /// Flushes the write buffer; handles partial writes / EPOLLOUT.
  void FlushWrites(Conn& conn);
  void CloseConn(Conn& conn);
  void UpdateEpoll(Conn& conn);
  /// True when a drain can finish: nothing in flight, nothing buffered.
  bool DrainComplete() const;

  // The driver-construction path owns its adapter; both paths dispatch
  // through sink_. Declaration order matters: owned_sink_ must be built
  // before sink_ binds to it.
  std::unique_ptr<DriverSink> owned_sink_;
  RequestSink& sink_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread loop_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> loop_exited_{false};
  std::chrono::steady_clock::time_point drain_started_;

  // Event-loop-owned state (no lock needed).
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;       // by fd
  std::unordered_map<std::uint64_t, Conn*> conns_by_id_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t inflight_ = 0;
  std::size_t stall_tick_ = 0;  // debug_stall_every response counter

  // Crossing the flusher -> event loop boundary.
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  // Counters are atomics: the loop thread writes, stats() may read from
  // any thread while the server runs.
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, rejected_connections{0},
        closed{0}, requests{0}, responses{0}, shed{0}, unavailable{0},
        deadline_exceeded{0}, abandoned{0}, mutation_requests{0},
        protocol_errors{0}, bytes_in{0}, bytes_out{0};
  };
  AtomicStats stats_;
};

/// Routes SIGINT/SIGTERM to server.RequestDrain() (one server at a time;
/// passing nullptr restores the default disposition). The handler only
/// performs async-signal-safe work.
void InstallSignalDrain(Server* server);

}  // namespace proximity::net
