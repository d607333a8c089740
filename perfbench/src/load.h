// Load generator: open loop at a fixed offered rate, closed loop at a
// fixed connection count, both over loopback with net::Client.
//
// Hygiene rules this generator keeps (and bench/serve_load does not):
//   - the offered rate is a constant of the workload, never a fraction
//     of a capacity measured in the same run;
//   - open-loop latency runs from the scheduled send time, and the lag
//     between schedule and actual send is reported;
//   - frames carry no trace fields unless the phase is traced;
//   - every phase uses at most kMaxLoadThreads threads and connections;
//   - every phase reports sent, succeeded and failed, and a shed or
//     quota refusal counts as failed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/protocol.h"
#include "workload/corpus.h"
#include "workload/query_stream.h"

namespace perfbench {

/// Load threads and connections per phase, in total.
inline constexpr std::size_t kMaxLoadThreads = 4;

enum class Kind : std::uint8_t { kQuery, kInsert, kDelete };

/// What a workload sends as the seq-th request of its stream: the
/// query stream, cycled, with every write_every-th request a v4 write
/// (0 = read-only). Writes alternate INSERT of a fresh passage and
/// DELETE of the oldest insert confirmed so far (an INSERT stands in
/// while none is). Thread-safe.
class Mix {
 public:
  Mix(const proximity::Workload& workload,
      std::vector<proximity::StreamEntry> stream, std::size_t write_every,
      std::uint64_t seed);

  /// Fills text/mutation fields of `req` for stream position `seq` and
  /// returns its kind. Called from sender threads.
  Kind Make(std::uint64_t seq, proximity::net::Request& req);
  /// An INSERT was answered OK with id `id` / a DELETE was answered OK.
  /// Called from receivers.
  void OnInserted(proximity::VectorId id);
  void OnDeleted();

  /// Runs after every write answered OK (set before load starts).
  void set_on_write(std::function<void()> fn) { on_write_ = std::move(fn); }

  /// The question a query at stream position `seq` asks, and its text.
  std::size_t QuestionAt(std::uint64_t seq) const {
    return stream_[seq % stream_.size()].question;
  }
  const std::string& TextAt(std::uint64_t seq) const {
    return stream_[seq % stream_.size()].text;
  }
  /// Writes answered OK, and DELETEs sent against a gold passage.
  std::uint64_t inserts_ok() const;
  std::uint64_t deletes_ok() const;
  std::uint64_t gold_deletes() const;

 private:
  const proximity::Workload& workload_;
  std::vector<proximity::StreamEntry> stream_;
  std::size_t write_every_;
  std::uint64_t seed_;
  mutable std::mutex mu_;
  std::deque<proximity::VectorId> inserted_;  // confirmed, not deleted
  std::uint64_t writes_ = 0;
  std::uint64_t inserts_ok_ = 0, deletes_ok_ = 0, gold_deletes_ = 0;
  std::function<void()> on_write_;
};

/// One sent request and its answer.
struct Outcome {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kQuery;
  bool sent = false;
  bool answered = false;
  proximity::RequestStatus status = proximity::RequestStatus::kUnavailable;
  std::uint32_t flags = 0;
  /// Open loop: scheduled send; closed loop: actual send.
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::vector<proximity::VectorId> documents;
  std::vector<float> distances;

  bool ok() const {
    return answered && status == proximity::RequestStatus::kOk;
  }
  /// Latency as the client sees it: from the scheduled send.
  std::int64_t latency_ns() const { return recv_ns - scheduled_ns; }
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // sent requests only
  double wall_s = 0;
  /// Wire-level faults: lost connections, ids answered twice or never,
  /// ids the generator never sent.
  std::uint64_t transport_errors = 0;
  std::uint64_t duplicate_ids = 0;
  std::uint64_t unknown_ids = 0;

  std::uint64_t sent() const;
  std::uint64_t succeeded() const;
  std::uint64_t failed() const;  // sent - succeeded
};

struct PhaseOptions {
  std::uint16_t port = 0;
  std::size_t conns = 2;
  /// First request id of the phase; ids are unique across a run.
  std::uint64_t id_base = 0;
  /// First stream position of the phase.
  std::uint64_t first_seq = 0;
  /// Stamp a fresh trace context on every frame.
  bool trace = false;
  /// Ask for the v5 distance side-channel on every query.
  bool want_distances = false;
};

/// Open loop: Poisson arrivals at `rate` per second for `seconds`,
/// partitioned round-robin over opts.conns connections, each with one
/// sender and one receiver thread (so conns <= kMaxLoadThreads / 2).
PhaseResult RunOpenLoop(Mix& mix, const PhaseOptions& opts, double rate,
                        double seconds, std::uint64_t seed);

/// Closed loop: opts.conns connections, one thread each, each sending
/// its next request when the previous answer lands; runs for `seconds`
/// or until `max_requests` were sent (0 = no cap).
PhaseResult RunClosedLoop(Mix& mix, const PhaseOptions& opts,
                          double seconds, std::uint64_t max_requests);

/// Sorted copy helpers over raw samples (no histogram bucketing).
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
/// Highest percentile with at least ten samples beyond it, in percent
/// (0 when fewer than 20 samples).
double HighestSupportedPercentile(std::size_t n);

}  // namespace perfbench
