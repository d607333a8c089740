// Timing decorators around the layers of the served stack.
//
// The benchmark measures every layer from outside, through the public
// seams the program already has: a net::RequestSink decorator in front
// of each net::DriverSink (the admission + batching + cache + index path
// of one server), and a VectorIndex decorator around the index the
// BatchingDriver searches. Nothing here adds a span inside the program.
//
// Both decorators forward untouched while their Recorder is disabled
// (the end-to-end run), so the stack under test is the same object graph
// in both runs; only the traced run pays for the clock reads and the
// record appends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "index/vector_index.h"
#include "net/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (one time base for every record).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// How the driver served one request, classified from its BatchResult.
/// The wire response has no answer-hit flag, so this split only exists
/// in-process (see perfbench/README.md).
enum class Path : std::uint8_t {
  kAnswerHit,
  kDocHit,
  kMiss,
  kCoalesced,
  kWrite,
  kFailed,
};
inline constexpr std::size_t kNumPaths = 6;
const char* PathName(Path path);

/// One request as seen by a sink: Submit -> completion callback.
struct SinkRecord {
  std::uint64_t id = 0;
  std::uint32_t group = 0;  // backend group (0 for a single server)
  Path path = Path::kFailed;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t queue_ns = 0;
  /// The index search of this request's own batch; 0/0 when the batch
  /// ran no search.
  std::int64_t index_start_ns = 0;
  std::int64_t index_end_ns = 0;
};

/// One SearchBatch call on the decorated index.
struct SearchRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t queries = 0;
};

/// Append-only store of everything the decorators time, switched on for
/// the traced run only. Thread-safe.
class Recorder {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void AddSink(const SinkRecord& r);
  void AddSearch(const SearchRecord& r);
  void AddInsert(std::int64_t ns);
  void AddDelete(std::int64_t ns);
  void AddConsolidate(std::int64_t ns);

  struct Data {
    std::vector<SinkRecord> sinks;
    std::vector<SearchRecord> searches;
    std::vector<std::int64_t> inserts, deletes, consolidates;
  };
  /// Moves everything recorded so far out of the store.
  Data Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  Data data_;
};

/// VectorIndex decorator: forwards every call, timing SearchBatch,
/// Insert, Delete and Consolidate into the recorder when it is enabled.
/// The last SearchBatch of each thread is also kept thread-locally so a
/// sink completion running on the driver's flusher thread can attribute
/// its own batch's search to the request (LastSearchOnThisThread).
class TimedIndex final : public proximity::VectorIndex {
 public:
  TimedIndex(proximity::VectorIndex& inner, Recorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  std::size_t dim() const noexcept override { return inner_.dim(); }
  proximity::Metric metric() const noexcept override {
    return inner_.metric();
  }
  std::size_t size() const noexcept override { return inner_.size(); }
  proximity::VectorId Add(std::span<const float> vec) override {
    return inner_.Add(vec);
  }
  proximity::VectorId AddBatch(const proximity::Matrix& vectors) override {
    return inner_.AddBatch(vectors);
  }
  std::vector<proximity::Neighbor> Search(std::span<const float> query,
                                          std::size_t k) const override {
    return inner_.Search(query, k);
  }
  std::vector<std::vector<proximity::Neighbor>> SearchBatch(
      const proximity::Matrix& queries, std::size_t k) const override;
  std::vector<proximity::Neighbor> SearchFiltered(
      std::span<const float> query, std::size_t k,
      const Filter& filter) const override {
    return inner_.SearchFiltered(query, k, filter);
  }
  bool SupportsMutation() const noexcept override {
    return inner_.SupportsMutation();
  }
  proximity::VectorId Insert(std::span<const float> vec) override;
  bool Delete(proximity::VectorId id) override;
  std::size_t Consolidate() override;
  std::uint64_t generation() const noexcept override {
    return inner_.generation();
  }
  std::string Describe() const override { return inner_.Describe(); }
  void SaveTo(std::ostream& os) const override { inner_.SaveTo(os); }

 private:
  proximity::VectorIndex& inner_;
  Recorder& recorder_;
};

/// The calling thread's most recent timed SearchBatch ({} when none).
SearchRecord LastSearchOnThisThread();

/// RequestSink decorator: times Submit -> completion per request id and
/// classifies the completion's path. `group` tags the backend group on
/// the routed workload.
class TimedSink final : public proximity::net::RequestSink {
 public:
  TimedSink(proximity::net::RequestSink& inner, Recorder& recorder,
            std::uint32_t group)
      : inner_(inner), recorder_(recorder), group_(group) {}

  void Submit(proximity::net::Request request,
              const proximity::SubmitOptions& options,
              proximity::BatchCallback done) override;

 private:
  proximity::net::RequestSink& inner_;
  Recorder& recorder_;
  std::uint32_t group_;
};

}  // namespace perfbench
