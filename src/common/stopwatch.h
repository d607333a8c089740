// Wall-clock stopwatch and a virtual clock for simulated latencies.
//
// Retrieval latency in the paper (§4.2, metric iii) is the time to obtain
// the relevant chunks, covering both cache lookups and database queries.
// Real work in this repository is timed with Stopwatch; deterministic
// *simulated* delays (e.g. the DiskANN-style storage model) are accounted on
// a VirtualClock so experiment output does not depend on host jitter.
#pragma once

#include <atomic>
#include <chrono>

#include "common/types.h"

namespace proximity {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  Nanos ElapsedNanos() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedMillis() const noexcept {
    return static_cast<double>(ElapsedNanos()) / kNanosPerMilli;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates simulated time. Thread-safe.
///
/// Components that model slow media (disk-resident indexes, network hops)
/// charge their deterministic delay here instead of sleeping, which keeps
/// benchmarks fast and their output exactly reproducible.
class VirtualClock {
 public:
  void Advance(Nanos delta) noexcept {
    now_.fetch_add(delta, std::memory_order_relaxed);
  }

  Nanos Now() const noexcept { return now_.load(std::memory_order_relaxed); }

  void Reset() noexcept { now_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<Nanos> now_{0};
};

}  // namespace proximity
