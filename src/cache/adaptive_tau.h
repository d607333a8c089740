// Adaptive similarity-tolerance controller (the paper's future-work idea,
// §3.2.3: "one might consider adaptive strategies to dynamically adjust τ
// based on … the patterns of queries sent to the system").
//
// A proportional controller steers the observed hit rate toward a target:
// when the windowed hit rate is below target, τ is widened; when above, τ
// is tightened. τ stays inside [min_tau, max_tau] to bound the relevance
// loss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

namespace proximity {

struct AdaptiveTauOptions {
  double target_hit_rate = 0.6;
  /// Sliding window (number of lookups) over which the hit rate is
  /// estimated.
  std::size_t window = 64;
  /// Multiplicative step applied per adjustment (> 1).
  double step = 1.05;
  double min_tau = 0.0;
  double max_tau = 10.0;
  /// Initial tolerance.
  double initial_tau = 1.0;
  /// Adjust only every `period` observations to let the window settle.
  std::size_t period = 16;

  bool operator==(const AdaptiveTauOptions&) const = default;
};

class AdaptiveTau {
 public:
  explicit AdaptiveTau(AdaptiveTauOptions options = {});

  /// Records the outcome of one cache lookup and possibly adjusts τ.
  /// Returns the tolerance to use for the *next* lookup.
  double Observe(bool hit);

  double tau() const noexcept { return tau_; }
  double WindowedHitRate() const noexcept;
  std::uint64_t observations() const noexcept { return observations_; }
  std::uint64_t adjustments() const noexcept { return adjustments_; }

 private:
  AdaptiveTauOptions options_;
  double tau_;
  std::deque<bool> window_;
  std::size_t window_hits_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t adjustments_ = 0;
};

}  // namespace proximity
