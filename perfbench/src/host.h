// What the benchmark knows about the host it runs on.
//
// The reference host is a VM on a shared machine: the hypervisor steals
// CPU from it in sub-second bursts, and a request that is in flight
// during a burst pays for it. StealMonitor samples the VM's steal time
// from /proc/stat so the windowed estimators in main.cpp can rank time
// windows by how much CPU the host took away during them. On a host
// without /proc/stat every window reads zero steal and all of them are
// used.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Share of CPU time stolen between two steady-clock instants (ns),
  /// from the samples taken around them; 0 when unknown.
  double StealShare(std::int64_t from_ns, std::int64_t to_ns) const;

 private:
  struct Sample {
    std::int64_t at_ns = 0;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  void Loop();

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Peak resident set since the last ResetPeakRss (VmHWM), in MiB.
double PeakRssMb();
/// Restarts the VmHWM peak at the current resident set.
void ResetPeakRss();

/// Cores, active SIMD kernel tier, build type, PROXIMITY_OBS state,
/// seed and workload, as a JSON object.
std::string Fingerprint(std::uint64_t seed, const std::string& workload);

}  // namespace perfbench
