#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "layers.h"
#include "obs/metrics_registry.h"
#include "vecmath/kernels.h"

namespace perfbench {

namespace {

constexpr auto kSampleEvery = std::chrono::milliseconds(50);

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal ... in clock ticks. False when unreadable.
bool ReadCpuTicks(std::uint64_t* steal, std::uint64_t* total) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (!(stat >> cpu) || cpu != "cpu") return false;
  std::uint64_t v = 0, sum = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    sum += v;
    if (field == 7) *steal = v;
  }
  *total = sum;
  return sum > 0;
}

}  // namespace

StealMonitor::StealMonitor() : thread_([this] { Loop(); }) {}

StealMonitor::~StealMonitor() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void StealMonitor::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Sample s;
    s.at_ns = NowNs();
    if (ReadCpuTicks(&s.steal, &s.total)) {
      std::lock_guard lock(mu_);
      samples_.push_back(s);
    }
    std::this_thread::sleep_for(kSampleEvery);
  }
}

double StealMonitor::StealShare(std::int64_t from_ns,
                                std::int64_t to_ns) const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  // The samples bracketing [from, to]: the last at or before `from` and
  // the first at or after `to` (clamped to the ends).
  const auto after = [](std::int64_t t, const Sample& s) {
    return t < s.at_ns;
  };
  auto lo = std::upper_bound(samples_.begin(), samples_.end(), from_ns,
                             after);
  if (lo != samples_.begin()) --lo;
  auto hi = std::upper_bound(samples_.begin(), samples_.end(), to_ns - 1,
                             after);
  if (hi == samples_.end()) --hi;
  if (hi->total <= lo->total) return 0.0;
  return static_cast<double>(hi->steal - lo->steal) /
         static_cast<double>(hi->total - lo->total);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string Fingerprint(std::uint64_t seed, const std::string& workload) {
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"simd\": \""
     << proximity::SimdLevelName(proximity::ActiveSimdLevel())
     << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"proximity_obs\": " << (PROXIMITY_OBS_ENABLED ? "true" : "false")
     << ", \"seed\": " << seed << ", \"workload\": \"" << workload << "\"}";
  return os.str();
}

}  // namespace perfbench
