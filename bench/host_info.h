// Host fingerprint for the committed BENCH_*.json files: core count and
// CPU model next to the SIMD level, so a number says which machine
// produced it.
#pragma once

#include <fstream>
#include <string>
#include <thread>

namespace proximity {

/// The CPU model from /proc/cpuinfo ("model name" on x86, "Model" on
/// aarch64); "unknown" where neither is present.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0 && line.rfind("Model", 0) != 0) {
      continue;
    }
    const auto start = line.find_first_not_of(" \t", line.find(':') + 1);
    if (line.find(':') == std::string::npos || start == std::string::npos) {
      continue;
    }
    std::string value = line.substr(start);
    for (char& c : value) {
      if (c == '"' || c == '\\') c = ' ';  // keeps the JSON string valid
    }
    return value;
  }
  return "unknown";
}

/// `"host": {"cores": N, "cpu_model": "..."}`, one JSON object member.
inline std::string HostJson() {
  return "\"host\": {\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + CpuModel() + "\"}";
}

}  // namespace proximity
