// key=value configuration parsing for bench/example binaries.
//
// All harness binaries accept overrides as "key=value" command-line
// arguments (e.g. `fig3_mmlu corpus=100000 seeds=3`), so sweeps can be
// re-run at different scales without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace proximity {

class Config {
 public:
  Config() = default;

  /// Parses argv[1..] entries of the form key=value. Arguments that do not
  /// contain '=' are collected as positional arguments. Throws
  /// std::invalid_argument on an empty key.
  static Config FromArgs(int argc, const char* const* argv);

  /// Parses newline-separated key=value text ('#' starts a comment).
  static Config FromString(const std::string& text);

  void Set(std::string key, std::string value);
  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Parses a comma-separated list of doubles, e.g. "0,0.5,1,2,5,10".
  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> fallback) const;
  std::vector<std::int64_t> GetIntList(
      const std::string& key, std::vector<std::int64_t> fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::optional<std::string> Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace proximity
