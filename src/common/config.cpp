#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace proximity {

namespace {
std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

Config Config::FromArgs(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(arg);
    } else {
      cfg.Set(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  return cfg;
}

Config Config::FromString(const std::string& text) {
  Config cfg;
  std::istringstream iss(text);
  std::string line;
  while (std::getline(iss, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(line);
    } else {
      cfg.Set(Trim(line.substr(0, eq)), Trim(line.substr(eq + 1)));
    }
  }
  return cfg;
}

void Config::Set(std::string key, std::string value) {
  if (key.empty()) {
    throw std::invalid_argument("Config: empty key");
  }
  values_[std::move(key)] = std::move(value);
}

bool Config::Has(const std::string& key) const {
  return values_.contains(key);
}

std::optional<std::string> Config::Find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  return Find(key).value_or(fallback);
}

std::int64_t Config::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  auto v = Find(key);
  if (!v) return fallback;
  return std::stoll(*v);
}

double Config::GetDouble(const std::string& key, double fallback) const {
  auto v = Find(key);
  if (!v) return fallback;
  return std::stod(*v);
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  auto v = Find(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("Config: bad bool for key '" + key + "': " + *v);
}

std::vector<double> Config::GetDoubleList(const std::string& key,
                                          std::vector<double> fallback) const {
  auto v = Find(key);
  if (!v) return fallback;
  std::vector<double> out;
  std::istringstream iss(*v);
  std::string item;
  while (std::getline(iss, item, ',')) {
    item = Trim(item);
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

std::vector<std::int64_t> Config::GetIntList(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  auto v = Find(key);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  std::istringstream iss(*v);
  std::string item;
  while (std::getline(iss, item, ',')) {
    item = Trim(item);
    if (!item.empty()) out.push_back(std::stoll(item));
  }
  return out;
}

}  // namespace proximity
