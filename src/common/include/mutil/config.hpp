// Key/value configuration store.
//
// Every framework object (Mimir job, MR-MPI instance, machine profile)
// is configured through a Config so that examples and benchmarks can
// accept "key=value" command-line overrides exactly like the original
// Mimir accepted environment variables.
//
// Process-wide keys honored by the drivers (bench::parse_cli):
//   * stats=1, trace=1, bench_dir=<path> — machine-readable bench
//     metrics and Chrome trace output; see bench/harness.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mutil {

class Config {
 public:
  Config() = default;

  /// Parse a list of "key=value" tokens (e.g. argv tail).
  static Config from_args(const std::vector<std::string>& args);

  void set(std::string key, std::string value);
  bool contains(std::string_view key) const noexcept;

  /// Typed getters; throw ConfigError when present but malformed.
  std::string get_string(std::string_view key,
                         std::string_view fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  double get_double(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;
  /// Accepts size suffixes ("64K", "1G").
  std::uint64_t get_size(std::string_view key, std::uint64_t fallback) const;

  /// Merge other into this, other's entries winning.
  void merge(const Config& other);

  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace mutil
