// Minimal command-line flag parser for the examples and bench binaries.
//
// Supported syntax: --key=value, --key value, and bare --flag (boolean).
// Unknown positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dfsssp {

/// `text` as a whole decimal number in [min, max] (no sign, no other
/// characters), or nullopt: the one strict parse of a count, behind
/// Cli::get_count and the fields of a topology spec.
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min, std::uint64_t max);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// The flag as a whole decimal number in [min, max], `fallback` when it
  /// is absent. Anything else exits 2 naming the flag: a cast would wrap it.
  std::uint64_t get_count(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint32_t>::max(),
      std::uint64_t min = 1) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dfsssp
