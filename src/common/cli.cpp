#include "common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace dfsssp {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t Cli::get_count(const std::string& key, std::uint64_t fallback,
                             std::uint64_t max, std::uint64_t min) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  if (const auto value = parse_count(text, min, max)) return *value;
  std::fprintf(stderr, "--%s=%s: expected a whole number from %llu to %llu\n",
               key.c_str(), text.c_str(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

}  // namespace dfsssp
