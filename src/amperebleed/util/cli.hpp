#pragma once
// Minimal command-line flag parsing for the bench/example binaries:
// --name value or --name=value. Positional (non-flag) arguments throw, and
// get_int/get_double reject values with unparsed trailing characters
// ("--threads 4abc", "--rate 0.1x") instead of silently truncating them.
// Unknown flags are NOT diagnosed — CliArgs has no schema to check against.
// Header-only.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace amperebleed::util {

/// Parses all of `text` as an integer, base 0 so hex seeds (0xfa17) parse as
/// intended instead of silently stopping at the 'x'. Trailing characters,
/// an empty string or an out-of-range value throw std::invalid_argument
/// naming `source` (a flag or an environment variable) and the value.
[[nodiscard]] inline std::int64_t parse_int(std::string_view source,
                                            const std::string& text) {
  std::size_t consumed = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &consumed, 0);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != text.size()) {
    throw std::invalid_argument("invalid value for " + std::string(source) +
                                ": '" + text + "'");
  }
  return value;
}

class CliArgs {
 public:
  CliArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected positional argument: " +
                                    std::string(arg));
      }
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(arg.substr(0, eq))] =
            std::string(arg.substr(eq + 1));
      } else if (i + 1 < argc &&
                 std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        values_[std::string(arg)] = argv[++i];
      } else {
        values_[std::string(arg)] = std::string("1");  // boolean flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return parse_int("--" + name, it->second);
  }

  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(it->second, &consumed);
    } catch (const std::exception&) {
      throw invalid_value(name, it->second);
    }
    if (consumed != it->second.size()) throw invalid_value(name, it->second);
    return value;
  }

  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  [[nodiscard]] static std::invalid_argument invalid_value(
      const std::string& name, const std::string& value) {
    return std::invalid_argument("invalid value for --" + name + ": '" +
                                 value + "'");
  }

  std::map<std::string, std::string> values_;
};

}  // namespace amperebleed::util
