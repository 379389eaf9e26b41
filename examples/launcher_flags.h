// Strict command-line flag parsing for the example launchers: a flag's value
// must be present, its whole token must parse, and the number must lie in
// range. Any violation throws a UsageError that names the flag; the
// launchers print it and exit 2.
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>

namespace deltacol::examples {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The token after argv[i] as the value of `flag`; advances i past it.
inline std::string flag_value(int argc, char** argv, int& i,
                              const std::string& flag) {
  if (i + 1 >= argc) throw UsageError(flag + " needs a value");
  return argv[++i];
}

// `text` as a base-10 integer in [lo, hi]: no sign on unsigned types, no
// whitespace, no trailing characters.
template <typename Int>
Int parse_flag_int(const std::string& flag, const std::string& text,
                   Int lo = std::numeric_limits<Int>::min(),
                   Int hi = std::numeric_limits<Int>::max()) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi) {
    throw UsageError(flag + " needs an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

}  // namespace deltacol::examples
