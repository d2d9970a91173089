// Strict numeric flag values for the command-line tools (vbatch_cli,
// trace_replay): the whole value must parse as a number of the flag's type,
// or the tool prints the flag and the offending value and exits 2. Unlike
// atoi/atof, "zz" is not 0 and "5x" is not 5.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace vbatch::cli {

/// Parses `text`, the value given to `flag`, as a T (an integer or a
/// floating-point type). Empty, non-numeric, out-of-range and
/// trailing-garbage values exit 2 with a message naming the flag.
template <typename T>
T number(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  T value{};
  bool in_range = true;
  if constexpr (std::is_floating_point_v<T>) {
    value = static_cast<T>(std::strtod(text, &end));
  } else if constexpr (std::is_unsigned_v<T>) {
    value = static_cast<T>(std::strtoull(text, &end, 10));
  } else {
    const long long v = std::strtoll(text, &end, 10);
    in_range = v >= std::numeric_limits<T>::min() && v <= std::numeric_limits<T>::max();
    value = static_cast<T>(v);
  }
  if (*text == '\0' || end == text || *end != '\0' || errno == ERANGE || !in_range) {
    std::fprintf(stderr, "%s: expected %s, got '%s'\n", flag.c_str(),
                 std::is_floating_point_v<T> ? "a number" : "an integer", text);
    std::exit(2);
  }
  return value;
}

}  // namespace vbatch::cli
