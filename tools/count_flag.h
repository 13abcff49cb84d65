// Whole-number count flags for the rawchaos, rawsoak and rawstat CLIs. A
// value that is not a plain decimal number (a typo, a sign, a "0x" prefix,
// trailing junk), that overflows the field, or that is below the flag's
// floor names the flag, prints the tool's usage and exits 2: a bad count
// must neither shrink a run to nothing and pass nor abort deep inside the
// simulator.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace raw::tools {

/// Parses `value` of `flag` as a decimal count in [min, max of T], or
/// reports it, calls `usage` and exits 2.
template <typename T>
T count_flag(const char* flag, const char* value, unsigned long long min,
             void (*usage)()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*value)) || *end != '\0' ||
      errno == ERANGE || v < min ||
      v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s needs a whole number >= %llu that fits the "
                         "field; got '%s'\n", flag, min, value);
    usage();
    std::exit(2);
  }
  return static_cast<T>(v);
}

/// A count that must be at least 1.
template <typename T>
T positive(const char* flag, const char* value, void (*usage)()) {
  return count_flag<T>(flag, value, 1, usage);
}

/// A count where 0 is meaningful (a default, "off", or a zero budget).
template <typename T>
T non_negative(const char* flag, const char* value, void (*usage)()) {
  return count_flag<T>(flag, value, 0, usage);
}

}  // namespace raw::tools
