// Checked flags for the rawchaos, rawsoak and rawstat CLIs and the benches:
// whole counts, lists of them, real values with a range, and arguments the
// program does not take. A value that is not a plain decimal number (a
// typo, a "0x" prefix, trailing junk), that overflows the field, or that
// falls outside the flag's range names the flag, prints the program's usage
// and exits 2, as does an unknown or misspelled flag: a bad argument must
// neither shrink a run to nothing (or silently run the default) and pass
// nor abort deep inside the simulator.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace raw::tools {

/// Reports an argument the program does not take (an unknown flag, or a
/// flag missing its value), calls `usage` and exits 2.
[[noreturn]] inline void unknown_flag(const char* arg, void (*usage)()) {
  std::fprintf(stderr, "unknown option: %s\n", arg);
  usage();
  std::exit(2);
}

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

/// Parses `value` of `flag` as a list of counts >= `min` separated by
/// spaces or commas ("2 4 8", "2,4"), or reports it, calls `usage` and
/// exits 2. An empty list is an error too: it would run nothing and pass.
template <typename T>
std::vector<T> count_list(const char* flag, const char* value,
                          unsigned long long min, void (*usage)()) {
  std::vector<T> out;
  std::string token;
  for (const char* p = value;; ++p) {
    if (*p != ' ' && *p != ',' && *p != '\0') {
      token += *p;
      continue;
    }
    if (!token.empty()) out.push_back(count_flag<T>(flag, token.c_str(), min, usage));
    token.clear();
    if (*p == '\0') break;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s needs at least one whole number >= %llu; got "
                         "'%s'\n", flag, min, value);
    usage();
    std::exit(2);
  }
  return out;
}

/// Parses `value` of `flag` as a decimal real in [min, max] — in (min, max]
/// when `min_open` — or reports it, calls `usage` and exits 2. An infinite
/// `max` leaves the range open above.
inline double real_flag(const char* flag, const char* value, double min,
                        bool min_open, double max, void (*usage)()) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  const bool plain =
      *value != '\0' &&
      std::strspn(value, "0123456789.eE+-") == std::strlen(value);
  if (!plain || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < min || (min_open && v == min) || v > max) {
    if (std::isinf(max)) {
      std::fprintf(stderr, "%s needs a number %s %g; got '%s'\n", flag,
                   min_open ? ">" : ">=", min, value);
    } else {
      std::fprintf(stderr, "%s needs a number in %c%g, %g]; got '%s'\n", flag,
                   min_open ? '(' : '[', min, max, value);
    }
    usage();
    std::exit(2);
  }
  return v;
}

}  // namespace raw::tools
