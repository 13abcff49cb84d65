// The one JSON codec: append helpers for the hand-laid-out documents the
// simulator writes (repro bundles, soak reports, metric dumps), a minimal
// recursive-descent reader, and the file helpers those documents go
// through. There is no document model: writers keep byte-exact control of
// layout, and readers walk objects key by key into typed fields. Integers
// are read exactly — a 64-bit seed never passes through a double.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

namespace raw::common::json {

/// Appends `v` as a quoted JSON string: `"` and `\` are escaped, \n \t \r
/// use their short forms, and other control characters become \u00XX.
void append_escaped(std::string& s, std::string_view v);

/// Appends a double with `precision` significant digits (the default, 17,
/// round-trips every double exactly).
void append_double(std::string& s, double v, int precision = 17);

/// Appends a 64-bit value as a quoted "0x%016llx" string: digests exceed
/// JSON's interoperable integer range.
void append_hex64(std::string& s, std::uint64_t v);

/// Appends a bool, an integer (exact), a double (%.17g) or a string.
template <typename T>
void append_value(std::string& s, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    s += v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    s += std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(s, v);
  } else {
    append_escaped(s, v);
  }
}

/// Appends `<sep>"key": value` — a non-first field; `sep` is ", " inside a
/// one-line object and ",\n  " between a document's top-level fields.
template <typename T>
void append_field(std::string& s, std::string_view key, const T& v,
                  std::string_view sep = ", ") {
  s += sep;
  s += '"';
  s += key;
  s += "\": ";
  append_value(s, v);
}

/// Reader over objects, arrays, strings (with every escape append_escaped
/// emits), numbers and booleans. Commas count as whitespace; callers skip
/// unknown keys with skip_value so schemas can grow.
struct Parser {
  explicit Parser(std::string_view text) : s(text) {}

  std::string_view s;
  std::size_t i = 0;
  std::string err;

  /// Records a syntax error (with its offset); always returns false.
  bool fail(const std::string& what);
  /// Records a semantic error verbatim (unknown name, bad marker); always
  /// returns false.
  bool reject(const std::string& what);
  /// Returns `ok`, first copying the recorded error into `*error` (when
  /// non-null) if it is false.
  bool finish(bool ok, std::string* error) const {
    if (!ok && error != nullptr) *error = err;
    return ok;
  }

  void skip_ws();
  bool consume(char c);
  bool peek(char c);

  bool parse_string(std::string* out);
  bool parse_double(double* out);
  bool parse_bool(bool* out);
  /// A quoted hex string, as append_hex64 writes it.
  bool parse_hex64(std::uint64_t* out);
  bool skip_value();

  /// Dispatches on the target type: bool, double, string, or an integer
  /// read exactly (no fraction, no exponent, in range for T).
  template <typename T>
  bool parse(T* out) {
    if constexpr (std::is_same_v<T, bool>) {
      return parse_bool(out);
    } else if constexpr (std::is_integral_v<T>) {
      skip_ws();
      const char* first = s.data() + i;
      const char* last = s.data() + s.size();
      const auto [end, ec] = std::from_chars(first, last, *out);
      if (ec != std::errc{} ||
          (end != last && (*end == '.' || *end == 'e' || *end == 'E'))) {
        return fail("expected integer");
      }
      i += static_cast<std::size_t>(end - first);
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      return parse_double(out);
    } else {
      return parse_string(out);
    }
  }

  /// A string naming one of `values` (as `name_of` names them); any other
  /// name is rejected with `what`.
  template <typename E, typename NameOf>
  bool parse_enum(E* out, std::initializer_list<E> values, NameOf&& name_of,
                  const char* what) {
    std::string name;
    if (!parse_string(&name)) return false;
    for (const E v : values) {
      if (name == name_of(v)) {
        *out = v;
        return true;
      }
    }
    return reject(what);
  }

  /// Iterates `{ "key": value, ... }`, calling `on_field(key)` with the
  /// cursor positioned at the value. on_field must consume the value.
  template <typename F>
  bool parse_object(F&& on_field) {
    if (!consume('{')) return false;
    while (!peek('}')) {
      std::string key;
      if (!parse_string(&key) || !consume(':')) return false;
      if (!on_field(key)) return false;
    }
    return consume('}');
  }

  /// Iterates `[ elem, ... ]`, calling `on_element()` with the cursor at
  /// each element. on_element must consume it.
  template <typename F>
  bool parse_array(F&& on_element) {
    if (!consume('[')) return false;
    while (!peek(']')) {
      if (!on_element()) return false;
    }
    return consume(']');
  }
};

/// Reads a whole file; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Writes (truncating) a whole file; false when it cannot be written.
bool write_file(const std::string& path, std::string_view text);

}  // namespace raw::common::json
