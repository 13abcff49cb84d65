#include "common/json.h"

#include <cstdio>

namespace raw::common::json {

void append_escaped(std::string& s, std::string_view v) {
  s += '"';
  for (const char c : v) {
    switch (c) {
      case '"': s += "\\\""; break;
      case '\\': s += "\\\\"; break;
      case '\n': s += "\\n"; break;
      case '\t': s += "\\t"; break;
      case '\r': s += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          s += buf;
        } else {
          s += c;
        }
    }
  }
  s += '"';
}

void append_double(std::string& s, double v, int precision) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  s += buf;
}

void append_hex64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  s += buf;
}

bool Parser::fail(const std::string& what) {
  if (err.empty()) err = what + " at offset " + std::to_string(i);
  return false;
}

bool Parser::reject(const std::string& what) {
  if (err.empty()) err = what;
  return false;
}

void Parser::skip_ws() {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r' || s[i] == ',')) {
    ++i;
  }
}

bool Parser::consume(char c) {
  skip_ws();
  if (i < s.size() && s[i] == c) {
    ++i;
    return true;
  }
  return fail(std::string("expected '") + c + "'");
}

bool Parser::peek(char c) {
  skip_ws();
  return i < s.size() && s[i] == c;
}

bool Parser::parse_string(std::string* out) {
  if (!consume('"')) return false;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\' && i < s.size()) {
      const char e = s[i++];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u': {
          // The writer escapes only control characters this way.
          unsigned cp = 0;
          if (i + 4 > s.size()) return fail("bad \\u escape");
          const char* first = s.data() + i;
          const auto [end, ec] = std::from_chars(first, first + 4, cp, 16);
          if (ec != std::errc{} || end != first + 4 || cp >= 0x80) {
            return fail("bad \\u escape");
          }
          i += 4;
          c = static_cast<char>(cp);
          break;
        }
        default: c = e; break;  // \" \\ and anything else literal
      }
    }
    *out += c;
  }
  if (i >= s.size()) return fail("unterminated string");
  ++i;  // closing quote
  return true;
}

bool Parser::parse_double(double* out) {
  skip_ws();
  const char* first = s.data() + i;
  const auto [end, ec] = std::from_chars(first, s.data() + s.size(), *out);
  if (ec != std::errc{}) return fail("expected number");
  i += static_cast<std::size_t>(end - first);
  return true;
}

bool Parser::parse_bool(bool* out) {
  skip_ws();
  if (s.substr(i, 4) == "true") {
    i += 4;
    *out = true;
    return true;
  }
  if (s.substr(i, 5) == "false") {
    i += 5;
    *out = false;
    return true;
  }
  return fail("expected boolean");
}

bool Parser::parse_hex64(std::uint64_t* out) {
  std::string hex;
  if (!parse_string(&hex)) return false;
  const std::string_view digits =
      hex.starts_with("0x") ? std::string_view(hex).substr(2) : hex;
  const auto [end, ec] = std::from_chars(
      digits.data(), digits.data() + digits.size(), *out, 16);
  if (ec != std::errc{} || end != digits.data() + digits.size()) {
    return fail("expected hex string");
  }
  return true;
}

bool Parser::skip_value() {
  skip_ws();
  if (i >= s.size()) return fail("expected value");
  if (s[i] == '"') {
    std::string dummy;
    return parse_string(&dummy);
  }
  if (s[i] == '{') {
    return parse_object([this](const std::string&) { return skip_value(); });
  }
  if (s[i] == '[') return parse_array([this] { return skip_value(); });
  if (s[i] == 't' || s[i] == 'f') {
    bool dummy = false;
    return parse_bool(&dummy);
  }
  double dummy = 0;
  return parse_double(&dummy);
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace raw::common::json
