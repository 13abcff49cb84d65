#include "router/repro.h"

#include <cstdio>
#include <cstdlib>

#include "common/assert.h"

namespace raw::router {
namespace {

// ---------------------------------------------------------------------------
// JSON writing. The schema is small and fixed, so the writer is a handful of
// append helpers (sequential appends — see config_space.cc on -Wrestrict).

void append_escaped(std::string& s, const std::string& v) {
  s += '"';
  for (const char c : v) {
    switch (c) {
      case '"': s += "\\\""; break;
      case '\\': s += "\\\\"; break;
      case '\n': s += "\\n"; break;
      case '\t': s += "\\t"; break;
      case '\r': s += "\\r"; break;
      default: s += c; break;
    }
  }
  s += '"';
}

void append_double(std::string& s, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

void append_hex64(std::string& s, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  s += '"';
  s += buf;
  s += '"';
}

// ---------------------------------------------------------------------------
// JSON reading: a minimal recursive-descent parser covering exactly what
// to_json emits (objects, arrays, strings with the escapes above, numbers,
// booleans). Unknown keys are skipped so the schema can grow.

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty()) err = what + " at offset " + std::to_string(i);
    return false;
  }
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r' || s[i] == ',')) {
      ++i;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool peek(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }

  bool parse_string(std::string* out) {
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
          default: c = e; break;  // \" \\ and anything else literal
        }
      }
      *out += c;
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    return true;
  }

  bool parse_number(double* out) {
    skip_ws();
    const std::size_t start = i;
    while (i < s.size() &&
           (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || (s[i] >= '0' && s[i] <= '9'))) {
      ++i;
    }
    if (i == start) return fail("expected number");
    *out = std::strtod(s.c_str() + start, nullptr);
    return true;
  }

  /// Exact unsigned-64 parse: a plain digit run goes through strtoull so
  /// full-width values (splitmix64 soak seeds) keep their low bits — a
  /// double's 53-bit mantissa silently rounds them, which breaks replay.
  bool parse_u64(std::uint64_t* out) {
    skip_ws();
    const std::size_t start = i;
    while (i < s.size() &&
           (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || (s[i] >= '0' && s[i] <= '9'))) {
      ++i;
    }
    if (i == start) return fail("expected number");
    const std::string tok = s.substr(start, i - start);
    if (tok.find_first_not_of("0123456789") == std::string::npos) {
      *out = std::strtoull(tok.c_str(), nullptr, 10);
    } else {
      *out = static_cast<std::uint64_t>(std::strtod(tok.c_str(), nullptr));
    }
    return true;
  }

  bool parse_bool(bool* out) {
    skip_ws();
    if (s.compare(i, 4, "true") == 0) {
      i += 4;
      *out = true;
      return true;
    }
    if (s.compare(i, 5, "false") == 0) {
      i += 5;
      *out = false;
      return true;
    }
    return fail("expected boolean");
  }

  bool skip_value() {
    skip_ws();
    if (i >= s.size()) return fail("expected value");
    if (s[i] == '"') {
      std::string dummy;
      return parse_string(&dummy);
    }
    if (s[i] == '{' || s[i] == '[') {
      const char open = s[i];
      const char close = open == '{' ? '}' : ']';
      ++i;
      int depth = 1;
      while (i < s.size() && depth > 0) {
        if (s[i] == '"') {
          std::string dummy;
          if (!parse_string(&dummy)) return false;
          continue;
        }
        if (s[i] == open) ++depth;
        if (s[i] == close) --depth;
        ++i;
      }
      return depth == 0 || fail("unterminated container");
    }
    if (s.compare(i, 4, "true") == 0 || s.compare(i, 5, "false") == 0) {
      bool dummy = false;
      return parse_bool(&dummy);
    }
    double dummy = 0;
    return parse_number(&dummy);
  }

  /// Iterates `{ "key": value, ... }`, calling `on_field(key)` with the
  /// cursor positioned at the value. on_field must consume the value.
  template <typename F>
  bool parse_object(F&& on_field) {
    if (!consume('{')) return false;
    while (!peek('}')) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (!consume(':')) return false;
      if (!on_field(key)) return false;
    }
    return consume('}');
  }
};

bool outcome_from_name(const std::string& name, DrainOutcome* out) {
  for (const DrainOutcome o :
       {DrainOutcome::kDrained, DrainOutcome::kLossQuiesced,
        DrainOutcome::kStalled, DrainOutcome::kTimeout,
        DrainOutcome::kDrainedDegraded, DrainOutcome::kInvariantViolation}) {
    if (name == drain_outcome_name(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

bool kind_from_name(const std::string& name, sim::FaultKind* out) {
  for (const sim::FaultKind k :
       {sim::FaultKind::kBitFlip, sim::FaultKind::kLinkStall,
        sim::FaultKind::kTileFreeze, sim::FaultKind::kOverrun}) {
    if (name == sim::fault_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string ChaosSignature::to_string() const {
  std::string s = pass ? "pass" : "FAIL";
  if (!pass) {
    s += '(';
    s += category;
    s += ')';
  }
  s += " outcome=";
  s += drain_outcome_name(outcome);
  if (stalled_in_run) s += " stalled_in_run";
  if (degraded) s += " degraded";
  if (stall_tile >= 0) {
    s += " frozen_tile=";
    s += std::to_string(stall_tile);
  }
  return s;
}

ChaosSignature signature_of(const ChaosResult& r) {
  ChaosSignature s;
  s.pass = r.pass;
  s.category = r.failure.substr(0, r.failure.find(':'));
  s.outcome = r.outcome;
  s.stalled_in_run = r.stalled_in_run;
  s.degraded = r.degraded;
  s.stall_tile = r.stall_tile;
  return s;
}

std::string to_json(const ChaosRepro& repro) {
  std::string s = "{\n  \"version\": 2,\n  \"spec\": {\"seed\": ";
  s += std::to_string(repro.spec.seed);
  s += ", \"mix\": ";
  append_escaped(s, repro.spec.mix.name());
  s += ", \"run_cycles\": ";
  s += std::to_string(repro.spec.run_cycles);
  s += ", \"drain_cycles\": ";
  s += std::to_string(repro.spec.drain_cycles);
  s += ", \"faults_per_kind\": ";
  s += std::to_string(repro.spec.faults_per_kind);
  s += ", \"bytes\": ";
  s += std::to_string(repro.spec.bytes);
  s += ", \"load\": ";
  append_double(s, repro.spec.load);
  s += ", \"reliable_links\": ";
  s += repro.spec.reliable_links ? "true" : "false";
  s += ", \"recovery\": ";
  s += repro.spec.recovery ? "true" : "false";
  s += ", \"force_dense\": ";
  s += repro.spec.force_dense ? "true" : "false";
  s += ", \"traffic_profile\": ";
  append_escaped(s, repro.spec.traffic_profile);
  s += ", \"inject_invariant_failure_at\": ";
  s += std::to_string(repro.spec.inject_invariant_failure_at);
  s += ", \"endurance\": {\"enabled\": ";
  s += repro.spec.endurance.enabled ? "true" : "false";
  s += ", \"invariant_cadence\": ";
  s += std::to_string(repro.spec.endurance.invariant_cadence);
  s += ", \"checkpoint_interval\": ";
  s += std::to_string(repro.spec.endurance.checkpoint_interval);
  s += ", \"checkpoint_ring\": ";
  s += std::to_string(repro.spec.endurance.checkpoint_ring);
  s += ", \"checkpoint_grace\": ";
  s += std::to_string(repro.spec.endurance.checkpoint_grace);
  s += "}},\n  \"signature\": {\"pass\": ";
  s += repro.signature.pass ? "true" : "false";
  s += ", \"category\": ";
  append_escaped(s, repro.signature.category);
  s += ", \"outcome\": ";
  append_escaped(s, drain_outcome_name(repro.signature.outcome));
  s += ", \"stalled_in_run\": ";
  s += repro.signature.stalled_in_run ? "true" : "false";
  s += ", \"degraded\": ";
  s += repro.signature.degraded ? "true" : "false";
  s += ", \"stall_tile\": ";
  s += std::to_string(repro.signature.stall_tile);
  s += "},\n  \"digest\": ";
  append_hex64(s, repro.digest);
  s += ",\n  \"failure\": {\"detail\": ";
  append_escaped(s, repro.failure);
  s += ", \"cycle\": ";
  s += std::to_string(repro.failure_cycle);
  s += "},\n  \"soak\": {\"epoch\": ";
  s += std::to_string(repro.soak_epoch);
  s += ", \"start_cycle\": ";
  s += std::to_string(repro.soak_start_cycle);
  s += "},\n  \"anchors\": [";
  for (std::size_t n = 0; n < repro.anchors.size(); ++n) {
    const ReplayAnchor& a = repro.anchors[n];
    s += n == 0 ? "\n" : ",\n";
    s += "    {\"cycle\": ";
    s += std::to_string(a.cycle);
    s += ", \"chip_digest\": ";
    append_hex64(s, a.chip_digest);
    s += ", \"router_digest\": ";
    append_hex64(s, a.router_digest);
    s += "}";
  }
  s += "\n  ],\n  \"events\": [";
  for (std::size_t n = 0; n < repro.events.size(); ++n) {
    const sim::FaultEvent& e = repro.events[n];
    s += n == 0 ? "\n" : ",\n";
    s += "    {\"kind\": ";
    append_escaped(s, sim::fault_kind_name(e.kind));
    s += ", \"at\": ";
    s += std::to_string(e.at);
    s += ", \"duration\": ";
    s += std::to_string(e.duration);
    s += ", \"permanent\": ";
    s += e.permanent ? "true" : "false";
    s += ", \"channel\": ";
    append_escaped(s, e.channel);
    s += ", \"tile\": ";
    s += std::to_string(e.tile);
    s += ", \"port\": ";
    s += std::to_string(e.port);
    s += ", \"bit\": ";
    s += std::to_string(e.bit);
    s += ", \"factor\": ";
    s += std::to_string(e.factor);
    s += "}";
  }
  s += "\n  ]\n}\n";
  return s;
}

bool from_json(const std::string& text, ChaosRepro* out, std::string* error) {
  Parser p{text, 0, {}};
  ChaosRepro repro;
  bool mix_ok = true;
  bool outcome_ok = true;
  bool kinds_ok = true;

  const bool ok = p.parse_object([&](const std::string& key) {
    if (key == "spec") {
      return p.parse_object([&](const std::string& k) {
        double num = 0;
        std::string str;
        if (k == "mix") {
          if (!p.parse_string(&str)) return false;
          mix_ok = parse_mix(str, &repro.spec.mix);
          return true;
        }
        if (k == "seed") return p.parse_u64(&repro.spec.seed);
        if (k == "reliable_links") return p.parse_bool(&repro.spec.reliable_links);
        if (k == "recovery") return p.parse_bool(&repro.spec.recovery);
        if (k == "force_dense") return p.parse_bool(&repro.spec.force_dense);
        if (k == "traffic_profile") return p.parse_string(&repro.spec.traffic_profile);
        if (k == "endurance") {
          return p.parse_object([&](const std::string& ek) {
            if (ek == "enabled") return p.parse_bool(&repro.spec.endurance.enabled);
            double en = 0;
            if (!p.parse_number(&en)) return false;
            if (ek == "invariant_cadence") repro.spec.endurance.invariant_cadence = static_cast<common::Cycle>(en);
            else if (ek == "checkpoint_interval") repro.spec.endurance.checkpoint_interval = static_cast<common::Cycle>(en);
            else if (ek == "checkpoint_ring") repro.spec.endurance.checkpoint_ring = static_cast<std::size_t>(en);
            else if (ek == "checkpoint_grace") repro.spec.endurance.checkpoint_grace = static_cast<common::Cycle>(en);
            return true;
          });
        }
        if (!p.parse_number(&num)) return false;
        if (k == "run_cycles") repro.spec.run_cycles = static_cast<common::Cycle>(num);
        else if (k == "drain_cycles") repro.spec.drain_cycles = static_cast<common::Cycle>(num);
        else if (k == "faults_per_kind") repro.spec.faults_per_kind = static_cast<int>(num);
        else if (k == "bytes") repro.spec.bytes = static_cast<common::ByteCount>(num);
        else if (k == "load") repro.spec.load = num;
        else if (k == "inject_invariant_failure_at") repro.spec.inject_invariant_failure_at = static_cast<common::Cycle>(num);
        return true;  // unknown numeric field: already consumed
      });
    }
    if (key == "signature") {
      return p.parse_object([&](const std::string& k) {
        if (k == "pass") return p.parse_bool(&repro.signature.pass);
        if (k == "category") return p.parse_string(&repro.signature.category);
        if (k == "outcome") {
          std::string str;
          if (!p.parse_string(&str)) return false;
          outcome_ok = outcome_from_name(str, &repro.signature.outcome);
          return true;
        }
        if (k == "stalled_in_run") return p.parse_bool(&repro.signature.stalled_in_run);
        if (k == "degraded") return p.parse_bool(&repro.signature.degraded);
        if (k == "stall_tile") {
          double num = 0;
          if (!p.parse_number(&num)) return false;
          repro.signature.stall_tile = static_cast<int>(num);
          return true;
        }
        return p.skip_value();
      });
    }
    if (key == "digest") {
      std::string str;
      if (!p.parse_string(&str)) return false;
      repro.digest = std::strtoull(str.c_str(), nullptr, 16);
      return true;
    }
    if (key == "failure") {
      return p.parse_object([&](const std::string& k) {
        if (k == "detail") return p.parse_string(&repro.failure);
        if (k == "cycle") {
          double num = 0;
          if (!p.parse_number(&num)) return false;
          repro.failure_cycle = static_cast<common::Cycle>(num);
          return true;
        }
        return p.skip_value();
      });
    }
    if (key == "soak") {
      return p.parse_object([&](const std::string& k) {
        double num = 0;
        if (!p.parse_number(&num)) return false;
        if (k == "epoch") repro.soak_epoch = static_cast<std::int64_t>(num);
        else if (k == "start_cycle") repro.soak_start_cycle = static_cast<common::Cycle>(num);
        return true;
      });
    }
    if (key == "anchors") {
      if (!p.consume('[')) return false;
      while (!p.peek(']')) {
        ReplayAnchor a;
        const bool field_ok = p.parse_object([&](const std::string& k) {
          if (k == "cycle") {
            double num = 0;
            if (!p.parse_number(&num)) return false;
            a.cycle = static_cast<common::Cycle>(num);
            return true;
          }
          std::string str;
          if (!p.parse_string(&str)) return false;
          const std::uint64_t v = std::strtoull(str.c_str(), nullptr, 16);
          if (k == "chip_digest") a.chip_digest = v;
          else if (k == "router_digest") a.router_digest = v;
          return true;
        });
        if (!field_ok) return false;
        repro.anchors.push_back(a);
      }
      return p.consume(']');
    }
    if (key == "events") {
      if (!p.consume('[')) return false;
      while (!p.peek(']')) {
        sim::FaultEvent e;
        const bool field_ok = p.parse_object([&](const std::string& k) {
          double num = 0;
          std::string str;
          if (k == "kind") {
            if (!p.parse_string(&str)) return false;
            kinds_ok = kinds_ok && kind_from_name(str, &e.kind);
            return true;
          }
          if (k == "channel") return p.parse_string(&e.channel);
          if (k == "permanent") return p.parse_bool(&e.permanent);
          if (!p.parse_number(&num)) return false;
          if (k == "at") e.at = static_cast<common::Cycle>(num);
          else if (k == "duration") e.duration = static_cast<std::uint64_t>(num);
          else if (k == "tile") e.tile = static_cast<int>(num);
          else if (k == "port") e.port = static_cast<int>(num);
          else if (k == "bit") e.bit = static_cast<std::uint32_t>(num);
          else if (k == "factor") e.factor = static_cast<std::uint32_t>(num);
          return true;
        });
        if (!field_ok) return false;
        repro.events.push_back(std::move(e));
      }
      return p.consume(']');
    }
    return p.skip_value();  // "version" and future fields
  });

  if (!ok) {
    if (error != nullptr) *error = p.err.empty() ? "malformed JSON" : p.err;
    return false;
  }
  if (!mix_ok) {
    if (error != nullptr) *error = "unknown mix name";
    return false;
  }
  if (!outcome_ok) {
    if (error != nullptr) *error = "unknown outcome name";
    return false;
  }
  if (!kinds_ok) {
    if (error != nullptr) *error = "unknown fault kind";
    return false;
  }
  *out = std::move(repro);
  return true;
}

std::vector<sim::FaultEvent> minimize_events(
    const ChaosSpec& spec, const std::vector<sim::FaultEvent>& events,
    const ChaosSignature& target, MinimizeStats* stats) {
  MinimizeStats local;
  MinimizeStats& st = stats != nullptr ? *stats : local;
  st.original_events = events.size();
  st.runs = 0;

  const auto reproduces = [&](const std::vector<sim::FaultEvent>& subset) {
    ++st.runs;
    return signature_of(run_chaos_events(spec, subset)) == target;
  };

  // Classic ddmin (Zeller & Hildebrandt): split into n chunks, try each
  // chunk alone, then each complement; on a reduction restart with finer or
  // coarser granularity, stop when chunks are single events and nothing
  // reduces.
  std::vector<sim::FaultEvent> current = events;
  std::size_t n = 2;
  while (current.size() >= 2) {
    const std::size_t sz = current.size();
    n = std::min(n, sz);
    const std::size_t base = sz / n;
    const std::size_t rem = sz % n;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;  // [begin, end)
    for (std::size_t k = 0, pos = 0; k < n; ++k) {
      const std::size_t len = base + (k < rem ? 1 : 0);
      chunks.emplace_back(pos, pos + len);
      pos += len;
    }
    const auto slice = [&current](std::size_t b, std::size_t e) {
      return std::vector<sim::FaultEvent>(
          current.begin() + static_cast<std::ptrdiff_t>(b),
          current.begin() + static_cast<std::ptrdiff_t>(e));
    };

    bool reduced = false;
    for (const auto& [b, e] : chunks) {
      std::vector<sim::FaultEvent> subset = slice(b, e);
      if (reproduces(subset)) {
        current = std::move(subset);
        n = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced && n > 2) {
      for (const auto& [b, e] : chunks) {
        std::vector<sim::FaultEvent> complement = slice(0, b);
        std::vector<sim::FaultEvent> tail = slice(e, sz);
        complement.insert(complement.end(), tail.begin(), tail.end());
        if (reproduces(complement)) {
          current = std::move(complement);
          n = std::max<std::size_t>(n - 1, 2);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) {
      if (n >= sz) break;
      n = std::min(sz, n * 2);
    }
  }
  st.minimized_events = current.size();
  return current;
}

}  // namespace raw::router
