#include "router/repro.h"

#include <algorithm>

#include "common/json.h"

namespace raw::router {

namespace json = common::json;

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

std::string failure_category(const std::string& failure) {
  return failure.substr(0, failure.find(':'));
}

ChaosSignature signature_of(const ChaosResult& r) {
  return {.pass = r.pass,
          .category = failure_category(r.failure),
          .outcome = r.outcome,
          .stalled_in_run = r.stalled_in_run,
          .degraded = r.degraded,
          .stall_tile = r.stall_tile};
}

std::vector<sim::FaultEvent> make_fault_events(const ChaosSpec& spec) {
  // A scratch router supplies the chip-edge channel names the plan targets.
  RawRouter scratch(router_config_for(spec), net::RouteTable::simple4(),
                    traffic_for(spec), spec.seed);
  return make_fault_plan(spec, scratch).events();
}

void check_schedule(const ChaosSpec& spec,
                    const std::vector<sim::FaultEvent>& events) {
  sim::FaultPlan full(events);
  RawRouter scratch(router_config_for(spec), net::RouteTable::simple4(),
                    traffic_for(spec), spec.seed);
  scratch.set_fault_plan(&full);
}

void append_signature(std::string& s, const ChaosSignature& sig) {
  s += "{\"pass\": ";
  json::append_value(s, sig.pass);
  json::append_field(s, "category", sig.category);
  json::append_field(s, "outcome", drain_outcome_name(sig.outcome));
  json::append_field(s, "stalled_in_run", sig.stalled_in_run);
  json::append_field(s, "degraded", sig.degraded);
  json::append_field(s, "stall_tile", sig.stall_tile);
  s += "}";
}

bool parse_signature(json::Parser& p, ChaosSignature* sig) {
  return p.parse_object([&](const std::string& k) {
    if (k == "outcome") {
      return p.parse_enum(
          &sig->outcome,
          {DrainOutcome::kDrained, DrainOutcome::kLossQuiesced,
           DrainOutcome::kStalled, DrainOutcome::kTimeout,
           DrainOutcome::kDrainedDegraded, DrainOutcome::kInvariantViolation},
          drain_outcome_name, "unknown outcome name");
    }
    if (k == "pass") return p.parse(&sig->pass);
    if (k == "category") return p.parse(&sig->category);
    if (k == "stalled_in_run") return p.parse(&sig->stalled_in_run);
    if (k == "degraded") return p.parse(&sig->degraded);
    if (k == "stall_tile") return p.parse(&sig->stall_tile);
    return p.skip_value();
  });
}

std::string to_json(const ChaosRepro& repro) {
  const ChaosSpec& spec = repro.spec;
  const EnduranceConfig& end = spec.endurance;
  std::string s = "{\n  \"version\": 2,\n  \"spec\": {\"seed\": ";
  json::append_value(s, spec.seed);
  json::append_field(s, "mix", spec.mix.name());
  json::append_field(s, "run_cycles", spec.run_cycles);
  json::append_field(s, "drain_cycles", spec.drain_cycles);
  json::append_field(s, "faults_per_kind", spec.faults_per_kind);
  json::append_field(s, "bytes", spec.bytes);
  json::append_field(s, "load", spec.load);
  json::append_field(s, "reliable_links", spec.reliable_links);
  json::append_field(s, "recovery", spec.recovery);
  json::append_field(s, "force_dense", spec.force_dense);
  json::append_field(s, "traffic_profile", spec.traffic_profile);
  json::append_field(s, "inject_invariant_failure_at",
                     spec.inject_invariant_failure_at);
  s += ", \"endurance\": {\"enabled\": ";
  json::append_value(s, end.enabled);
  json::append_field(s, "invariant_cadence", end.invariant_cadence);
  json::append_field(s, "checkpoint_interval", end.checkpoint_interval);
  json::append_field(s, "checkpoint_ring", end.checkpoint_ring);
  s += "}},\n  \"signature\": ";
  append_signature(s, repro.signature);
  s += ",\n  \"digest\": ";
  json::append_hex64(s, repro.digest);
  s += ",\n  \"failure\": {\"detail\": ";
  json::append_escaped(s, repro.failure);
  json::append_field(s, "cycle", repro.failure_cycle);
  s += "},\n  \"soak\": {\"epoch\": ";
  json::append_value(s, repro.soak_epoch);
  json::append_field(s, "start_cycle", repro.soak_start_cycle);
  s += "},\n  \"anchors\": [";
  for (std::size_t n = 0; n < repro.anchors.size(); ++n) {
    const sim::Checkpoint& a = repro.anchors[n];
    s += n == 0 ? "\n    {\"cycle\": " : ",\n    {\"cycle\": ";
    json::append_value(s, a.cycle);
    s += ", \"chip_digest\": ";
    json::append_hex64(s, a.chip_digest);
    s += ", \"router_digest\": ";
    json::append_hex64(s, a.owner_digest);
    s += "}";
  }
  s += "\n  ],\n  \"events\": [";
  for (std::size_t n = 0; n < repro.events.size(); ++n) {
    s += n == 0 ? "\n    " : ",\n    ";
    sim::append_fault_event(s, repro.events[n]);
  }
  s += "\n  ]\n}\n";
  return s;
}

bool from_json(const std::string& text, ChaosRepro* out, std::string* error) {
  json::Parser p{text};
  ChaosRepro repro;
  ChaosSpec& spec = repro.spec;

  const auto parse_spec = [&](const std::string& k) {
    if (k == "mix") {
      std::string name;
      return p.parse(&name) &&
             (parse_mix(name, &spec.mix) || p.reject("unknown mix name"));
    }
    if (k == "seed") return p.parse(&spec.seed);
    if (k == "run_cycles") return p.parse(&spec.run_cycles);
    if (k == "drain_cycles") return p.parse(&spec.drain_cycles);
    if (k == "faults_per_kind") return p.parse(&spec.faults_per_kind);
    if (k == "bytes") return p.parse(&spec.bytes);
    if (k == "load") return p.parse(&spec.load);
    if (k == "reliable_links") return p.parse(&spec.reliable_links);
    if (k == "recovery") return p.parse(&spec.recovery);
    if (k == "force_dense") return p.parse(&spec.force_dense);
    if (k == "traffic_profile") return p.parse(&spec.traffic_profile);
    if (k == "inject_invariant_failure_at") {
      return p.parse(&spec.inject_invariant_failure_at);
    }
    if (k == "endurance") {
      EnduranceConfig& end = spec.endurance;
      return p.parse_object([&](const std::string& ek) {
        if (ek == "enabled") return p.parse(&end.enabled);
        if (ek == "invariant_cadence") return p.parse(&end.invariant_cadence);
        if (ek == "checkpoint_interval") return p.parse(&end.checkpoint_interval);
        if (ek == "checkpoint_ring") return p.parse(&end.checkpoint_ring);
        return p.skip_value();  // older bundles' capture-grace key too
      });
    }
    return p.skip_value();  // "threads" in older bundles, and future fields
  };
  const auto parse_anchor = [&] {
    sim::Checkpoint a;
    const bool ok = p.parse_object([&](const std::string& k) {
      if (k == "cycle") return p.parse(&a.cycle);
      if (k == "chip_digest") return p.parse_hex64(&a.chip_digest);
      if (k == "router_digest") return p.parse_hex64(&a.owner_digest);
      return p.skip_value();
    });
    repro.anchors.push_back(a);
    return ok;
  };
  const bool ok = p.parse_object([&](const std::string& key) {
    if (key == "version") {
      int version = 0;
      return p.parse(&version) &&
             (version == 1 || version == 2 ||
              p.reject("unknown chip bundle version " +
                       std::to_string(version)));
    }
    if (key == "spec") return p.parse_object(parse_spec);
    if (key == "signature") return parse_signature(p, &repro.signature);
    if (key == "digest") return p.parse_hex64(&repro.digest);
    if (key == "failure") {
      return p.parse_object([&](const std::string& k) {
        if (k == "detail") return p.parse(&repro.failure);
        if (k == "cycle") return p.parse(&repro.failure_cycle);
        return p.skip_value();
      });
    }
    if (key == "soak") {
      return p.parse_object([&](const std::string& k) {
        if (k == "epoch") return p.parse(&repro.soak_epoch);
        if (k == "start_cycle") return p.parse(&repro.soak_start_cycle);
        return p.skip_value();
      });
    }
    if (key == "anchors") return p.parse_array(parse_anchor);
    if (key == "events") {
      return p.parse_array(
          [&] { return sim::parse_fault_event(p, &repro.events.emplace_back()); });
    }
    return p.skip_value();
  });
  if (!p.finish(ok, error)) return false;
  *out = std::move(repro);
  return true;
}

std::string replay_mismatch(const ChaosResult& r, const ReproRecord& want) {
  // Digests as the bundle spells them, so a mismatch can be found in it.
  const auto hex = [](std::uint64_t v) {
    std::string s;
    json::append_hex64(s, v);
    return s;
  };
  const ChaosSignature sig = signature_of(r);
  if (sig != want.signature) {
    return "signature mismatch: replayed " + sig.to_string() +
           ", bundle has " + want.signature.to_string();
  }
  if (r.digest != want.digest) {
    return "digest mismatch: replayed " + hex(r.digest) + ", bundle has " +
           hex(want.digest);
  }
  if (r.invariant_failure_cycle != want.failure_cycle) {
    return "invariant failure at cycle " +
           std::to_string(r.invariant_failure_cycle) + ", bundle has " +
           std::to_string(want.failure_cycle);
  }
  if (r.anchors.size() != want.anchors.size()) {
    return "replay captured " + std::to_string(r.anchors.size()) +
           " anchors, bundle has " + std::to_string(want.anchors.size());
  }
  for (std::size_t i = 0; i < r.anchors.size(); ++i) {
    const sim::Checkpoint& got = r.anchors[i];
    const sim::Checkpoint& a = want.anchors[i];
    if (got == a) continue;
    return "anchor " + std::to_string(i) + " mismatch: replayed cycle " +
           std::to_string(got.cycle) + " chip " + hex(got.chip_digest) +
           " router " + hex(got.owner_digest) + ", bundle has cycle " +
           std::to_string(a.cycle) + " chip " + hex(a.chip_digest) +
           " router " + hex(a.owner_digest);
  }
  return "";
}

std::vector<sim::FaultEvent> ddmin(
    const std::vector<sim::FaultEvent>& events,
    const std::function<bool(const std::vector<sim::FaultEvent>&)>& reproduces,
    MinimizeStats* stats) {
  using Events = std::vector<sim::FaultEvent>;
  MinimizeStats local;
  MinimizeStats& st = stats != nullptr ? *stats : local;
  st.original_events = events.size();
  st.runs = 0;
  const auto test = [&](const Events& subset) {
    ++st.runs;
    return reproduces(subset);
  };

  // Split into n chunks, try each chunk alone, then each complement; on a
  // reduction restart with finer or coarser granularity, stop when chunks
  // are single events and nothing reduces.
  Events current = events;
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
      return Events(current.begin() + static_cast<std::ptrdiff_t>(b),
                    current.begin() + static_cast<std::ptrdiff_t>(e));
    };

    bool reduced = false;
    for (const auto& [b, e] : chunks) {
      Events subset = slice(b, e);
      if (test(subset)) {
        current = std::move(subset);
        n = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced && n > 2) {
      for (const auto& [b, e] : chunks) {
        Events complement = slice(0, b);
        Events tail = slice(e, sz);
        complement.insert(complement.end(), tail.begin(), tail.end());
        if (test(complement)) {
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
