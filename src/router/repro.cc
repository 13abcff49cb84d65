#include "router/repro.h"

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
  ChaosSignature s;
  s.pass = r.pass;
  s.category = failure_category(r.failure);
  s.outcome = r.outcome;
  s.stalled_in_run = r.stalled_in_run;
  s.degraded = r.degraded;
  s.stall_tile = r.stall_tile;
  return s;
}

std::vector<sim::FaultEvent> make_fault_events(const ChaosSpec& spec) {
  // A scratch router supplies the chip-edge channel names the plan targets.
  RawRouter scratch(router_config_for(spec), net::RouteTable::simple4(),
                    traffic_for(spec), spec.seed);
  return make_fault_plan(spec, scratch).events();
}

ChaosRepro make_repro(const ChaosSpec& spec,
                      const std::vector<sim::FaultEvent>& events,
                      const ChaosResult& r) {
  ChaosRepro repro;
  repro.spec = spec;
  repro.spec.monitor = nullptr;
  repro.spec.profiler = nullptr;
  repro.events = events;
  repro.signature = signature_of(r);
  repro.digest = r.digest;
  repro.anchors = r.anchors;
  repro.failure = r.invariant_failure;
  repro.failure_cycle = r.invariant_failure_cycle;
  return repro;
}

std::string to_json(const ChaosRepro& repro) {
  const ChaosSpec& spec = repro.spec;
  const EnduranceConfig& end = spec.endurance;
  const ChaosSignature& sig = repro.signature;
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
  s += "}},\n  \"signature\": {\"pass\": ";
  json::append_value(s, sig.pass);
  json::append_field(s, "category", sig.category);
  json::append_field(s, "outcome", drain_outcome_name(sig.outcome));
  json::append_field(s, "stalled_in_run", sig.stalled_in_run);
  json::append_field(s, "degraded", sig.degraded);
  json::append_field(s, "stall_tile", sig.stall_tile);
  s += "},\n  \"digest\": ";
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
  ChaosSignature& sig = repro.signature;

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
  const auto parse_signature = [&](const std::string& k) {
    if (k == "outcome") {
      return p.parse_enum(
          &sig.outcome,
          {DrainOutcome::kDrained, DrainOutcome::kLossQuiesced,
           DrainOutcome::kStalled, DrainOutcome::kTimeout,
           DrainOutcome::kDrainedDegraded, DrainOutcome::kInvariantViolation},
          drain_outcome_name, "unknown outcome name");
    }
    if (k == "pass") return p.parse(&sig.pass);
    if (k == "category") return p.parse(&sig.category);
    if (k == "stalled_in_run") return p.parse(&sig.stalled_in_run);
    if (k == "degraded") return p.parse(&sig.degraded);
    if (k == "stall_tile") return p.parse(&sig.stall_tile);
    return p.skip_value();
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
    if (key == "signature") return p.parse_object(parse_signature);
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

ChaosResult replay_repro(const ChaosRepro& repro, std::string* why) {
  ChaosResult r = run_chaos_events(repro.spec, repro.events);
  // Digests as the bundle spells them, so a mismatch can be found in it.
  const auto hex = [](std::uint64_t v) {
    std::string s;
    json::append_hex64(s, v);
    return s;
  };
  std::string mismatch;
  const ChaosSignature sig = signature_of(r);
  if (sig != repro.signature) {
    mismatch = "signature mismatch: replayed " + sig.to_string() +
               ", bundle has " + repro.signature.to_string();
  } else if (r.digest != repro.digest) {
    mismatch = "digest mismatch: replayed " + hex(r.digest) +
               ", bundle has " + hex(repro.digest);
  } else if (r.invariant_failure_cycle != repro.failure_cycle) {
    mismatch = "invariant failure at cycle " +
               std::to_string(r.invariant_failure_cycle) + ", bundle has " +
               std::to_string(repro.failure_cycle);
  } else if (r.anchors.size() != repro.anchors.size()) {
    mismatch = "replay captured " + std::to_string(r.anchors.size()) +
               " anchors, bundle has " + std::to_string(repro.anchors.size());
  } else {
    for (std::size_t i = 0; i < r.anchors.size(); ++i) {
      const sim::Checkpoint& got = r.anchors[i];
      const sim::Checkpoint& want = repro.anchors[i];
      if (got == want) continue;
      mismatch = "anchor " + std::to_string(i) + " mismatch: replayed cycle " +
                 std::to_string(got.cycle) + " chip " + hex(got.chip_digest) +
                 " router " + hex(got.owner_digest) + ", bundle has cycle " +
                 std::to_string(want.cycle) + " chip " +
                 hex(want.chip_digest) + " router " + hex(want.owner_digest);
      break;
    }
  }
  if (why != nullptr) *why = mismatch;
  return r;
}

std::vector<sim::FaultEvent> minimize_events(
    const ChaosSpec& spec, const std::vector<sim::FaultEvent>& events,
    const ChaosSignature& target, MinimizeStats* stats) {
  // Bind the whole schedule before ddmin splits it, so a bad fault target
  // is reported by its index in `events`, as a replay reports it, not by
  // its index in the first subset ddmin runs.
  sim::FaultPlan full(events);
  RawRouter scratch(router_config_for(spec), net::RouteTable::simple4(),
                    traffic_for(spec), spec.seed);
  scratch.set_fault_plan(&full);
  return ddmin(
      events,
      [&](const std::vector<sim::FaultEvent>& subset) {
        return signature_of(run_chaos_events(spec, subset)) == target;
      },
      stats);
}

ChaosRepro minimize_repro(const ChaosRepro& target, MinimizeStats* stats) {
  const std::vector<sim::FaultEvent> minimal =
      minimize_events(target.spec, target.events, target.signature, stats);
  return make_repro(target.spec, minimal,
                    run_chaos_events(target.spec, minimal));
}

}  // namespace raw::router
