#include "cluster/chaos.h"

#include <algorithm>

#include "cluster/fabric.h"
#include "cluster/topology.h"
#include "common/assert.h"
#include "common/json.h"
#include "common/rng.h"
#include "sim/invariants.h"

namespace raw::cluster {

std::string ClusterChaosMix::name() const {
  if (!any()) return "clean";
  std::string s;
  const auto add = [&s](const char* kind) {
    if (!s.empty()) s += '+';
    s += kind;
  };
  if (corrupts) add("corrupt");
  if (stalls) add("stall");
  if (cuts) add("cut");
  if (freezes) add("freeze");
  return s;
}

ClusterConfig cluster_config_for(const ClusterChaosSpec& spec) {
  ClusterConfig cfg;
  cfg.num_chips = spec.num_chips;
  cfg.threads = spec.threads;
  cfg.reliable_links = spec.reliable_links;
  cfg.failover = spec.failover;
  cfg.watchdog_interval = spec.watchdog_interval;
  cfg.traffic.load = spec.load;
  cfg.traffic.fixed_bytes = spec.bytes;
  cfg.traffic.remote_fraction = spec.remote_fraction;
  return cfg;
}

std::vector<sim::FaultEvent> make_cluster_fault_events(
    const ClusterChaosSpec& spec) {
  // The schedule targets real geometry, so build the (fault-free) topology
  // the run will use — after the config passes validate(), which throws
  // std::invalid_argument on geometry Topology::build cannot wire.
  const ClusterConfig cfg = cluster_config_for(spec);
  cfg.validate();
  const Topology topo = Topology::build(cfg);
  const std::size_t num_links = topo.links.size();
  RAW_ASSERT(num_links >= 2 && num_links % 2 == 0);  // trunks come in pairs

  common::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 0x0c1f);
  std::vector<sim::FaultEvent> events;
  // Faults land in the middle half of the run: late enough that traffic is
  // flowing, early enough that recovery has room to prove itself (and a
  // permanent fault leaves at least one watchdog interval before drain).
  const common::Cycle lo = spec.run_cycles / 4;
  const common::Cycle hi = std::max<common::Cycle>(lo + 1,
                                                   3 * spec.run_cycles / 4);
  const auto when = [&] { return lo + rng.below(hi - lo); };

  // Each event's fields draw from the rng in the order they are listed.
  using sim::FaultKind;
  for (int i = 0; spec.mix.corrupts && i < spec.faults_per_kind; ++i) {
    events.push_back({.kind = FaultKind::kBitFlip, .at = when(),
                      .link = static_cast<int>(rng.below(num_links)),
                      .bit = static_cast<std::uint32_t>(rng.below(32))});
  }
  for (int i = 0; spec.mix.stalls && i < spec.faults_per_kind; ++i) {
    events.push_back({.kind = FaultKind::kLinkStall, .at = when(),
                      .link = static_cast<int>(rng.below(num_links)),
                      .duration = 64 + rng.below(449)});  // 64..512 cycles
  }
  if (spec.mix.cuts) {
    // One trunk-pair cut per run: a fiber cut takes both directions of one
    // trunk (the builder wires them consecutively, so trunk t is links
    // {2t, 2t+1}). Capped at one so a schedule never shreds the fabric.
    const std::uint64_t trunk = rng.below(num_links / 2);
    const common::Cycle at = when();
    for (int dir = 0; dir < 2; ++dir) {
      events.push_back({.kind = FaultKind::kLinkStall, .at = at,
                        .permanent = true,
                        .link = static_cast<int>(2 * trunk) + dir});
    }
  }
  if (spec.mix.freezes) {
    // One chip death per run, drawn from the host-bearing chips and only
    // when another host-bearing chip survives it — a dead fabric that
    // delivers nothing would mask every other invariant.
    std::vector<char> has_host(static_cast<std::size_t>(topo.num_chips), 0);
    for (const HostPlan& h : topo.hosts) {
      has_host[static_cast<std::size_t>(h.chip)] = 1;
    }
    std::vector<int> candidates;
    for (int c = 0; c < topo.num_chips; ++c) {
      if (has_host[static_cast<std::size_t>(c)] != 0) candidates.push_back(c);
    }
    if (candidates.size() >= 2) {
      events.push_back({.kind = FaultKind::kTileFreeze, .at = when(),
                        .permanent = true,
                        .chip = candidates[rng.below(candidates.size())]});
    }
  }
  return events;
}

router::ChaosResult run_cluster_chaos(const ClusterChaosSpec& spec) {
  return run_chaos_events(spec, make_cluster_fault_events(spec));
}

router::ChaosResult run_chaos_events(
    const ClusterChaosSpec& spec,
    const std::vector<sim::FaultEvent>& events) {
  // Expectations come from the events themselves, so a hand-edited or
  // replayed schedule is judged by the same rules as a generated one.
  bool corrupting = false;
  bool permanent = false;
  for (const sim::FaultEvent& e : events) {
    corrupting |= e.kind == sim::FaultKind::kBitFlip;
    permanent |= e.permanent;
  }

  ClusterConfig cfg = cluster_config_for(spec);
  cfg.faults = events;
  ClusterFabric fabric(cfg, spec.seed);

  sim::InvariantMonitor monitor;
  fabric.register_invariants(monitor);

  // Run in watchdog-interval segments with an invariant sweep between each,
  // so a broken book is caught near where it broke.
  const common::Cycle segment =
      std::max<common::Cycle>(spec.watchdog_interval, fabric.epoch_cycles());
  common::Cycle remaining = spec.run_cycles;
  while (remaining > 0) {
    const common::Cycle step = std::min(segment, remaining);
    fabric.run(step);
    remaining -= step;
    monitor.sweep(fabric.cycle());
  }
  const bool drained = fabric.drain(spec.drain_cycles);
  // The final sweep checks conservation and the link word and sequence
  // books on the drained state.
  monitor.sweep(fabric.cycle());

  router::ChaosResult r;
  r.seed = spec.seed;
  r.mix = spec.mix.name();
  r.outcome = fabric.drain_outcome();
  r.offered = fabric.offered_packets();
  r.delivered = fabric.delivered_packets();
  r.dropped_card = fabric.dropped_at_card();
  r.ingress_drops = fabric.ledger().erased_ingress;
  r.errors = fabric.errors();
  r.lost = fabric.lost_packets();
  r.malformed = fabric.malformed_drops();
  r.resyncs = fabric.resyncs();
  r.faults_injected = fabric.fault_plan().fired();
  r.degraded = fabric.degraded();
  r.schedule_generation = fabric.failover_generation();
  r.link_retransmits = fabric.total_retransmits();
  r.link_delivered_corrupt = fabric.total_delivered_corrupt();
  r.written_off_words = fabric.written_off_words();
  r.abandoned_packets = fabric.abandoned_packets();
  r.unreachable_hosts = fabric.unreachable_hosts().size();
  r.digest = fabric.cluster_digest();
  r.invariant_sweeps = monitor.sweeps();
  r.end_cycle = fabric.cycle();
  if (!monitor.ok()) {
    const sim::InvariantViolation& v = monitor.violations().front();
    r.invariant_failure = v.name + ": " + v.detail;
  }

  // ---- Invariant checks, most fundamental first. -------------------------
  const auto fail = [&r](std::string why) {
    if (r.failure.empty()) r.failure = std::move(why);
  };

  if (!r.invariant_failure.empty()) {
    fail("invariant monitor: " + r.invariant_failure);
  }
  if (!events.empty() && r.faults_injected != events.size()) {
    fail("fault plan fired " + std::to_string(r.faults_injected) + " of " +
         std::to_string(events.size()) + " events");
  }
  if (corrupting && spec.reliable_links && !permanent) {
    // The whole point of the reliable layer: corrupt words become
    // retransmits with zero damage.
    if (r.errors != 0 || r.lost != 0 || r.link_delivered_corrupt != 0) {
      fail("reliable links leaked damage: errors " + std::to_string(r.errors) +
           " lost " + std::to_string(r.lost) + " delivered_corrupt " +
           std::to_string(r.link_delivered_corrupt));
    }
    if (fabric.fault_plan().bit_flips_applied() > 0 &&
        r.link_retransmits == 0) {
      fail("corrupt words applied but no retransmits recorded");
    }
  }
  if (!corrupting && !permanent) {
    // Timing-only mixes (stalls, clean) must be damage-free regardless of
    // the reliable layer.
    if (r.errors != 0 || r.lost != 0) {
      fail("timing-only mix did damage: errors " + std::to_string(r.errors) +
           " lost " + std::to_string(r.lost));
    }
    if (!drained) fail("timing-only mix failed to drain");
    if (r.degraded) fail("timing-only mix ended degraded");
  }
  if (permanent && spec.failover) {
    if (!r.degraded) fail("permanent fault but the run never went degraded");
    if (r.schedule_generation < 1) fail("permanent fault but no reroute");
    if (!drained) {
      fail("degraded run did not drain cleanly (losses unexplained)");
    }
  }
  if (r.delivered == 0) fail("no packets delivered");

  r.pass = r.failure.empty();
  return r;
}

void check_schedule(const ClusterChaosSpec& spec,
                    const std::vector<sim::FaultEvent>& events) {
  ClusterConfig cfg = cluster_config_for(spec);
  cfg.faults = events;
  cfg.validate();
}

std::vector<ClusterChaosMix> standard_cluster_mixes() {
  using M = ClusterChaosMix;
  return {
      M{},  // clean control
      M{.corrupts = true},
      M{.stalls = true},
      M{.cuts = true},
      M{.freezes = true},
      M{.corrupts = true, .stalls = true},
      M{.corrupts = true, .cuts = true},
      M{.stalls = true, .freezes = true},
  };
}

bool parse_cluster_mix(const std::string& s, ClusterChaosMix* out) {
  ClusterChaosMix mix;
  if (s != "clean") {
    std::vector<std::string> kinds;
    if (!router::split_mix(s, &kinds)) return false;
    for (const std::string& kind : kinds) {
      if (kind == "corrupt") mix.corrupts = true;
      else if (kind == "stall") mix.stalls = true;
      else if (kind == "cut") mix.cuts = true;
      else if (kind == "freeze") mix.freezes = true;
      else return false;
    }
  }
  *out = mix;
  return true;
}

// ---------------------------------------------------------------------------
// Repro bundles, through the common/json codec.

namespace {

namespace json = common::json;

constexpr const char* kClusterSchema = "raw-cluster-chaos-repro/v3";
constexpr const char* kClusterSchemaV2 = "raw-cluster-chaos-repro/v2";
constexpr const char* kClusterSchemaV1 = "raw-cluster-chaos-repro/v1";

// Every cluster is a leaf-spine; bundles still name it.
constexpr const char* kTopology = "leaf_spine";

}  // namespace

std::string to_json(const ClusterChaosRepro& repro) {
  const ClusterChaosSpec& spec = repro.spec;
  std::string j = "{\n  \"schema\": \"";
  j += kClusterSchema;
  j += "\",\n  \"spec\": {\"seed\": ";
  json::append_value(j, spec.seed);
  json::append_field(j, "mix", spec.mix.name());
  json::append_field(j, "num_chips", spec.num_chips);
  json::append_field(j, "topology", kTopology);
  json::append_field(j, "run_cycles", spec.run_cycles);
  json::append_field(j, "drain_cycles", spec.drain_cycles);
  json::append_field(j, "faults_per_kind", spec.faults_per_kind);
  json::append_field(j, "threads", spec.threads);
  json::append_field(j, "reliable_links", spec.reliable_links);
  json::append_field(j, "failover", spec.failover);
  json::append_field(j, "watchdog_interval", spec.watchdog_interval);
  json::append_field(j, "load", spec.load);
  json::append_field(j, "bytes", spec.bytes);
  json::append_field(j, "remote_fraction", spec.remote_fraction);
  j += "},\n  \"events\": [";
  for (std::size_t k = 0; k < repro.events.size(); ++k) {
    j += k == 0 ? "\n    " : ",\n    ";
    sim::append_fault_event(j, repro.events[k]);
  }
  j += "\n  ],\n  \"signature\": ";
  router::append_signature(j, repro.signature);
  j += ",\n  \"digest\": ";
  json::append_hex64(j, repro.digest);
  j += "\n}\n";
  return j;
}

bool from_json(const std::string& text, ClusterChaosRepro* out,
               std::string* error) {
  json::Parser p{text};
  ClusterChaosRepro r;
  ClusterChaosSpec& spec = r.spec;
  std::string schema;
  // v1 and v2 record the outcome as four keys instead of a signature.
  bool pass = true;
  std::string failure;
  bool degraded = false;
  bool drained = false;

  const auto parse_spec = [&](const std::string& k) {
    if (k == "mix") {
      std::string name;
      return p.parse(&name) &&
             (parse_cluster_mix(name, &spec.mix) || p.reject("unknown mix"));
    }
    if (k == "topology") {
      std::string name;
      return p.parse(&name) &&
             (name == kTopology || p.reject("unknown topology " + name));
    }
    if (k == "seed") return p.parse(&spec.seed);
    if (k == "num_chips") return p.parse(&spec.num_chips);
    if (k == "run_cycles") return p.parse(&spec.run_cycles);
    if (k == "drain_cycles") return p.parse(&spec.drain_cycles);
    if (k == "faults_per_kind") return p.parse(&spec.faults_per_kind);
    if (k == "threads") return p.parse(&spec.threads);
    if (k == "reliable_links") return p.parse(&spec.reliable_links);
    if (k == "failover") return p.parse(&spec.failover);
    if (k == "watchdog_interval") return p.parse(&spec.watchdog_interval);
    if (k == "load") return p.parse(&spec.load);
    if (k == "bytes") return p.parse(&spec.bytes);
    if (k == "remote_fraction") return p.parse(&spec.remote_fraction);
    return p.skip_value();
  };

  bool ok = p.parse_object([&](const std::string& key) {
    if (key == "schema") {
      return p.parse(&schema) &&
             (schema == kClusterSchema || schema == kClusterSchemaV2 ||
              schema == kClusterSchemaV1 ||
              p.reject("unknown schema " + schema));
    }
    if (key == "spec") return p.parse_object(parse_spec);
    if (key == "events") {
      return p.parse_array(
          [&] { return sim::parse_fault_event(p, &r.events.emplace_back()); });
    }
    if (key == "signature") return router::parse_signature(p, &r.signature);
    if (key == "pass") return p.parse(&pass);
    if (key == "failure") return p.parse(&failure);
    if (key == "degraded") return p.parse(&degraded);
    if (key == "drained") return p.parse(&drained);
    if (key == "digest") return p.parse_hex64(&r.digest);
    return p.skip_value();
  });
  ok = ok && (!schema.empty() || p.reject("missing \"schema\" marker"));
  if (!p.finish(ok, error)) return false;
  if (schema != kClusterSchema) {
    using router::DrainOutcome;
    r.signature = {.pass = pass,
                   .category = router::failure_category(failure),
                   .outcome = !drained ? DrainOutcome::kLossQuiesced
                              : degraded ? DrainOutcome::kDrainedDegraded
                                         : DrainOutcome::kDrained,
                   .degraded = degraded};
  }
  *out = std::move(r);
  return true;
}

bool parse_repro(const std::string& text, Repro* out, std::string* error) {
  // Dispatch on the marker the document carries; the typed reader then
  // validates it.
  json::Parser p{text};
  bool chip = false;
  bool cluster = false;
  const bool ok = p.parse_object([&](const std::string& key) {
    chip |= key == "version";
    cluster |= key == "schema";
    return p.skip_value();
  });
  // ADL picks router::from_json or from_json by the bundle type.
  const auto read = [&](auto repro) {
    if (!from_json(text, &repro, error)) return false;
    *out = std::move(repro);
    return true;
  };
  if (!p.finish(ok, error)) return false;
  if (cluster) return read(ClusterChaosRepro{});
  if (chip) return read(router::ChaosRepro{});
  if (error != nullptr) *error = "no bundle marker (\"version\" or \"schema\")";
  return false;
}

bool load_repro(const std::string& path, Repro* out, std::string* error) {
  std::string text;
  if (!json::read_file(path, &text)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  return parse_repro(text, out, error);
}

}  // namespace raw::cluster
