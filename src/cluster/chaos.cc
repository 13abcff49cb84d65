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
  cfg.topology = spec.topology;
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

ClusterChaosResult run_cluster_chaos(const ClusterChaosSpec& spec) {
  return run_cluster_chaos_events(spec, make_cluster_fault_events(spec));
}

ClusterChaosResult run_cluster_chaos_events(
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

  ClusterChaosResult r;
  r.seed = spec.seed;
  r.mix = spec.mix.name();

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
  r.drained = fabric.drain(spec.drain_cycles);
  monitor.sweep(fabric.cycle());

  r.degraded = fabric.degraded();
  r.offered = fabric.offered_packets();
  r.delivered = fabric.delivered_packets();
  r.dropped_card = fabric.dropped_at_card();
  r.errors = fabric.errors();
  r.lost = fabric.lost_packets();
  r.faults_injected = fabric.fault_plan().fired();
  r.retransmits = fabric.total_retransmits();
  r.delivered_corrupt = fabric.total_delivered_corrupt();
  r.written_off_words = fabric.written_off_words();
  r.abandoned_packets = fabric.abandoned_packets();
  r.failover_generation = fabric.failover_generation();
  r.unreachable_hosts = fabric.unreachable_hosts().size();
  if (!monitor.ok()) {
    const sim::InvariantViolation& v = monitor.violations().front();
    r.invariant_failure = v.name + ": " + v.detail;
  }
  r.digest = fabric.cluster_digest();

  // ---- Invariant checks, most fundamental first. -------------------------
  const auto fail = [&r](std::string why) {
    if (r.failure.empty()) r.failure = std::move(why);
  };

  if (!r.invariant_failure.empty()) {
    fail("invariant monitor: " + r.invariant_failure);
  }
  // Conservation: ClusterFabric::drain already asserted the packet books;
  // re-derive them here so a failure is reported, not aborted.
  const std::uint64_t accounted = r.dropped_card +
                                  fabric.ledger().erased_total() +
                                  fabric.ledger().in_flight.size();
  if (r.offered != accounted) {
    fail("conservation: offered " + std::to_string(r.offered) +
         " != accounted " + std::to_string(accounted));
  }
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    const InterChipLink& lk = fabric.link(l);
    if (lk.sent_total() !=
        lk.delivered_total() + lk.in_flight_words() + lk.written_off_total()) {
      fail("link books: link " + std::to_string(l) +
           " sent != delivered + in_flight + written_off");
    }
    if (!lk.seq_books_ok()) {
      fail("link seq books: link " + std::to_string(l));
    }
  }
  if (!events.empty() && r.faults_injected != events.size()) {
    fail("fault plan fired " + std::to_string(r.faults_injected) + " of " +
         std::to_string(events.size()) + " events");
  }
  if (corrupting && spec.reliable_links && !permanent) {
    // The whole point of the reliable layer: corrupt words become
    // retransmits with zero damage.
    if (r.errors != 0 || r.lost != 0 || r.delivered_corrupt != 0) {
      fail("reliable links leaked damage: errors " + std::to_string(r.errors) +
           " lost " + std::to_string(r.lost) + " delivered_corrupt " +
           std::to_string(r.delivered_corrupt));
    }
    if (fabric.fault_plan().bit_flips_applied() > 0 && r.retransmits == 0) {
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
    if (!r.drained) fail("timing-only mix failed to drain");
    if (r.degraded) fail("timing-only mix ended degraded");
  }
  if (permanent && spec.failover) {
    if (!r.degraded) fail("permanent fault but the run never went degraded");
    if (r.failover_generation < 1) fail("permanent fault but no reroute");
    if (!r.drained) {
      fail("degraded run did not drain cleanly (losses unexplained)");
    }
  }
  if (r.delivered == 0) fail("no packets delivered");

  r.pass = r.failure.empty();
  return r;
}

std::vector<ClusterChaosMix> standard_cluster_mixes() {
  std::vector<ClusterChaosMix> mixes;
  ClusterChaosMix m;
  mixes.push_back(m);  // clean control
  m = {}; m.corrupts = true; mixes.push_back(m);
  m = {}; m.stalls = true; mixes.push_back(m);
  m = {}; m.cuts = true; mixes.push_back(m);
  m = {}; m.freezes = true; mixes.push_back(m);
  m = {}; m.corrupts = true; m.stalls = true; mixes.push_back(m);
  m = {}; m.corrupts = true; m.cuts = true; mixes.push_back(m);
  m = {}; m.stalls = true; m.freezes = true; mixes.push_back(m);
  return mixes;
}

bool parse_cluster_mix(const std::string& s, ClusterChaosMix* out) {
  ClusterChaosMix mix;
  if (s != "clean") {
    std::vector<std::string> kinds;
    if (!router::split_mix(s, &kinds)) return false;
    for (const std::string& kind : kinds) {
      if (kind == "corrupt") {
        mix.corrupts = true;
      } else if (kind == "stall") {
        mix.stalls = true;
      } else if (kind == "cut") {
        mix.cuts = true;
      } else if (kind == "freeze") {
        mix.freezes = true;
      } else {
        return false;
      }
    }
  }
  *out = mix;
  return true;
}

// ---------------------------------------------------------------------------
// Repro bundles, through the common/json codec.

namespace {

namespace json = common::json;

constexpr const char* kClusterSchema = "raw-cluster-chaos-repro/v2";
constexpr const char* kClusterSchemaV1 = "raw-cluster-chaos-repro/v1";

const char* topology_name(TopologyKind t) {
  switch (t) {
    case TopologyKind::kPointToPoint: return "point_to_point";
    case TopologyKind::kLeafSpine: return "leaf_spine";
    case TopologyKind::kFatTree: return "fat_tree";
  }
  return "leaf_spine";
}

}  // namespace

ClusterChaosRepro make_repro(const ClusterChaosSpec& spec,
                             const std::vector<sim::FaultEvent>& events,
                             const ClusterChaosResult& r) {
  ClusterChaosRepro repro;
  repro.spec = spec;
  repro.events = events;
  repro.pass = r.pass;
  repro.failure = r.failure;
  repro.degraded = r.degraded;
  repro.drained = r.drained;
  repro.digest = r.digest;
  return repro;
}

std::string to_json(const ClusterChaosRepro& repro) {
  const ClusterChaosSpec& spec = repro.spec;
  std::string j = "{\n  \"schema\": \"";
  j += kClusterSchema;
  j += "\",\n  \"spec\": {\"seed\": ";
  json::append_value(j, spec.seed);
  json::append_field(j, "mix", spec.mix.name());
  json::append_field(j, "num_chips", spec.num_chips);
  json::append_field(j, "topology", topology_name(spec.topology));
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
  j += "\n  ],\n  \"pass\": ";
  json::append_value(j, repro.pass);
  json::append_field(j, "failure", repro.failure, ",\n  ");
  json::append_field(j, "degraded", repro.degraded, ",\n  ");
  json::append_field(j, "drained", repro.drained, ",\n  ");
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
  bool has_schema = false;

  const auto parse_spec = [&](const std::string& k) {
    if (k == "mix") {
      std::string name;
      return p.parse(&name) &&
             (parse_cluster_mix(name, &spec.mix) || p.reject("unknown mix"));
    }
    if (k == "topology") {
      return p.parse_enum(&spec.topology,
                          {TopologyKind::kPointToPoint, TopologyKind::kLeafSpine,
                           TopologyKind::kFatTree},
                          topology_name, "unknown topology");
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
      std::string schema;
      has_schema = true;
      return p.parse(&schema) &&
             (schema == kClusterSchema || schema == kClusterSchemaV1 ||
              p.reject("unknown schema " + schema));
    }
    if (key == "spec") return p.parse_object(parse_spec);
    if (key == "events") {
      return p.parse_array(
          [&] { return sim::parse_fault_event(p, &r.events.emplace_back()); });
    }
    if (key == "pass") return p.parse(&r.pass);
    if (key == "failure") return p.parse(&r.failure);
    if (key == "degraded") return p.parse(&r.degraded);
    if (key == "drained") return p.parse(&r.drained);
    if (key == "digest") return p.parse_hex64(&r.digest);
    return p.skip_value();
  });
  ok = ok && (has_schema || p.reject("missing \"schema\" marker"));
  if (!p.finish(ok, error)) return false;
  *out = std::move(r);
  return true;
}

ClusterChaosResult replay_cluster_repro(const ClusterChaosRepro& repro,
                                        std::string* why) {
  ClusterChaosResult r = run_cluster_chaos_events(repro.spec, repro.events);
  std::string mismatch;
  if (r.digest != repro.digest) {
    mismatch = "digest mismatch";
  } else if (r.degraded != repro.degraded) {
    mismatch = "degraded-status mismatch";
  } else if (r.drained != repro.drained) {
    mismatch = "drain-outcome mismatch";
  }
  if (!mismatch.empty()) {
    r.pass = false;
    if (r.failure.empty()) r.failure = "replay: " + mismatch;
    if (why != nullptr) *why = mismatch;
  }
  return r;
}

bool same_outcome(const ClusterChaosRepro& a, const ClusterChaosRepro& b) {
  return a.pass == b.pass &&
         router::failure_category(a.failure) ==
             router::failure_category(b.failure) &&
         a.degraded == b.degraded && a.drained == b.drained;
}

ClusterChaosRepro minimize_repro(const ClusterChaosRepro& target,
                                 router::MinimizeStats* stats) {
  // Check the whole schedule before ddmin splits it, so a bad fault target
  // is reported by its index in the bundle, as a replay reports it.
  ClusterConfig full = cluster_config_for(target.spec);
  full.faults = target.events;
  full.validate();
  const auto run = [&target](const std::vector<sim::FaultEvent>& events) {
    return make_repro(target.spec, events,
                      run_cluster_chaos_events(target.spec, events));
  };
  return run(router::ddmin(
      target.events,
      [&](const std::vector<sim::FaultEvent>& subset) {
        return same_outcome(run(subset), target);
      },
      stats));
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
