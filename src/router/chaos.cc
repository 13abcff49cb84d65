#include "router/chaos.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/profiler.h"
#include "common/rng.h"

namespace raw::router {

RouterConfig router_config_for(const ChaosSpec& spec) {
  RouterConfig cfg;
  cfg.link.enabled = spec.reliable_links;
  cfg.recovery.enabled = spec.recovery;
  cfg.endurance = spec.endurance;
  return cfg;
}

net::TrafficConfig traffic_for(const ChaosSpec& spec) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = spec.bytes;
  t.load = spec.load;
  const std::string& p = spec.traffic_profile;
  if (p.empty() || p == "uniform") {
    // Legacy workload, bit-identical to the pre-profile harness.
  } else if (p == "permutation") {
    t.pattern = net::DestPattern::kPermutation;
  } else if (p == "hotspot") {
    t.pattern = net::DestPattern::kHotspot;
    t.hotspot_fraction = 0.4;
  } else if (p == "bursty") {
    t.size = net::SizeDist::kBimodal;
    t.mean_burst_packets = 8.0;
  } else if (p == "imix") {
    t.size = net::SizeDist::kImix;
  } else if (p == "pareto") {
    // Heavy-tailed flows: elephants pin a destination for thousands of
    // bimodal-size packets (satellite of the soak tier).
    t.size = net::SizeDist::kBimodal;
    t.pareto_flows = true;
  } else {
    throw std::invalid_argument("unknown traffic profile: " + p);
  }
  return t;
}

std::string ChaosMix::name() const {
  std::string s;
  const auto tag = [&s](const char* t) {
    if (!s.empty()) s += "+";
    s += t;
  };
  if (bitflips) tag("flip");
  if (stalls) tag("stall");
  if (freezes) tag("freeze");
  if (overruns) tag("overrun");
  if (permanent_freeze) tag("permafreeze");
  if (s.empty()) s = "clean";
  return s;
}

sim::FaultPlan make_fault_plan(const ChaosSpec& spec, RawRouter& router) {
  common::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 1);
  sim::FaultPlan plan;
  sim::Chip& chip = router.chip();

  // Faults land while traffic is flowing but well before the run ends, so
  // transients have time to wash out before the drain. The window is never
  // empty, even for a one-cycle run.
  const common::Cycle lo = spec.run_cycles / 8;
  const common::Cycle hi = std::max<common::Cycle>(lo + 1,
                                                   3 * spec.run_cycles / 4);
  const auto when = [&] { return lo + rng.below(hi - lo); };

  // The eight chip-edge channels (line card <-> chip), the only places line
  // noise can corrupt a word.
  std::vector<std::string> edges;
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles tiles = router.layout().port(p);
    const PortEdges dirs = router.layout().edges(p);
    edges.push_back(
        chip.io_port(0, tiles.ingress, dirs.ingress_edge).to_chip->name());
    edges.push_back(
        chip.io_port(0, tiles.egress, dirs.egress_edge).from_chip->name());
  }

  // Any static-network link is fair game for a transient outage.
  std::vector<std::string> links;
  for (const sim::Channel* ch : chip.all_channels()) {
    if (ch->name().rfind("net", 0) == 0) links.push_back(ch->name());
  }

  // Each event's fields draw from the rng in the order they are listed.
  using sim::FaultKind;
  for (int i = 0; spec.mix.bitflips && i < spec.faults_per_kind; ++i) {
    plan.add({.kind = FaultKind::kBitFlip, .at = when(),
              .channel = edges[rng.below(edges.size())],
              .bit = static_cast<std::uint32_t>(rng.below(32))});
  }
  for (int i = 0; spec.mix.stalls && i < spec.faults_per_kind; ++i) {
    plan.add({.kind = FaultKind::kLinkStall, .at = when(),
              .channel = links[rng.below(links.size())],
              .duration = 16 + rng.below(241)});  // 16..256 cycles
  }
  for (int i = 0; spec.mix.freezes && i < spec.faults_per_kind; ++i) {
    plan.add({.kind = FaultKind::kTileFreeze, .at = when(),
              .tile = static_cast<int>(rng.below(16)),
              .duration = 64 + rng.below(449)});  // 64..512 cycles
  }
  for (int i = 0; spec.mix.overruns && i < spec.faults_per_kind; ++i) {
    plan.add({.kind = FaultKind::kOverrun, .at = when(),
              .port = static_cast<int>(rng.below(kNumPorts)),
              .duration = 2000 + rng.below(6001),  // 2k..8k cycles
              .factor = 4});
  }
  if (spec.mix.permanent_freeze) {
    plan.add({.kind = FaultKind::kTileFreeze, .at = spec.run_cycles / 2,
              .permanent = true, .tile = static_cast<int>(rng.below(16))});
  }
  return plan;
}

namespace {

// Shared by run_chaos (seed-derived schedule) and run_chaos_events (explicit
// schedule). Validation expectations are derived from the event list itself,
// never from spec.mix — a minimized subset of a flip+permafreeze schedule
// may contain no flips at all, and must then be held to the stricter
// no-damage rules.
ChaosResult run_impl(const ChaosSpec& spec,
                     const std::vector<sim::FaultEvent>* events) {
  RawRouter router(router_config_for(spec), net::RouteTable::simple4(),
                   traffic_for(spec), spec.seed);
  if (spec.force_dense) router.chip().set_force_dense(true);
  if (spec.profiler != nullptr) router.set_profiler(spec.profiler);

  // Endurance: arm the caller's monitor (the soak shares one memory
  // sentinel across epochs) or a run-local one.
  std::optional<sim::InvariantMonitor> local_monitor;
  sim::InvariantMonitor* monitor = spec.monitor;
  if (spec.endurance.enabled) {
    if (monitor == nullptr) monitor = &local_monitor.emplace();
    if (spec.inject_invariant_failure_at > 0) {
      const common::Cycle at = spec.inject_invariant_failure_at;
      sim::Chip* chip = &router.chip();
      monitor->add_check("soak/injected_failure", [chip, at]() -> std::string {
        if (chip->cycle() < at) return "";
        return "injected invariant failure (soak self-test) armed at cycle " +
               std::to_string(at);
      });
    }
    router.arm_endurance(monitor);
  }

  sim::FaultPlan plan = events != nullptr ? sim::FaultPlan(*events)
                                           : make_fault_plan(spec, router);
  router.set_fault_plan(&plan);

  // Facts the expectations key on, derived from the actual schedule.
  bool corrupting = false;
  std::vector<int> permanent_tiles;
  for (const sim::FaultEvent& e : plan.events()) {
    if (e.kind == sim::FaultKind::kBitFlip) corrupting = true;
    if (e.kind == sim::FaultKind::kTileFreeze && e.permanent) {
      permanent_tiles.push_back(e.tile);
    }
  }
  const bool has_permanent = !permanent_tiles.empty();
  // With reliable links every flip is repaired in place, so damage (errors,
  // malformed drops, resyncs, quiesce losses) is only legitimate without it.
  const bool damage_expected = corrupting && !spec.reliable_links;

  if (spec.profiler != nullptr) spec.profiler->start();
  const RunStatus rs = router.run(spec.run_cycles);
  // A stall or an invariant violation ends the run where it stands: the
  // whole point of the violation path is to freeze the failing state for
  // the bundle, not to keep draining through broken books.
  if (rs != RunStatus::kStalled && rs != RunStatus::kInvariantViolation) {
    (void)router.drain(spec.drain_cycles);
  }
  if (spec.profiler != nullptr) spec.profiler->stop();

  ChaosResult r;
  r.seed = spec.seed;
  r.mix = spec.mix.name();
  r.stalled_in_run = rs == RunStatus::kStalled;
  r.outcome = r.stalled_in_run           ? DrainOutcome::kStalled
              : rs == RunStatus::kInvariantViolation
                  ? DrainOutcome::kInvariantViolation
                  : router.drain_outcome();
  r.offered = router.offered_packets();
  r.delivered = router.delivered_packets();
  r.dropped_card = router.dropped_at_card();
  r.ingress_drops = router.ledger().erased_ingress;
  r.errors = router.errors();
  r.lost = router.lost_packets();
  r.watchdog_trips = router.watchdog_trips();
  r.faults_injected = plan.fired();
  r.degraded = router.degraded();
  r.schedule_generation = router.schedule_generation();
  r.link_retransmits = router.chip().link_retransmits();
  r.link_delivered_corrupt = router.chip().link_delivered_corrupt();
  for (int p = 0; p < kNumPorts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    r.malformed += router.core().counters[pi].malformed_drops;
    r.resyncs += router.output(p).resyncs();
  }
  if (router.stall_report().has_value()) {
    r.stall_summary = router.stall_report()->to_string();
    for (const StallReport::TileState& t : router.stall_report()->tiles) {
      if (t.cause == StallReport::BlockCause::kFrozen) {
        r.stall_tile = t.tile;
        break;
      }
    }
  }
  r.digest = router.state_digest();
  r.end_cycle = router.chip().cycle();
  if (monitor != nullptr) {
    r.invariant_sweeps = monitor->sweeps();
    if (router.invariant_violation().has_value()) {
      const sim::InvariantViolation& v = *router.invariant_violation();
      r.invariant_failure = v.name + ": " + v.detail;
      r.invariant_failure_cycle = v.cycle;
      r.invariant_deterministic = v.deterministic;
    }
  }
  if (const sim::CheckpointRing* ring = router.checkpoint_ring()) {
    r.checkpoints_captured = ring->captured();
    r.anchors = ring->entries();
  }

  const auto fail = [&r](std::string why) {
    if (r.failure.empty()) r.failure = std::move(why);
  };

  // An invariant violation preempts every other expectation: the run ended
  // mid-flight, so completion-shaped checks (drained, delivered, permanent
  // freeze caught) are meaningless — and the conservation identity may be
  // the very thing that broke.
  if (!r.invariant_failure.empty()) {
    fail("invariant violated @" + std::to_string(r.invariant_failure_cycle) +
         ": " + r.invariant_failure);
    r.pass = false;
    return r;
  }

  // Conservation must hold at every exit, stalled runs included (a run that
  // stalls before draining never reaches drain's assert).
  const std::string broken =
      router.ledger().conservation(r.offered, r.dropped_card);
  if (!broken.empty()) fail("conservation violated: " + broken);

  const bool stalled = r.stalled_in_run || r.outcome == DrainOutcome::kStalled;
  if (has_permanent && spec.recovery) {
    // Recovery must absorb the freeze: the run ends degraded, never stalled,
    // and the degraded fabric still drains (losses only where flips without
    // link protection can eat packets).
    if (stalled) {
      fail("permanent freeze stalled despite recovery: " + r.stall_summary);
    } else if (!r.degraded) {
      fail("permanent freeze never triggered a reconfiguration (outcome " +
           std::string(drain_outcome_name(r.outcome)) + ")");
    } else if (r.outcome != DrainOutcome::kDrainedDegraded &&
               !(r.outcome == DrainOutcome::kLossQuiesced && damage_expected)) {
      fail("recovered fabric ended " +
           std::string(drain_outcome_name(r.outcome)) +
           " instead of drained_degraded");
    }
    if (r.watchdog_trips != 0) {
      fail("watchdog trips counted despite successful recovery");
    }
  } else if (has_permanent) {
    // Without recovery, a permanently frozen tile must wedge the fabric and
    // be caught, and the report must pin the blame on a frozen tile.
    if (!stalled) {
      fail("permanent freeze was not detected (outcome " +
           std::string(drain_outcome_name(r.outcome)) + ")");
    } else if (!router.stall_report().has_value()) {
      fail("stalled without a StallReport");
    } else {
      const bool named = std::any_of(
          permanent_tiles.begin(), permanent_tiles.end(),
          [&r](int t) { return t == r.stall_tile; });
      if (!named) {
        fail("StallReport does not name a permanently frozen tile");
      }
    }
  } else if (stalled) {
    fail("watchdog tripped with no permanent fault injected: " +
         r.stall_summary);
  } else if (r.outcome == DrainOutcome::kTimeout) {
    fail("drain timed out: silent non-progress");
  } else if (r.outcome == DrainOutcome::kLossQuiesced && !damage_expected) {
    fail("packets lost (" + std::to_string(r.lost) +
         ") with no corruption expected");
  }

  if (!damage_expected) {
    const char* qualifier =
        spec.reliable_links ? " despite reliable links" : " under a non-corrupting mix";
    if (r.errors != 0) fail(std::string("validation errors") + qualifier);
    if (r.malformed != 0) fail(std::string("malformed drops") + qualifier);
    if (r.resyncs != 0) fail(std::string("output resyncs") + qualifier);
    if (r.lost != 0 && !r.degraded) {
      fail(std::string("packets lost") + qualifier);
    }
  }
  if (r.delivered == 0) fail("nothing delivered");

  r.pass = r.failure.empty();
  return r;
}

}  // namespace

ChaosResult run_chaos(const ChaosSpec& spec) { return run_impl(spec, nullptr); }

ChaosResult run_chaos_events(const ChaosSpec& spec,
                             const std::vector<sim::FaultEvent>& events) {
  return run_impl(spec, &events);
}

std::vector<ChaosMix> standard_mixes() {
  using M = ChaosMix;
  return {
      M{.bitflips = true},
      M{.stalls = true},
      M{.freezes = true},
      M{.overruns = true},
      M{.bitflips = true, .stalls = true},
      M{.bitflips = true, .freezes = true},
      M{.bitflips = true, .overruns = true},
      M{.stalls = true, .freezes = true},
      M{.stalls = true, .overruns = true},
      M{.freezes = true, .overruns = true},
      M{.bitflips = true, .stalls = true, .freezes = true, .overruns = true},
      M{.permanent_freeze = true},
      M{.bitflips = true, .permanent_freeze = true},
  };
}

bool split_mix(const std::string& s, std::vector<std::string>* kinds) {
  kinds->clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t end = std::min(s.find('+', pos), s.size());
    if (end == pos) return false;  // "", "flip+", "+stall", "flip++stall"
    kinds->push_back(s.substr(pos, end - pos));
    if (end == s.size()) return true;
    pos = end + 1;
  }
}

bool parse_mix(const std::string& s, ChaosMix* out) {
  ChaosMix m;
  // ChaosMix::name() spells the empty mix "clean" (a soak epoch with no
  // faults); accept it and the empty string as the no-fault mix.
  if (!s.empty() && s != "clean") {
    std::vector<std::string> kinds;
    if (!split_mix(s, &kinds)) return false;
    for (const std::string& kind : kinds) {
      if (kind == "flip") m.bitflips = true;
      else if (kind == "stall") m.stalls = true;
      else if (kind == "freeze") m.freezes = true;
      else if (kind == "overrun") m.overruns = true;
      else if (kind == "permafreeze") m.permanent_freeze = true;
      else return false;
    }
  }
  *out = m;
  return true;
}

}  // namespace raw::router
