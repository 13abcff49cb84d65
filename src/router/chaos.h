// Chaos harness: seeded fault mixes driven through the full router with the
// self-protection invariants checked afterwards.
//
// Each (seed, mix) combination builds a FaultPlan from the mix's fault
// kinds, runs the router under uniform traffic, drains, and verifies:
//
//   * packet conservation — PacketLedger::conservation() holds at exit,
//     stalled runs included;
//   * no silent hang — the run either completes, quiesces with explained
//     losses, or stops with a StallReport; a watchdog trip is a pass only
//     when the mix injected a permanent tile freeze, and the report must
//     name that tile as frozen;
//   * no unexplained damage — validation errors, malformed drops, resyncs
//     and losses appear only under corrupting (bit-flip) mixes;
//   * the router still forwards — delivered packets (which are validated
//     end-to-end by the output cards) stay nonzero.
//
// ChaosResult is the one chaos record: the cluster harness (cluster/chaos.h)
// reports its runs in it too, so one bundle layer (router/repro.h) and one
// printer serve both targets. Fields a target does not have stay zero.
//
// Used by tools/rawchaos (one combination or the seeds x mixes sweep, which
// the tier2 ctests run bounded), tools/rawsoak (rotating endurance epochs,
// router/soak.h) and tools/rawstat --chaos.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace raw::router {

/// Which fault kinds a run injects.
struct ChaosMix {
  bool bitflips = false;
  bool stalls = false;
  bool freezes = false;  // transient windows
  bool overruns = false;
  bool permanent_freeze = false;

  [[nodiscard]] bool any() const {
    return bitflips || stalls || freezes || overruns || permanent_freeze;
  }
  [[nodiscard]] std::string name() const;
};

struct ChaosSpec {
  std::uint64_t seed = 1;
  ChaosMix mix;
  common::Cycle run_cycles = 40000;
  common::Cycle drain_cycles = 400000;
  /// Scheduled events per enabled transient kind.
  int faults_per_kind = 6;
  common::ByteCount bytes = 256;
  double load = 0.9;
  /// Reliable-link layer (RouterConfig::link): bit flips become retransmits,
  /// so the validation expects *zero* damage even under corrupting mixes.
  bool reliable_links = false;
  /// Fault-adaptive reconfiguration (RouterConfig::recovery): a permanent
  /// tile freeze must end Degraded and keep delivering, not Stalled.
  bool recovery = false;
  /// Force the dense reference engine (differential testing).
  bool force_dense = false;
  /// Engine profiler to attach for the run (not owned; null = no profiling).
  /// The harness starts/stops its wall clock around run+drain, so flight
  /// snapshots and stall marks land inside the profiled window (see
  /// RawRouter::set_profiler). Profiling never changes results: digests are
  /// identical with or without it.
  common::Profiler* profiler = nullptr;
  /// Named traffic profile ("uniform", "permutation", "hotspot", "bursty",
  /// "imix", "pareto"); "" keeps the legacy fixed-size uniform workload
  /// bit-for-bit (the default every existing caller relies on). See
  /// traffic_for().
  std::string traffic_profile;
  /// Endurance layer (RouterConfig::endurance). When enabled the run arms an
  /// InvariantMonitor — `monitor` if provided (not owned, not serialized;
  /// lets the soak share a memory sentinel across epochs), else a run-local
  /// one — and the result carries the checkpoint anchors.
  EnduranceConfig endurance;
  sim::InvariantMonitor* monitor = nullptr;
  /// Soak self-test: when nonzero, registers an always-failing check armed
  /// at this chip cycle, proving the violation -> bundle -> replay path end
  /// to end. Serialized in repro bundles (the replay must fail at the same
  /// cycle).
  common::Cycle inject_invariant_failure_at = 0;
};

struct ChaosResult {
  bool pass = false;
  std::string failure;  // first violated invariant, empty on pass
  std::uint64_t seed = 0;
  std::string mix;
  DrainOutcome outcome = DrainOutcome::kDrained;
  bool stalled_in_run = false;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_card = 0;
  std::uint64_t ingress_drops = 0;  // ttl + no-route + malformed (ledger view)
  std::uint64_t errors = 0;         // output-card validation failures
  std::uint64_t lost = 0;
  std::uint64_t malformed = 0;      // ingress integrity-check drops
  std::uint64_t resyncs = 0;        // output-card realignment episodes
  std::uint64_t watchdog_trips = 0;
  std::uint64_t faults_injected = 0;
  std::string stall_summary;  // StallReport::to_string() when one was raised
  /// First tile a StallReport blames as frozen (-1 when none): the
  /// replay/minimizer signature needs the *where*, not just the *that*.
  int stall_tile = -1;
  /// Fault-adaptive recovery observability (on a cluster, the fail-over
  /// reroute generation).
  bool degraded = false;
  int schedule_generation = 0;
  /// Reliable-link counters (zero when the layer is disabled).
  std::uint64_t link_retransmits = 0;
  std::uint64_t link_delivered_corrupt = 0;
  /// Cluster fail-over write-offs (always zero on a chip): trunk words
  /// written off, dead-chip input packets abandoned, and hosts some alive
  /// chip can no longer reach.
  std::uint64_t written_off_words = 0;
  std::uint64_t abandoned_packets = 0;
  std::uint64_t unreachable_hosts = 0;
  /// RawRouter::state_digest() (ClusterFabric::cluster_digest()) at exit:
  /// the record/replay and engine-equivalence fingerprint.
  std::uint64_t digest = 0;
  /// Endurance observability (all zero/empty unless endurance was enabled).
  std::string invariant_failure;  // "name: detail" of the violation, if any
  common::Cycle invariant_failure_cycle = 0;
  bool invariant_deterministic = true;
  std::uint64_t invariant_sweeps = 0;
  std::uint64_t checkpoints_captured = 0;
  /// Checkpoint ring contents at exit, oldest first: the anchors a replay
  /// of this run must reproduce.
  std::vector<sim::Checkpoint> anchors;
  /// Chip cycle at exit.
  common::Cycle end_cycle = 0;
};

/// The RouterConfig a chaos/soak run builds from `spec`.
RouterConfig router_config_for(const ChaosSpec& spec);

/// The TrafficConfig for spec's named profile (empty = legacy uniform
/// fixed-size, bit-identical to the pre-profile harness). Throws
/// std::invalid_argument on an unknown name. The "pareto" profile is the
/// heavy-tailed bounded-Pareto flow mode (net::TrafficConfig::pareto_flows).
net::TrafficConfig traffic_for(const ChaosSpec& spec);

/// Builds the seeded fault schedule for `spec` against `router`'s chip.
/// Bit flips target only the chip-edge (line-card) channels — on-chip
/// control words are the schedule compiler's domain and a flip there models
/// a different fault class than line noise.
sim::FaultPlan make_fault_plan(const ChaosSpec& spec, RawRouter& router);

/// Runs one (seed, mix) combination and checks every invariant.
ChaosResult run_chaos(const ChaosSpec& spec);

/// Runs `spec`'s router configuration under an *explicit* fault-event
/// schedule instead of the seed-derived one — the replay and delta-debugging
/// path (see router/repro.h). Validation derives its expectations from the
/// events themselves (any kBitFlip => corrupting, any permanent kTileFreeze
/// => permanent), so a minimized subset is judged by the same rules as the
/// full schedule. spec.mix is used only for labelling.
ChaosResult run_chaos_events(const ChaosSpec& spec,
                             const std::vector<sim::FaultEvent>& events);

/// The 13 standard mixes: each kind alone, bit-flip pairs, timing pairs,
/// everything transient, and the two permanent-freeze variants.
std::vector<ChaosMix> standard_mixes();

/// Splits a '+'-separated mix string into its kind names — the one
/// splitter of the chip and cluster mix parsers. Returns false when any
/// token is empty ("", "flip+", "+stall", "flip++stall").
bool split_mix(const std::string& s, std::vector<std::string>* kinds);

/// Parses a '+'-separated mix string ("flip+stall+freeze+overrun",
/// "permafreeze") into `out`; "" and "clean" are the no-fault mix. Returns
/// false on an unknown kind name or an empty token.
bool parse_mix(const std::string& s, ChaosMix* out);

}  // namespace raw::router
