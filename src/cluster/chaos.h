// Cluster chaos harness: seeded inter-chip fault mixes driven through a
// whole ClusterFabric with the recovery invariants checked afterwards.
//
// Each (seed, mix) combination builds a link and chip fault schedule
// (sim::FaultEvent) from the mix's fault kinds, runs the cluster under
// grouped uniform traffic with the cluster invariants (conservation with
// write-offs, per-link word and sequence books, chip liveness) swept
// between run segments and after the drain, and verifies:
//
//   * every registered invariant held at every sweep;
//   * zero damage under reliable links — a corrupting mix on CRC+seq trunks
//     produces retransmits, not errors or losses;
//   * clean degradation — a permanent fault (trunk cut, chip freeze) with
//     fail-over armed must end kDegraded with a *clean* drain (losses
//     explained by the confirmed failure) and a rerouted generation;
//   * the cluster still forwards — end-to-end validated deliveries stay
//     nonzero.
//
// A run reports the chip harness's router::ChaosResult, so its bundles are
// router::Repro<ClusterChaosSpec> and replay, minimize and print through
// router/repro.h. What stays here is what differs: the spec and its codec,
// the fault-schedule builder, the run and its pass/fail rules.
//
// Used by tools/rawchaos --cluster and tools/rawstat --cluster --chaos.
// Deterministic: the same (spec, events) pair produces the same result, and
// the same cluster digest, at any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster_config.h"
#include "router/repro.h"

namespace raw::cluster {

/// Which inter-chip fault kinds a run injects.
struct ClusterChaosMix {
  bool corrupts = false;  // trunk word bit flips
  bool stalls = false;    // transient link flaps
  bool cuts = false;      // permanent trunk-pair cuts
  bool freezes = false;   // permanent whole-chip death

  /// Permanent faults make a degraded finish the expected outcome.
  [[nodiscard]] bool permanent() const { return cuts || freezes; }
  [[nodiscard]] bool any() const {
    return corrupts || stalls || cuts || freezes;
  }
  [[nodiscard]] std::string name() const;
};

struct ClusterChaosSpec {
  std::uint64_t seed = 1;
  ClusterChaosMix mix;
  int num_chips = 4;
  common::Cycle run_cycles = 20000;
  common::Cycle drain_cycles = 600000;
  /// Scheduled events per enabled transient kind (corrupts, stalls).
  /// Permanent kinds are capped independently: at most one trunk-pair cut
  /// and one chip freeze per run, so a schedule never severs everything.
  int faults_per_kind = 3;
  /// Thread-per-chip workers (ClusterConfig::threads semantics).
  int threads = 0;
  /// CRC+seq reliable trunks: corrupting mixes must then do zero damage.
  bool reliable_links = false;
  /// Watchdog + deterministic reroute: permanent mixes must then end
  /// kDegraded with a clean drain.
  bool failover = false;
  common::Cycle watchdog_interval = 256;
  double load = 0.8;
  common::ByteCount bytes = 128;
  double remote_fraction = 0.6;
};

/// The ClusterConfig a chaos run builds from `spec` (without the fault
/// schedule) — exported so replay reconstructs the identical fabric.
ClusterConfig cluster_config_for(const ClusterChaosSpec& spec);

/// Builds the seeded fault schedule for `spec`. Cut events sever both
/// directions of one trunk at the same barrier (a fiber cut takes the
/// pair); freeze events kill one host-bearing chip, leaving at least one
/// other host-bearing chip alive so the fabric keeps forwarding.
std::vector<sim::FaultEvent> make_cluster_fault_events(
    const ClusterChaosSpec& spec);

/// Runs one (seed, mix) combination and checks every invariant.
router::ChaosResult run_cluster_chaos(const ClusterChaosSpec& spec);

/// Runs `spec`'s cluster under an *explicit* fault schedule instead of the
/// seed-derived one — the replay path. Validation derives its expectations
/// from the events themselves (any bit flip => corrupting, any permanent
/// event, a cut or a chip freeze => permanent); spec.mix is used only for
/// labelling.
router::ChaosResult run_chaos_events(const ClusterChaosSpec& spec,
                                     const std::vector<sim::FaultEvent>& events);

/// Throws std::invalid_argument naming the first event of `events` that
/// targets a link or chip `spec`'s fabric does not have
/// (ClusterConfig::validate()).
void check_schedule(const ClusterChaosSpec& spec,
                    const std::vector<sim::FaultEvent>& events);

/// The 8 standard cluster mixes: each kind alone, corrupt+stall,
/// corrupt+cut, stall+freeze, everything, and the clean-fabric control.
std::vector<ClusterChaosMix> standard_cluster_mixes();

/// Parses a '+'-separated mix string ("corrupt+stall+cut+freeze") into
/// `out` (split by router::split_mix). Returns false on an unknown kind
/// name or an empty token.
bool parse_cluster_mix(const std::string& s, ClusterChaosMix* out);

// ---------------------------------------------------------------------------
// Repro bundles: the spec codec. make_repro, replay_repro and minimize_repro
// are router/repro.h's, and so are the event codec and the signature object.

using ClusterChaosRepro = router::Repro<ClusterChaosSpec>;

/// Serializes a repro as a self-contained JSON document (schema
/// "raw-cluster-chaos-repro/v3": sim::FaultEvent objects and the chip's
/// signature object; the digest is written as a hex string because 64-bit
/// values exceed JSON's interoperable integer range).
[[nodiscard]] std::string to_json(const ClusterChaosRepro& repro);

/// Parses a document produced by to_json, or a v1/v2 document, whose
/// outcome keys "pass", "failure", "degraded" and "drained" map onto the
/// signature (the failure's category; drained reads as kDrained, or
/// kDrainedDegraded when degraded, and not drained as kLossQuiesced) and
/// whose v1 events spell link and chip kinds trunk_corrupt, trunk_stall,
/// trunk_cut and chip_freeze. A missing or unknown "schema" is rejected. On
/// failure returns false and, if `error` is non-null, stores a one-line
/// description.
bool from_json(const std::string& text, ClusterChaosRepro* out,
               std::string* error = nullptr);

/// Either kind of repro bundle. Cluster code is the lowest layer that sees
/// both, so the one bundle loader lives here.
using Repro = std::variant<router::ChaosRepro, ClusterChaosRepro>;

/// Loads either bundle, dispatching on the marker the document carries:
/// "version" (1 or 2) is a chip bundle, "schema" a cluster bundle.
bool parse_repro(const std::string& text, Repro* out,
                 std::string* error = nullptr);
/// parse_repro over a file's contents.
bool load_repro(const std::string& path, Repro* out,
                std::string* error = nullptr);

}  // namespace raw::cluster
