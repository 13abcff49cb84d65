// Cluster chaos harness: seeded inter-chip fault mixes driven through a
// whole ClusterFabric with the recovery invariants checked afterwards.
//
// Each (seed, mix) combination builds a ClusterFaultPlan from the mix's
// fault kinds, runs the cluster under grouped uniform traffic with the
// cluster invariant checks swept between run segments, drains, and
// verifies:
//
//   * packet conservation with write-off accounting — every offered packet
//     ends as delivered, dropped at a card, invalid, ingress-dropped,
//     abandoned/written off, or lost at drain;
//   * link books — per link, sent == delivered + in_flight + written_off,
//     and the CRC/seq retransmit window holds contiguous sequence numbers;
//   * zero damage under reliable links — a corrupting mix on CRC+seq trunks
//     produces retransmits, not errors or losses;
//   * clean degradation — a permanent fault (trunk cut, chip freeze) with
//     fail-over armed must end kDegraded with a *clean* drain (losses
//     explained by the confirmed failure) and a rerouted generation;
//   * the cluster still forwards — end-to-end validated deliveries stay
//     nonzero.
//
// Used by tools/rawchaos --cluster (one combination or the seeds x mixes
// sweep, which the tier2 ctest runs bounded) and tools/rawstat --cluster
// --chaos. Deterministic: the same (spec, events) pair produces the same
// ClusterChaosResult — and the same cluster digest — at any worker count,
// which is what makes a recorded repro replayable.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/cluster_faults.h"
#include "router/repro.h"

namespace raw::cluster {

/// Which inter-chip fault kinds a run injects.
struct ClusterChaosMix {
  bool corrupts = false;  // trunk word bit flips
  bool stalls = false;    // transient link flaps
  bool cuts = false;      // permanent trunk-pair cuts
  bool freezes = false;   // permanent whole-chip death

  /// Only bit flips corrupt words; everything else perturbs timing or
  /// connectivity.
  [[nodiscard]] bool corrupting() const { return corrupts; }
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
  TopologyKind topology = TopologyKind::kLeafSpine;
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

struct ClusterChaosResult {
  bool pass = false;
  std::string failure;  // first violated invariant, empty on pass
  std::uint64_t seed = 0;
  std::string mix;
  bool degraded = false;
  bool drained = false;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_card = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t faults_injected = 0;  // plan events fired
  std::uint64_t retransmits = 0;
  std::uint64_t delivered_corrupt = 0;
  std::uint64_t written_off_words = 0;
  std::uint64_t abandoned_packets = 0;
  int failover_generation = 0;
  std::uint64_t unreachable_hosts = 0;
  /// First invariant-monitor violation ("name: detail"), empty when clean.
  std::string invariant_failure;
  /// ClusterFabric::cluster_digest() at exit: the replay fingerprint.
  std::uint64_t digest = 0;
};

/// The ClusterConfig a chaos run builds from `spec` (without the fault
/// schedule) — exported so replay reconstructs the identical fabric.
ClusterConfig cluster_config_for(const ClusterChaosSpec& spec);

/// Builds the seeded fault schedule for `spec`. Cut events sever both
/// directions of one trunk at the same barrier (a fiber cut takes the
/// pair); freeze events kill one host-bearing chip, leaving at least one
/// other host-bearing chip alive so the fabric keeps forwarding.
std::vector<ClusterFaultEvent> make_cluster_fault_events(
    const ClusterChaosSpec& spec);

/// Runs one (seed, mix) combination and checks every invariant.
ClusterChaosResult run_cluster_chaos(const ClusterChaosSpec& spec);

/// Runs `spec`'s cluster under an *explicit* fault schedule instead of the
/// seed-derived one — the replay path. Validation derives its expectations
/// from the events themselves (any kTrunkCorrupt => corrupting, any
/// kTrunkCut/kChipFreeze => permanent); spec.mix is used only for
/// labelling.
ClusterChaosResult run_cluster_chaos_events(
    const ClusterChaosSpec& spec, const std::vector<ClusterFaultEvent>& events);

/// The 8 standard cluster mixes: each kind alone, corrupt+stall,
/// corrupt+cut, stall+freeze, everything, and the clean-fabric control.
std::vector<ClusterChaosMix> standard_cluster_mixes();

/// Parses a '+'-separated mix string ("corrupt+stall+cut+freeze") into
/// `out`. Returns false on an unknown kind name.
bool parse_cluster_mix(const std::string& s, ClusterChaosMix* out);

// ---------------------------------------------------------------------------
// Repro bundles: record a (spec, events) pair as JSON, replay it
// bit-identically, and ddmin its schedule — the same codec (common/json) and
// minimizer (router::ddmin) as chip bundles.

struct ClusterChaosRepro {
  ClusterChaosSpec spec;
  std::vector<ClusterFaultEvent> events;
  bool pass = true;
  std::string failure;  // failure recorded at capture
  bool degraded = false;
  bool drained = false;
  std::uint64_t digest = 0;
};

/// The bundle for a run of `spec` under `events` that produced `r`.
[[nodiscard]] ClusterChaosRepro make_repro(
    const ClusterChaosSpec& spec, const std::vector<ClusterFaultEvent>& events,
    const ClusterChaosResult& r);

/// Serializes a repro as a self-contained JSON document (schema
/// "raw-cluster-chaos-repro/v1"; the digest is written as a hex string
/// because 64-bit values exceed JSON's interoperable integer range).
[[nodiscard]] std::string to_json(const ClusterChaosRepro& repro);

/// Parses a document produced by to_json; a missing or unknown "schema" is
/// rejected. On failure returns false and, if `error` is non-null, stores a
/// one-line description.
bool from_json(const std::string& text, ClusterChaosRepro* out,
               std::string* error = nullptr);

/// Replays a recorded bundle and verifies the run reproduces the recorded
/// digest, status and drain outcome. Returns the replay result with `pass`
/// reflecting the comparison (a faithfully reproduced *failure* is a
/// replay pass).
ClusterChaosResult replay_cluster_repro(const ClusterChaosRepro& repro,
                                        std::string* why = nullptr);

/// True when two bundles record the same outcome: pass, failure category
/// (the text before ':'), degraded and drained — the cluster analogue of
/// comparing chip ChaosSignatures.
[[nodiscard]] bool same_outcome(const ClusterChaosRepro& a,
                                const ClusterChaosRepro& b);

/// ddmin over `target`'s schedule: the subset's run must reproduce the
/// outcome `target` records (same_outcome). Returns the bundle of the
/// minimal schedule's own run (its digest differs from the full schedule's).
[[nodiscard]] ClusterChaosRepro minimize_repro(
    const ClusterChaosRepro& target, router::MinimizeStats* stats = nullptr);

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
