// Declarative description of a multi-chip cluster fabric: N rotating-
// crossbar router chips in a leaf-spine, their line-card ports wired
// together through token-throttled inter-chip links. The config is pure
// data; ClusterFabric turns it into chips, links and cards, and
// Topology::build turns it into port roles and routes. Every chip runs the
// single-chip router's default settings (RouterConfig{}).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/traffic.h"
#include "sim/fault_plan.h"

namespace raw::cluster {

/// Single-spine star, or a spine ring with 2 leaf ports per spine once one
/// spine cannot fan out far enough (topology.h).
enum class TopologyKind : std::uint8_t { kLeafSpine };

struct ClusterConfig {
  int num_chips = 2;
  /// Kept only for the benchmark harness, which sets it.
  TopologyKind topology = TopologyKind::kLeafSpine;

  /// One-way inter-chip link latency in chip cycles. Also the conservative
  /// lookahead and the epoch: chips advance independently for exactly this
  /// many cycles between synchronisation barriers, so it must be >= 1.
  common::Cycle link_latency = 16;
  /// Token-bucket bandwidth throttle: a link earns `throttle_numer` word
  /// credits every `throttle_denom` cycles (burst cap = numer), so 1/1 is
  /// full line rate and 1/4 a quarter-rate trunk. Mirrors the
  /// FireSim-style numer/denom link throttle.
  std::uint64_t throttle_numer = 1;
  std::uint64_t throttle_denom = 1;
  /// Thread-per-chip worker threads. 0 resolves via RAWSIM_THREADS and
  /// falls back to serial; any resolved count is digest-identical to the
  /// serial epoch schedule.
  int threads = 0;

  /// CRC+seq reliable trunk links: corrupted words become retransmits with
  /// zero damage instead of propagating into the chips. Off by default (and
  /// bit-neutral when off): the faultless digests match builds that predate
  /// the layer.
  bool reliable_links = false;

  /// Epoch-granular cluster watchdog + deterministic fail-over: a confirmed
  /// permanent link cut or chip death triggers rerouting around the failed
  /// element and the run continues degraded. Off by default.
  bool failover = false;
  /// Cycles between watchdog samples of per-chip and per-link health. Must
  /// be positive when failover is on (detection latency is one interval).
  common::Cycle watchdog_interval = 512;

  /// Scheduled link and chip faults, applied at epoch barriers (empty =
  /// none, zero cost). Targets are checked by validate().
  std::vector<sim::FaultEvent> faults;

  /// Host traffic template. num_ports and group_of are overwritten by the
  /// fabric (one port per host, grouped by chip); remote_fraction sets the
  /// cross-chip share of destination draws.
  net::TrafficConfig traffic;

  /// Rejects nonsensical knobs (a chip count outside [2, 32], zero link
  /// latency, a throttle that exceeds line rate, negative threads, a
  /// remote fraction outside [0, 1], a zero watchdog interval with
  /// fail-over armed, a fault event whose target is not a link or chip of
  /// the topology). Throws std::invalid_argument naming the field or the
  /// event.
  void validate() const;
};

/// Per-chip master seed: every independent stream a chip owns (its traffic
/// generator, its fault plan) derives from this, so no two chips — and no
/// two cluster seeds — share an RNG stream.
inline std::uint64_t chip_seed(std::uint64_t cluster_seed, int chip_id) {
  return common::mix64(cluster_seed ^
                       common::mix64(static_cast<std::uint64_t>(chip_id) + 1));
}

}  // namespace raw::cluster
