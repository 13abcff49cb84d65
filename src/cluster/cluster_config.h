// Declarative description of a multi-chip cluster fabric: N rotating-
// crossbar router chips whose line-card ports are wired together through
// seeded, token-throttled inter-chip links under one of three topologies.
// The config is pure data; ClusterFabric turns it into chips, links and
// cards, and Topology::build turns it into port roles and routes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/traffic.h"
#include "router/tile_programs.h"
#include "sim/fault_plan.h"

namespace raw::cluster {

enum class TopologyKind : std::uint8_t {
  kPointToPoint,  // chain: chip i <-> chip i+1, end ports become hosts
  kLeafSpine,     // single-spine star, or a spine ring with 2 leaf ports
                  // per spine once one spine cannot fan out far enough
  kFatTree,       // k-ary fat-tree (k = 2 or 4): edge/aggregation/core
};

struct ClusterConfig {
  int num_chips = 2;
  TopologyKind topology = TopologyKind::kLeafSpine;
  /// Fat-tree arity; only read when topology == kFatTree. k=2 needs exactly
  /// 5 chips (1 core, 2 pods of 1 agg + 1 edge), k=4 exactly 20.
  int fat_tree_k = 2;

  /// One-way inter-chip link latency in chip cycles. Also the conservative
  /// lookahead: chips advance independently for up to this many cycles
  /// between synchronisation epochs, so it must be >= 1.
  common::Cycle link_latency = 16;
  /// Token-bucket bandwidth throttle: a link earns `throttle_numer` word
  /// credits every `throttle_denom` cycles (burst cap = numer), so 1/1 is
  /// full line rate and 1/4 a quarter-rate trunk. Mirrors the
  /// FireSim-style numer/denom link throttle.
  std::uint64_t throttle_numer = 1;
  std::uint64_t throttle_denom = 1;
  /// Words buffered in one link direction; a full link backpressures the
  /// sending chip's trunk card.
  std::size_t link_capacity_words = 256;
  /// Deterministic per-word latency jitter amplitude in cycles (uniform in
  /// [0, jitter], monotonically clamped so words never reorder). 0 = none.
  common::Cycle link_jitter = 0;
  /// Cycles per synchronisation epoch. 0 (default) resolves to
  /// link_latency — the largest window that keeps cross-chip timing exact;
  /// a nonzero value must not exceed link_latency.
  common::Cycle epoch_cycles = 0;
  /// Thread-per-chip worker threads. 0 resolves via RAWSIM_THREADS and
  /// falls back to serial; any resolved count is digest-identical to the
  /// serial epoch schedule.
  int threads = 0;

  /// CRC+seq reliable trunk links: corrupted words become retransmits with
  /// zero damage instead of propagating into the chips. Off by default (and
  /// bit-neutral when off): the faultless digests match builds that predate
  /// the layer.
  bool reliable_links = false;
  /// Retransmits per word before a reliable link gives up and delivers the
  /// corrupt word. Must be >= 1 when reliable_links is on.
  std::uint32_t link_retransmit_limit = 3;
  /// Delivery slip per NACK round trip, in cycles.
  common::Cycle link_retransmit_rtt = 4;

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

  /// Per-chip settings, mirroring RouterConfig.
  std::size_t link_fifo_depth = 8;
  std::size_t line_card_queue_words = 1 << 15;
  router::RuntimeConfig runtime;

  /// Host traffic template. num_ports and group_of are overwritten by the
  /// fabric (one port per host, grouped by chip); remote_fraction sets the
  /// cross-chip share of destination draws.
  net::TrafficConfig traffic;

  /// Rejects nonsensical knobs (zero chips, zero link latency, a throttle
  /// that exceeds line rate, an epoch longer than the lookahead window, a
  /// malformed fat-tree, a zero retransmit budget on reliable links, a zero
  /// watchdog interval with fail-over armed, a fault event whose target is
  /// not a link or chip of the topology). Throws std::invalid_argument
  /// naming the field or the event.
  void validate() const;
};

/// Per-chip master seed: every independent stream a chip owns (its traffic
/// generator, its fault plan) derives from this, so no two chips — and no
/// two cluster seeds — share an RNG stream.
inline std::uint64_t chip_seed(std::uint64_t cluster_seed, int chip_id) {
  return common::mix64(cluster_seed ^
                       common::mix64(static_cast<std::uint64_t>(chip_id) + 1));
}

/// Per-link jitter seed, salted away from the chip-seed family.
inline std::uint64_t link_seed(std::uint64_t cluster_seed, int link_id) {
  return common::mix64(cluster_seed ^
                       common::mix64(static_cast<std::uint64_t>(link_id) +
                                     std::uint64_t{0x1000001}));
}

}  // namespace raw::cluster
