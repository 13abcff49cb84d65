// Synthetic traffic generation for all experiments.
//
// The thesis drives the router from line cards at full rate ("peak" uses a
// conflict-free permutation of destinations, "average" uniform-random
// destinations under complete fairness, §7.2/§7.3). These generators
// reproduce those workloads plus the bursty/hotspot patterns used by the
// fabric background experiments, deterministically from a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace raw::net {

enum class DestPattern : std::uint8_t {
  kPermutation,  // fixed conflict-free mapping (peak workload)
  kUniform,      // iid uniform over all ports (average workload)
  kHotspot,      // a fraction of traffic targets one port
  kLoopback,     // dst == src (control experiments)
};

enum class SizeDist : std::uint8_t {
  kFixed,    // every packet `fixed_bytes`
  kBimodal,  // small with prob bimodal_small_fraction, else large
  kImix,     // 40/576/1500 bytes at 7:4:1 (classic Internet mix)
  kUniformRange,  // uniform in [min_bytes, max_bytes]
};

struct TrafficConfig {
  int num_ports = 4;

  DestPattern pattern = DestPattern::kUniform;
  /// kPermutation: explicit src->dst map; empty means dst = (src+1) % N.
  std::vector<int> permutation;
  int hotspot_port = 0;
  double hotspot_fraction = 0.5;  // remainder is uniform

  SizeDist size = SizeDist::kFixed;
  common::ByteCount fixed_bytes = 64;
  common::ByteCount small_bytes = 64;
  common::ByteCount large_bytes = 1024;
  double bimodal_small_fraction = 0.5;
  common::ByteCount min_bytes = 64;
  common::ByteCount max_bytes = 1500;

  /// Offered load as a fraction of line rate (1.0 = saturated inputs).
  double load = 1.0;
  /// Mean packets per burst; > 1 gives on/off (bursty) arrivals whose idle
  /// periods are lumped between bursts at the same long-run load.
  double mean_burst_packets = 1.0;

  /// Cluster grouping (multi-chip fabrics): ports are partitioned into
  /// groups (one per chip) by `group_of[port]`. When set, destination draws
  /// for kUniform — and the non-hotspot remainder of kHotspot — first decide
  /// remote-vs-local with probability `remote_fraction`, then pick uniformly
  /// inside the chosen set, so the cross-chip share of a workload is an
  /// explicit knob instead of an artifact of the port count. Empty (the
  /// default) keeps the flat single-chip behaviour bit-identical.
  std::vector<int> group_of;
  double remote_fraction = 0.5;

  /// Heavy-tailed flow mode (first slice of the trace tier): packets arrive
  /// in flows whose length in packets is bounded-Pareto distributed
  /// (inverse-CDF on the port's seeded RNG, so fully deterministic) and
  /// whose destination is drawn once per flow — elephants pin a destination
  /// for thousands of packets while mice come and go. Composes with the
  /// size distribution and load/burst gap model unchanged.
  bool pareto_flows = false;
  /// Tail index; 1 < alpha < 2 gives the classic heavy tail (smaller =
  /// heavier). Must be > 0.
  double pareto_alpha = 1.2;
  std::uint64_t flow_min_packets = 1;
  std::uint64_t flow_max_packets = 16384;
};

/// The largest packet `config`'s size distribution can draw.
[[nodiscard]] common::ByteCount max_packet_bytes(const TrafficConfig& config);

struct PacketDesc {
  int dst_port = 0;
  common::ByteCount bytes = 0;
  /// Line idle cycles to insert before this packet's first word (arrival
  /// process; 0 under saturation).
  common::Cycle gap_cycles = 0;
};

class TrafficGen {
 public:
  TrafficGen(TrafficConfig config, std::uint64_t seed);

  /// Next packet offered at `src_port`.
  PacketDesc next(int src_port);

  [[nodiscard]] const TrafficConfig& config() const { return config_; }

 private:
  [[nodiscard]] int draw_dest(int src_port, common::Rng& rng);
  /// Grouped (cluster) destination draw: remote-vs-local coin, then uniform
  /// within the chosen candidate set.
  [[nodiscard]] int draw_grouped(int src_port, common::Rng& rng);
  [[nodiscard]] common::ByteCount draw_size(common::Rng& rng);
  /// Bounded-Pareto flow length in packets, in
  /// [flow_min_packets, flow_max_packets].
  [[nodiscard]] std::uint64_t draw_flow_packets(common::Rng& rng) const;

  TrafficConfig config_;
  std::vector<common::Rng> per_port_rng_;
  std::vector<std::uint64_t> burst_left_;  // packets remaining in current burst
  // pareto_flows state: packets left in the port's current flow and the
  // flow's pinned destination.
  std::vector<std::uint64_t> flow_left_;
  std::vector<int> flow_dst_;
  // Grouped-draw candidate sets, indexed by group id: the ports inside the
  // group and the ports outside it (built once when group_of is set).
  std::vector<std::vector<int>> local_ports_;
  std::vector<std::vector<int>> remote_ports_;
};

}  // namespace raw::net
