// The cluster's leaf-spine over 4-port router chips.
//
// Topology::build maps a ClusterConfig onto concrete wiring: every chip
// port is assigned a role (host line or inter-chip trunk), every trunk is
// expanded into two unidirectional link plans, every host line gets a
// global host id, and chip-local forwarding is precomputed as a next-hop
// table (shortest path with destination-hash ECMP over equal-cost trunk
// ports) plus a host-to-host hop-count matrix the egress cards use to
// validate the per-chip TTL decrements end to end.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/cluster_config.h"

namespace raw::cluster {

enum class PortRole : std::uint8_t {
  kHost,   // host line: cluster input + output cards attach here
  kTrunk,  // inter-chip trunk: trunk egress + ingress cards attach here
};

/// One direction of an inter-chip trunk: words leave `src_chip` through
/// port `src_port`'s egress edge and arrive at `dst_chip` port `dst_port`'s
/// ingress edge. A full-duplex trunk contributes two of these.
struct LinkPlan {
  int src_chip = -1;
  int src_port = -1;
  int dst_chip = -1;
  int dst_port = -1;
};

/// One host line: global host id = index into Topology::hosts.
struct HostPlan {
  int chip = -1;
  int port = -1;
};

struct Topology {
  int num_chips = 0;
  std::vector<std::array<PortRole, 4>> roles;  // [chip][port]
  std::vector<LinkPlan> links;                 // unidirectional
  std::vector<HostPlan> hosts;                 // host id -> attachment

  /// next_hop[chip][host]: local output port toward `host` (the host port
  /// itself on its home chip; otherwise a trunk port on a shortest path,
  /// picked by destination hash among equal-cost candidates).
  std::vector<std::vector<int>> next_hop;
  /// hops[src_host][dst_host]: chips traversed end to end (>= 1; each chip
  /// decrements TTL exactly once).
  std::vector<std::vector<int>> hops;

  /// host id of the host attached at (chip, port), or -1.
  [[nodiscard]] int host_at(int chip, int port) const;
  /// index into `links` of the plan leaving (chip, port), or -1.
  [[nodiscard]] int link_from(int chip, int port) const;
  /// The reverse direction of unidirectional link `l` (same trunk), or -1.
  [[nodiscard]] int reverse_link(int l) const;

  /// Builds the leaf-spine for `cfg` (cfg.validate() must have passed).
  static Topology build(const ClusterConfig& cfg);

  /// Fail-over routing: next_hop recomputed over the surviving fabric.
  struct RerouteResult {
    /// next_hop[chip][host]: local output port toward `host`, or -1 when no
    /// surviving path exists (rows of dead chips are all -1). Survivors use
    /// the same shortest-path + destination-hash ECMP rule as build(), so
    /// the result is deterministic for a given failure set.
    std::vector<std::vector<int>> next_hop;
    /// Hosts some alive chip can no longer reach (sorted): hosts on dead
    /// chips, plus hosts severed from part of the fabric by a partition.
    std::vector<int> unreachable_hosts;
  };

  /// Recomputes routes excluding `link_dead` links (indexed like `links`),
  /// `chip_dead` chips, and every link touching a dead chip. Unlike
  /// build(), a disconnected survivor fabric is not an error: unreachable
  /// (chip, host) pairs get next_hop -1 and the host is reported.
  [[nodiscard]] RerouteResult reroute(const std::vector<bool>& link_dead,
                                      const std::vector<bool>& chip_dead) const;
};

}  // namespace raw::cluster
