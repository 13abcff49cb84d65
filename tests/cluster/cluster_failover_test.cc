// Cluster fail-over: deterministic reroute tables over survivor fabrics,
// watchdog detection of cuts and chip death within one interval, write-off
// conservation, clean degraded drains, and digest-identical recovery at
// every worker count.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fabric.h"
#include "cluster/topology.h"
#include "sim/invariants.h"

namespace raw::cluster {
namespace {

ClusterConfig small_cluster(int chips, int threads) {
  ClusterConfig cfg;
  cfg.num_chips = chips;
  cfg.threads = threads;
  cfg.link_latency = 8;
  cfg.traffic.load = 0.25;
  cfg.traffic.fixed_bytes = 64;
  cfg.traffic.remote_fraction = 0.5;
  return cfg;
}

ClusterConfig failover_cluster(int chips, int threads) {
  ClusterConfig cfg = small_cluster(chips, threads);
  cfg.failover = true;
  cfg.watchdog_interval = 256;
  return cfg;
}

/// Both unidirectional links of trunk `t` (the builder wires the two
/// directions consecutively).
std::vector<sim::FaultEvent> cut_trunk(int trunk, common::Cycle at) {
  std::vector<sim::FaultEvent> events;
  for (int dir = 0; dir < 2; ++dir) {
    sim::FaultEvent e;
    e.kind = sim::FaultKind::kLinkStall;
    e.permanent = true;
    e.at = at;
    e.link = 2 * trunk + dir;
    events.push_back(e);
  }
  return events;
}

sim::FaultEvent freeze_chip(int chip, common::Cycle at) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kTileFreeze;
  e.permanent = true;
  e.at = at;
  e.chip = chip;
  return e;
}

// ---------------------------------------------------------------------------
// Topology::reroute — pure table computation, no fabric needed.

TEST(ClusterFailoverTest, RerouteWithNoFailuresMatchesBuild) {
  for (const int chips : {2, 4, 16}) {
    const Topology topo = Topology::build(small_cluster(chips, 1));
    const Topology::RerouteResult rr =
        topo.reroute(std::vector<bool>(topo.links.size(), false),
                     std::vector<bool>(static_cast<std::size_t>(chips), false));
    EXPECT_EQ(rr.next_hop, topo.next_hop) << chips << " chips";
    EXPECT_TRUE(rr.unreachable_hosts.empty()) << chips << " chips";
  }
}

TEST(ClusterFailoverTest, ChainCutPartitionsTheFabric) {
  // 4-chip leaf-spine (a star around spine 0): cutting leaf 3's uplink pair
  // splits the hosts into two islands, chip 3 and chips 0-2; every
  // cross-island pair becomes unreachable.
  const Topology topo = Topology::build(small_cluster(4, 1));
  std::vector<bool> link_dead(topo.links.size(), false);
  int uplink = -1;
  for (std::size_t l = 0; l < topo.links.size(); ++l) {
    if (topo.links[l].src_chip == 3 && topo.links[l].dst_chip == 0) {
      uplink = static_cast<int>(l);
    }
  }
  ASSERT_GE(uplink, 0);
  link_dead[static_cast<std::size_t>(uplink)] = true;
  link_dead[static_cast<std::size_t>(topo.reverse_link(uplink))] = true;
  const Topology::RerouteResult rr =
      topo.reroute(link_dead, std::vector<bool>(4, false));
  // A partition leaves *every* host unreachable from the far side, so every
  // host is reported.
  EXPECT_EQ(rr.unreachable_hosts.size(), topo.hosts.size());
  for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
    const int home = topo.hosts[h].chip;
    for (int c = 0; c < 4; ++c) {
      const int hop = rr.next_hop[static_cast<std::size_t>(c)][h];
      const bool same_side = (c == 3) == (home == 3);
      if (same_side) {
        EXPECT_GE(hop, 0) << "chip " << c << " host " << h;
      } else {
        EXPECT_EQ(hop, -1) << "chip " << c << " host " << h;
      }
    }
  }
}

TEST(ClusterFailoverTest, LeafSpineReroutesAroundASpineRingLink) {
  // 8 chips => a spine ring (3 spines); killing one leaf's trunk isolates
  // exactly that leaf's hosts, while everyone else keeps full routes.
  ClusterConfig cfg = small_cluster(8, 1);
  const Topology topo = Topology::build(cfg);
  // Find a leaf: a chip bearing hosts whose single trunk leads to a spine.
  int leaf = -1;
  int leaf_link = -1;
  for (std::size_t l = 0; l < topo.links.size(); ++l) {
    const int src = topo.links[l].src_chip;
    int trunks = 0;
    for (int p = 0; p < 4; ++p) {
      trunks +=
          topo.roles[static_cast<std::size_t>(src)][static_cast<std::size_t>(
              p)] == PortRole::kTrunk;
    }
    if (trunks == 1) {
      leaf = src;
      leaf_link = static_cast<int>(l);
      break;
    }
  }
  ASSERT_GE(leaf, 0);
  std::vector<bool> link_dead(topo.links.size(), false);
  link_dead[static_cast<std::size_t>(leaf_link)] = true;
  link_dead[static_cast<std::size_t>(topo.reverse_link(leaf_link))] = true;
  const Topology::RerouteResult rr =
      topo.reroute(link_dead, std::vector<bool>(8, false));
  // Isolation is symmetric, and unreachable_hosts is a union over every
  // alive chip's view: the leaf's hosts are lost to everyone else, and
  // everyone else's hosts are lost to the leaf — so every host is
  // reported.
  EXPECT_EQ(rr.unreachable_hosts.size(), topo.hosts.size());
  for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
    if (topo.hosts[h].chip != leaf) continue;
    // The isolated leaf still routes its own hosts locally...
    EXPECT_GE(rr.next_hop[static_cast<std::size_t>(leaf)][h], 0);
    // ...but no other chip reaches them.
    for (int c = 0; c < 8; ++c) {
      if (c == leaf) continue;
      EXPECT_EQ(rr.next_hop[static_cast<std::size_t>(c)][h], -1);
    }
  }
  // Hosts not on the isolated leaf stay reachable from every alive chip
  // except the leaf itself.
  for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
    if (topo.hosts[h].chip == leaf) continue;
    for (int c = 0; c < 8; ++c) {
      if (c == leaf) continue;
      EXPECT_GE(rr.next_hop[static_cast<std::size_t>(c)][h], 0)
          << "chip " << c << " host " << h;
    }
  }
}

TEST(ClusterFailoverTest, LeafSpineReroutesAroundADeadLeafChip) {
  // 8 chips => a ring of 3 spines (chips 0-2) and leaves 3-7, each on one
  // uplink. Killing leaf chip 7 loses exactly its hosts: every surviving
  // chip keeps full routes to every surviving host.
  constexpr int kDead = 7;
  const Topology topo = Topology::build(small_cluster(8, 1));
  std::vector<bool> chip_dead(8, false);
  chip_dead[kDead] = true;
  const Topology::RerouteResult rd =
      topo.reroute(std::vector<bool>(topo.links.size(), false), chip_dead);
  ASSERT_FALSE(rd.unreachable_hosts.empty());
  for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
    const bool on_dead = topo.hosts[h].chip == kDead;
    const bool reported =
        std::find(rd.unreachable_hosts.begin(), rd.unreachable_hosts.end(),
                  static_cast<int>(h)) != rd.unreachable_hosts.end();
    EXPECT_EQ(on_dead, reported) << "host " << h;
    if (on_dead) continue;
    for (int c = 0; c < 8; ++c) {
      if (c == kDead) continue;
      EXPECT_GE(rd.next_hop[static_cast<std::size_t>(c)][h], 0)
          << "chip " << c << " host " << h;
    }
  }
  // Dead-chip rows are fully invalidated.
  for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
    EXPECT_EQ(rd.next_hop[kDead][h], -1);
  }
}

// ---------------------------------------------------------------------------
// Full-fabric fail-over.

TEST(ClusterFailoverTest, TrunkCutIsDetectedWithinOneWatchdogInterval) {
  ClusterConfig cfg = failover_cluster(4, 1);
  cfg.faults = cut_trunk(1, 2000);
  ClusterFabric fabric(cfg, 11);
  fabric.run(2000);
  EXPECT_FALSE(fabric.degraded());  // cut fires at the 2000-cycle barrier
  fabric.run(cfg.watchdog_interval);  // at most one interval later...
  EXPECT_TRUE(fabric.degraded());     // ...the watchdog has confirmed it
  ASSERT_EQ(fabric.failover_reports().size(), 1u);
  const FailoverReport& r = fabric.failover_reports().front();
  EXPECT_LE(r.cycle, 2000 + cfg.watchdog_interval);
  EXPECT_EQ(r.dead_links.size(), 2u);
  EXPECT_TRUE(r.dead_chips.empty());
}

TEST(ClusterFailoverTest, MidRunCutReroutesAndDrainsClean) {
  ClusterConfig cfg = failover_cluster(4, 1);
  cfg.faults = cut_trunk(0, 3000);
  ClusterFabric fabric(cfg, 5);
  fabric.run(9000);
  EXPECT_TRUE(fabric.degraded());
  EXPECT_GE(fabric.failover_generation(), 1);
  // Degraded drain is a *clean* exit: losses are explained write-offs.
  EXPECT_TRUE(fabric.drain(400000));
  EXPECT_GT(fabric.delivered_packets(), 0u);
  // Conservation with write-off accounting.
  EXPECT_EQ(fabric.offered_packets(),
            fabric.dropped_at_card() + fabric.ledger().erased_total());
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    EXPECT_EQ(fabric.link(l).sent_total(),
              fabric.link(l).delivered_total() +
                  fabric.link(l).in_flight_words() +
                  fabric.link(l).written_off_total())
        << "link " << l;
  }
  // The isolated leaf's hosts are reported unreachable.
  EXPECT_FALSE(fabric.unreachable_hosts().empty());
}

TEST(ClusterFailoverTest, ChipFreezeIsConfirmedAndAbandonsItsInputs) {
  ClusterConfig cfg = failover_cluster(4, 1);
  cfg.faults = {freeze_chip(2, 2000)};
  ClusterFabric fabric(cfg, 13);
  // Detection needs up to two intervals: one to re-baseline the frozen
  // chip's cycle counter, one to observe zero progress.
  fabric.run(2000 + 2 * cfg.watchdog_interval);
  EXPECT_TRUE(fabric.degraded());
  ASSERT_EQ(fabric.failover_reports().size(), 1u);
  const FailoverReport& r = fabric.failover_reports().front();
  ASSERT_EQ(r.dead_chips.size(), 1u);
  EXPECT_EQ(r.dead_chips.front(), 2);
  // Every link touching the dead chip died with it.
  for (const int l : r.dead_links) {
    const LinkPlan& p = fabric.topology().links[static_cast<std::size_t>(l)];
    EXPECT_TRUE(p.src_chip == 2 || p.dst_chip == 2);
  }
  EXPECT_TRUE(fabric.drain(400000));
  EXPECT_EQ(fabric.offered_packets(),
            fabric.dropped_at_card() + fabric.ledger().erased_total());
  // The dead chip's hosts are unreachable and its input cards idle.
  EXPECT_FALSE(fabric.unreachable_hosts().empty());
  for (const int h : fabric.unreachable_hosts()) {
    EXPECT_EQ(fabric.topology().hosts[static_cast<std::size_t>(h)].chip, 2);
    EXPECT_TRUE(fabric.input(h).idle());
  }
}

TEST(ClusterFailoverTest, InvariantsHoldThroughFailover) {
  ClusterConfig cfg = failover_cluster(4, 1);
  cfg.reliable_links = true;
  cfg.faults = cut_trunk(1, 2000);
  ClusterFabric fabric(cfg, 17);
  sim::InvariantMonitor monitor;
  fabric.register_invariants(monitor);
  for (int chunk = 0; chunk < 16; ++chunk) {
    fabric.run(500);
    monitor.sweep(fabric.cycle());
  }
  EXPECT_TRUE(fabric.drain(400000));
  monitor.sweep(fabric.cycle());
  EXPECT_TRUE(monitor.ok()) << monitor.violations().front().name << ": "
                            << monitor.violations().front().detail;
  EXPECT_TRUE(fabric.degraded());
}

// ---------------------------------------------------------------------------
// Differential digests: any fault schedule, any worker count.

std::uint64_t digest_after_faults(const ClusterConfig& base, int threads,
                                  std::uint64_t seed) {
  ClusterConfig cfg = base;
  cfg.threads = threads;
  ClusterFabric fabric(cfg, seed);
  fabric.run(8000);
  (void)fabric.drain(400000);
  return fabric.cluster_digest();
}

TEST(ClusterFailoverTest, LinkCutDigestIdenticalAcrossWorkerCounts) {
  ClusterConfig cfg = failover_cluster(8, 1);
  cfg.reliable_links = true;
  cfg.faults = cut_trunk(2, 3000);
  const std::uint64_t serial = digest_after_faults(cfg, 1, 23);
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(digest_after_faults(cfg, workers, 23), serial)
        << workers << " workers";
  }
}

TEST(ClusterFailoverTest, ChipFreezeDigestIdenticalAcrossWorkerCounts) {
  ClusterConfig cfg = failover_cluster(8, 1);
  cfg.faults = {freeze_chip(3, 3000)};
  const std::uint64_t serial = digest_after_faults(cfg, 1, 29);
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(digest_after_faults(cfg, workers, 29), serial)
        << workers << " workers";
  }
}

TEST(ClusterFailoverTest, FaultsOffDigestUnchangedByRobustnessCode) {
  // A fabric with no faults, no reliable links and no failover must digest
  // identically whether or not the robustness members exist — i.e. the
  // digest must not mix any new state when the features are off. Guarded by
  // comparing two identically-configured runs (the cross-build guarantee is
  // covered by the recorded ext_cluster digests in EXPERIMENTS.md).
  ClusterConfig cfg = small_cluster(4, 1);
  const std::uint64_t a = digest_after_faults(cfg, 1, 31);
  const std::uint64_t b = digest_after_faults(cfg, 2, 31);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace raw::cluster
