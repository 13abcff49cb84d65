// Topology::build invariants across leaf-spine sizes: port roles are
// consistent with the link and host plans, every trunk is full-duplex,
// next-hop tables are loop-free shortest paths with destination-hash ECMP,
// and the hop matrix matches a walk of the next-hop tables.
#include <algorithm>
#include <array>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_config.h"
#include "cluster/topology.h"

namespace raw::cluster {
namespace {

ClusterConfig make(int chips) {
  ClusterConfig cfg;
  cfg.num_chips = chips;
  cfg.validate();
  return cfg;
}

/// Follows next_hop from src_host's chip to dst_host, counting chips, and
/// fails on any loop (bounded walk) or dead end.
int walk(const Topology& t, int src_host, int dst_host) {
  int chip = t.hosts[static_cast<std::size_t>(src_host)].chip;
  const int dst_chip = t.hosts[static_cast<std::size_t>(dst_host)].chip;
  const int dst_port = t.hosts[static_cast<std::size_t>(dst_host)].port;
  int hops = 1;  // the chip a packet enters at counts
  while (chip != dst_chip) {
    const int port = t.next_hop[static_cast<std::size_t>(chip)]
                               [static_cast<std::size_t>(dst_host)];
    EXPECT_EQ(t.roles[static_cast<std::size_t>(chip)]
                     [static_cast<std::size_t>(port)],
              PortRole::kTrunk);
    const int l = t.link_from(chip, port);
    EXPECT_GE(l, 0);
    chip = t.links[static_cast<std::size_t>(l)].dst_chip;
    ++hops;
    EXPECT_LE(hops, t.num_chips) << "routing loop toward host " << dst_host;
    if (hops > t.num_chips) return -1;
  }
  EXPECT_EQ(t.next_hop[static_cast<std::size_t>(chip)]
                      [static_cast<std::size_t>(dst_host)],
            dst_port);
  return hops;
}

void check_invariants(const Topology& t) {
  // Every link leaves a trunk port and arrives at a trunk port, and the
  // reverse direction exists.
  std::set<std::pair<int, int>> sources;
  std::set<std::pair<int, int>> sinks;
  for (const LinkPlan& l : t.links) {
    EXPECT_EQ(t.roles[static_cast<std::size_t>(l.src_chip)]
                     [static_cast<std::size_t>(l.src_port)],
              PortRole::kTrunk);
    EXPECT_EQ(t.roles[static_cast<std::size_t>(l.dst_chip)]
                     [static_cast<std::size_t>(l.dst_port)],
              PortRole::kTrunk);
    EXPECT_TRUE(sources.insert({l.src_chip, l.src_port}).second)
        << "two links leave chip " << l.src_chip << " port " << l.src_port;
    EXPECT_TRUE(sinks.insert({l.dst_chip, l.dst_port}).second)
        << "two links enter chip " << l.dst_chip << " port " << l.dst_port;
    bool reverse = false;
    for (const LinkPlan& r : t.links) {
      if (r.src_chip == l.dst_chip && r.src_port == l.dst_port &&
          r.dst_chip == l.src_chip && r.dst_port == l.src_port) {
        reverse = true;
        break;
      }
    }
    EXPECT_TRUE(reverse) << "trunk is not full-duplex";
  }
  // Every trunk port has exactly one outgoing and one incoming link; every
  // host port has exactly one host plan.
  for (int c = 0; c < t.num_chips; ++c) {
    for (int p = 0; p < 4; ++p) {
      const PortRole role =
          t.roles[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
      const bool is_source = sources.count({c, p}) != 0;
      const bool is_sink = sinks.count({c, p}) != 0;
      const bool is_host = t.host_at(c, p) >= 0;
      EXPECT_EQ(is_source, role == PortRole::kTrunk);
      EXPECT_EQ(is_sink, role == PortRole::kTrunk);
      EXPECT_EQ(is_host, role == PortRole::kHost);
    }
  }
  // Host plans round-trip through host_at.
  for (std::size_t h = 0; h < t.hosts.size(); ++h) {
    EXPECT_EQ(t.host_at(t.hosts[h].chip, t.hosts[h].port),
              static_cast<int>(h));
  }
  // Walking the next-hop tables reproduces the hop matrix exactly.
  for (std::size_t s = 0; s < t.hosts.size(); ++s) {
    for (std::size_t d = 0; d < t.hosts.size(); ++d) {
      EXPECT_EQ(walk(t, static_cast<int>(s), static_cast<int>(d)),
                t.hops[s][d])
          << "hosts " << s << " -> " << d;
    }
  }
}

TEST(TopologyTest, LeafSpineSmallUsesSingleSpineStar) {
  for (const int n : {2, 4, 5}) {
    const Topology t = Topology::build(make(n));
    check_invariants(t);
    // Chip 0 is the spine and every other chip a leaf on one trunk: each
    // leaf keeps 3 host ports, the spine the 5 - n ports no leaf uses. Two
    // chips are one trunk with 6 hosts.
    EXPECT_EQ(static_cast<int>(t.hosts.size()), 2 * n + 2) << n << " chips";
    EXPECT_EQ(t.links.size(), static_cast<std::size_t>(2 * (n - 1)));
    // Any cross-leaf path is 3 chips (leaf -> spine -> leaf).
    for (std::size_t s = 0; s < t.hosts.size(); ++s) {
      for (std::size_t d = 0; d < t.hosts.size(); ++d) {
        EXPECT_LE(t.hops[s][d], 3);
      }
    }
  }
}

TEST(TopologyTest, LeafSpineScalesThroughSpineRing) {
  for (const int n : {6, 10, 16}) {
    const Topology t = Topology::build(make(n));
    EXPECT_FALSE(t.hosts.empty());
    check_invariants(t);
  }
}

/// All-pairs chip distances over the trunks (BFS).
std::vector<std::vector<int>> chip_distances(const Topology& t) {
  const auto n = static_cast<std::size_t>(t.num_chips);
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    dist[s][s] = 0;
    std::vector<int> frontier{static_cast<int>(s)};
    while (!frontier.empty()) {
      std::vector<int> next;
      for (const int c : frontier) {
        for (const LinkPlan& l : t.links) {
          if (l.src_chip != c) continue;
          int& d = dist[s][static_cast<std::size_t>(l.dst_chip)];
          if (d != -1) continue;
          d = dist[s][static_cast<std::size_t>(c)] + 1;
          next.push_back(l.dst_chip);
        }
      }
      frontier = std::move(next);
    }
  }
  return dist;
}

TEST(TopologyTest, EcmpNextHopsAreDeterministicAndValid) {
  // 16 chips need a ring of 6 spines: spines three hops apart reach each
  // other both ways round, so some routes have two equal-cost trunks.
  const Topology a = Topology::build(make(16));
  const Topology b = Topology::build(make(16));
  EXPECT_EQ(a.next_hop, b.next_hop);
  EXPECT_EQ(a.hops, b.hops);

  const std::vector<std::vector<int>> dist = chip_distances(a);
  std::size_t widest = 0;
  for (int c = 0; c < a.num_chips; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (std::size_t h = 0; h < a.hosts.size(); ++h) {
      const auto home = static_cast<std::size_t>(a.hosts[h].chip);
      if (home == ci) continue;
      std::vector<int> candidates;
      for (int p = 0; p < 4; ++p) {
        const int l = a.link_from(c, p);
        if (l < 0) continue;
        const auto nb =
            static_cast<std::size_t>(a.links[static_cast<std::size_t>(l)].dst_chip);
        if (dist[nb][home] == dist[ci][home] - 1) candidates.push_back(p);
      }
      // The pick is one of the equal-cost trunks, hashed by destination.
      ASSERT_FALSE(candidates.empty()) << "chip " << c << " host " << h;
      EXPECT_EQ(a.next_hop[ci][h], candidates[h % candidates.size()])
          << "chip " << c << " host " << h;
      widest = std::max(widest, candidates.size());
    }
  }
  EXPECT_GE(widest, 2u);
}

}  // namespace
}  // namespace raw::cluster
