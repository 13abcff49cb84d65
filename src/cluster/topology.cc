#include "cluster/topology.h"

#include <algorithm>
#include <queue>

#include "common/assert.h"

namespace raw::cluster {

namespace {

/// Accumulates roles/links/hosts with the invariant that a port gets
/// exactly one role. Hosts are assigned last, chip-major then port-minor,
/// so host ids are stable and independent of trunk emission order.
struct Builder {
  Topology t;
  std::vector<bool> host_eligible;  // false: spare ports stay kUnused

  explicit Builder(int num_chips) {
    t.num_chips = num_chips;
    t.roles.assign(static_cast<std::size_t>(num_chips),
                   {PortRole::kUnused, PortRole::kUnused, PortRole::kUnused,
                    PortRole::kUnused});
    host_eligible.assign(static_cast<std::size_t>(num_chips), true);
  }

  PortRole& role(int chip, int port) {
    return t.roles[static_cast<std::size_t>(chip)][static_cast<std::size_t>(port)];
  }

  /// Full-duplex trunk between (a, pa) and (b, pb): two unidirectional
  /// link plans.
  void trunk(int a, int pa, int b, int pb) {
    RAW_ASSERT_MSG(role(a, pa) == PortRole::kUnused &&
                       role(b, pb) == PortRole::kUnused,
                   "trunk port double-booked");
    role(a, pa) = PortRole::kTrunk;
    role(b, pb) = PortRole::kTrunk;
    t.links.push_back(LinkPlan{a, pa, b, pb});
    t.links.push_back(LinkPlan{b, pb, a, pa});
  }

  /// Every port still unused on a host-eligible chip becomes a host line.
  void assign_hosts() {
    for (int c = 0; c < t.num_chips; ++c) {
      if (!host_eligible[static_cast<std::size_t>(c)]) continue;
      for (int p = 0; p < 4; ++p) {
        if (role(c, p) != PortRole::kUnused) continue;
        role(c, p) = PortRole::kHost;
        t.hosts.push_back(HostPlan{c, p});
      }
    }
    RAW_ASSERT_MSG(!t.hosts.empty(), "topology left no host ports");
  }
};

void build_chain(Builder& b, int n) {
  // Chip i's port 1 faces right, port 3 faces left; the chain ends and all
  // port-0/port-2 lines become hosts.
  for (int i = 0; i + 1 < n; ++i) b.trunk(i, 1, i + 1, 3);
}

void build_leaf_spine(Builder& b, int n) {
  // Smallest spine tier that can attach every leaf: one spine fans out to
  // at most 4 leaves; a spine ring (ports 0/1 around the ring) leaves two
  // leaf-facing ports per spine.
  int spines = 1;
  while ((spines == 1 ? 4 : 2 * spines) < n - spines) ++spines;
  const int leaves = n - spines;
  if (spines == 1) {
    for (int l = 0; l < leaves; ++l) b.trunk(0, l, 1 + l, 0);
  } else {
    for (int j = 0; j < spines; ++j) b.trunk(j, 1, (j + 1) % spines, 0);
    for (int l = 0; l < leaves; ++l) {
      b.trunk(l % spines, 2 + l / spines, spines + l, 0);
    }
  }
  // Spare spine leaf-ports and every non-uplink leaf port become hosts.
}

void build_fat_tree(Builder& b, int k) {
  if (k == 4) {
    // 4 pods x (2 edge + 2 agg) + 4 core. Edge ports 0/1 are hosts, 2/3
    // uplinks; agg ports 0/1 face its pod's edges, 2/3 the core row; core
    // j,y reaches pod p's agg j through its port p.
    const auto edge = [](int p, int i) { return 4 * p + i; };
    const auto agg = [](int p, int j) { return 4 * p + 2 + j; };
    const auto core = [](int j, int y) { return 16 + 2 * j + y; };
    for (int p = 0; p < 4; ++p) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) b.trunk(edge(p, i), 2 + j, agg(p, j), i);
      }
      for (int j = 0; j < 2; ++j) {
        for (int y = 0; y < 2; ++y) b.trunk(agg(p, j), 2 + y, core(j, y), p);
      }
      b.host_eligible[static_cast<std::size_t>(agg(p, 0))] = false;
      b.host_eligible[static_cast<std::size_t>(agg(p, 1))] = false;
    }
    for (int j = 0; j < 2; ++j) {
      for (int y = 0; y < 2; ++y) {
        b.host_eligible[static_cast<std::size_t>(core(j, y))] = false;
      }
    }
  } else {
    // k=2, degenerate 5-chip tree: edges 0/1, aggs 2/3, core 4. Only the
    // edge switches carry hosts; spare agg/core ports stay unused.
    for (int p = 0; p < 2; ++p) {
      b.trunk(p, 1, 2 + p, 0);
      b.trunk(2 + p, 1, 4, p);
      b.host_eligible[static_cast<std::size_t>(2 + p)] = false;
    }
    b.host_eligible[4] = false;
  }
}

}  // namespace

int Topology::host_at(int chip, int port) const {
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h].chip == chip && hosts[h].port == port) {
      return static_cast<int>(h);
    }
  }
  return -1;
}

int Topology::link_from(int chip, int port) const {
  for (std::size_t l = 0; l < links.size(); ++l) {
    if (links[l].src_chip == chip && links[l].src_port == port) {
      return static_cast<int>(l);
    }
  }
  return -1;
}

int Topology::reverse_link(int l) const {
  const LinkPlan& f = links[static_cast<std::size_t>(l)];
  return link_from(f.dst_chip, f.dst_port);
}

Topology Topology::build(const ClusterConfig& cfg) {
  Builder b(cfg.num_chips);
  switch (cfg.topology) {
    case TopologyKind::kPointToPoint:
      build_chain(b, cfg.num_chips);
      break;
    case TopologyKind::kLeafSpine:
      build_leaf_spine(b, cfg.num_chips);
      break;
    case TopologyKind::kFatTree:
      build_fat_tree(b, cfg.fat_tree_k);
      break;
  }
  b.assign_hosts();
  Topology t = std::move(b.t);

  // Chip adjacency (port-sorted, so equal-cost candidate order is stable)
  // and all-pairs BFS distances.
  const auto n = static_cast<std::size_t>(t.num_chips);
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (port, neighbor)
  for (const LinkPlan& l : t.links) {
    adj[static_cast<std::size_t>(l.src_chip)].emplace_back(l.src_port,
                                                           l.dst_chip);
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());

  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    dist[s][s] = 0;
    std::queue<int> q;
    q.push(static_cast<int>(s));
    while (!q.empty()) {
      const int c = q.front();
      q.pop();
      for (const auto& [port, nb] : adj[static_cast<std::size_t>(c)]) {
        if (dist[s][static_cast<std::size_t>(nb)] == -1) {
          dist[s][static_cast<std::size_t>(nb)] =
              dist[s][static_cast<std::size_t>(c)] + 1;
          q.push(nb);
        }
      }
    }
    for (std::size_t d = 0; d < n; ++d) {
      RAW_ASSERT_MSG(dist[s][d] >= 0, "cluster topology is not connected");
    }
  }

  // Next hops: the host port at home; elsewhere a shortest-path trunk port,
  // destination-hashed over the equal-cost candidates (deterministic ECMP).
  const std::size_t num_hosts = t.hosts.size();
  t.next_hop.assign(n, std::vector<int>(num_hosts, -1));
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t h = 0; h < num_hosts; ++h) {
      const auto home = static_cast<std::size_t>(t.hosts[h].chip);
      if (home == c) {
        t.next_hop[c][h] = t.hosts[h].port;
        continue;
      }
      std::vector<int> candidates;
      for (const auto& [port, nb] : adj[c]) {
        if (dist[static_cast<std::size_t>(nb)][home] == dist[c][home] - 1) {
          candidates.push_back(port);
        }
      }
      RAW_ASSERT_MSG(!candidates.empty(), "no shortest-path trunk candidate");
      t.next_hop[c][h] =
          candidates[h % candidates.size()];
    }
  }

  // Hop matrix: every chip on the path (dist + 1, ECMP paths are all
  // shortest) decrements TTL exactly once.
  t.hops.assign(num_hosts, std::vector<int>(num_hosts, 0));
  for (std::size_t a = 0; a < num_hosts; ++a) {
    for (std::size_t d = 0; d < num_hosts; ++d) {
      t.hops[a][d] = dist[static_cast<std::size_t>(t.hosts[a].chip)]
                         [static_cast<std::size_t>(t.hosts[d].chip)] +
                     1;
    }
  }
  return t;
}

Topology::RerouteResult Topology::reroute(
    const std::vector<bool>& link_dead,
    const std::vector<bool>& chip_dead) const {
  RAW_ASSERT_MSG(link_dead.size() == links.size() &&
                     chip_dead.size() == static_cast<std::size_t>(num_chips),
                 "reroute mask sizes must match the topology");
  const auto n = static_cast<std::size_t>(num_chips);

  // Survivor adjacency, port-sorted like build() so the equal-cost
  // candidate order — and therefore the ECMP hash pick — is stable.
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (port, neighbor)
  for (std::size_t l = 0; l < links.size(); ++l) {
    const LinkPlan& p = links[l];
    if (link_dead[l]) continue;
    if (chip_dead[static_cast<std::size_t>(p.src_chip)] ||
        chip_dead[static_cast<std::size_t>(p.dst_chip)]) {
      continue;
    }
    adj[static_cast<std::size_t>(p.src_chip)].emplace_back(p.src_port,
                                                           p.dst_chip);
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());

  // BFS distances over the survivor fabric; -1 marks severed pairs instead
  // of asserting connectivity — a partition is a reportable degraded state.
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    if (chip_dead[s]) continue;
    dist[s][s] = 0;
    std::queue<int> q;
    q.push(static_cast<int>(s));
    while (!q.empty()) {
      const int c = q.front();
      q.pop();
      for (const auto& [port, nb] : adj[static_cast<std::size_t>(c)]) {
        if (dist[s][static_cast<std::size_t>(nb)] == -1) {
          dist[s][static_cast<std::size_t>(nb)] =
              dist[s][static_cast<std::size_t>(c)] + 1;
          q.push(nb);
        }
      }
    }
  }

  RerouteResult r;
  const std::size_t num_hosts = hosts.size();
  r.next_hop.assign(n, std::vector<int>(num_hosts, -1));
  std::vector<bool> unreachable(num_hosts, false);
  for (std::size_t c = 0; c < n; ++c) {
    if (chip_dead[c]) continue;
    for (std::size_t h = 0; h < num_hosts; ++h) {
      const auto home = static_cast<std::size_t>(hosts[h].chip);
      if (chip_dead[home]) {
        unreachable[h] = true;
        continue;
      }
      if (home == c) {
        r.next_hop[c][h] = hosts[h].port;
        continue;
      }
      if (dist[c][home] == -1) {
        unreachable[h] = true;  // severed by a partition, from this chip
        continue;
      }
      std::vector<int> candidates;
      for (const auto& [port, nb] : adj[c]) {
        if (dist[static_cast<std::size_t>(nb)][home] == dist[c][home] - 1) {
          candidates.push_back(port);
        }
      }
      RAW_ASSERT_MSG(!candidates.empty(), "reachable host without a trunk");
      r.next_hop[c][h] = candidates[h % candidates.size()];
    }
  }
  for (std::size_t h = 0; h < num_hosts; ++h) {
    if (unreachable[h]) r.unreachable_hosts.push_back(static_cast<int>(h));
  }
  return r;
}

}  // namespace raw::cluster
