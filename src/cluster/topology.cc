#include "cluster/topology.h"

#include <algorithm>
#include <queue>

#include "common/assert.h"

namespace raw::cluster {

namespace {

PortRole& role(Topology& t, int chip, int port) {
  return t.roles[static_cast<std::size_t>(chip)][static_cast<std::size_t>(port)];
}

/// Full-duplex trunk between (a, pa) and (b, pb): two unidirectional link
/// plans.
void trunk(Topology& t, int a, int pa, int b, int pb) {
  RAW_ASSERT_MSG(role(t, a, pa) == PortRole::kHost &&
                     role(t, b, pb) == PortRole::kHost,
                 "trunk port double-booked");
  role(t, a, pa) = PortRole::kTrunk;
  role(t, b, pb) = PortRole::kTrunk;
  t.links.push_back(LinkPlan{a, pa, b, pb});
  t.links.push_back(LinkPlan{b, pb, a, pa});
}

void wire_leaf_spine(Topology& t) {
  // Smallest spine tier that can attach every leaf: one spine fans out to
  // at most 4 leaves; a spine ring (ports 0/1 around the ring) leaves two
  // leaf-facing ports per spine.
  const int n = t.num_chips;
  int spines = 1;
  while ((spines == 1 ? 4 : 2 * spines) < n - spines) ++spines;
  const int leaves = n - spines;
  if (spines == 1) {
    for (int l = 0; l < leaves; ++l) trunk(t, 0, l, 1 + l, 0);
  } else {
    for (int j = 0; j < spines; ++j) trunk(t, j, 1, (j + 1) % spines, 0);
    for (int l = 0; l < leaves; ++l) {
      trunk(t, l % spines, 2 + l / spines, spines + l, 0);
    }
  }
}

/// Shortest-path routes over the fabric minus the `link_dead` links, the
/// `chip_dead` chips and every link touching a dead chip: all-pairs BFS
/// distances (-1 for a severed pair, so a partition is a reportable state,
/// not an error) and, from every surviving chip, the next hop toward every
/// host: the host port at home, elsewhere a shortest-path trunk port,
/// destination-hashed over the equal-cost candidates (deterministic ECMP).
struct Routes {
  std::vector<std::vector<int>> dist;  // [chip][chip]
  Topology::RerouteResult result;
};

Routes route(const Topology& t, const std::vector<bool>& link_dead,
             const std::vector<bool>& chip_dead) {
  const auto n = static_cast<std::size_t>(t.num_chips);

  // Survivor adjacency, port-sorted so the equal-cost candidate order, and
  // therefore the ECMP hash pick, is stable.
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (port, neighbor)
  for (std::size_t l = 0; l < t.links.size(); ++l) {
    const LinkPlan& p = t.links[l];
    if (link_dead[l]) continue;
    if (chip_dead[static_cast<std::size_t>(p.src_chip)] ||
        chip_dead[static_cast<std::size_t>(p.dst_chip)]) {
      continue;
    }
    adj[static_cast<std::size_t>(p.src_chip)].emplace_back(p.src_port,
                                                           p.dst_chip);
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());

  Routes rt;
  std::vector<std::vector<int>>& dist = rt.dist;
  dist.assign(n, std::vector<int>(n, -1));
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

  const std::size_t num_hosts = t.hosts.size();
  rt.result.next_hop.assign(n, std::vector<int>(num_hosts, -1));
  std::vector<bool> unreachable(num_hosts, false);
  for (std::size_t c = 0; c < n; ++c) {
    if (chip_dead[c]) continue;
    for (std::size_t h = 0; h < num_hosts; ++h) {
      const auto home = static_cast<std::size_t>(t.hosts[h].chip);
      if (chip_dead[home]) {
        unreachable[h] = true;
        continue;
      }
      if (home == c) {
        rt.result.next_hop[c][h] = t.hosts[h].port;
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
      rt.result.next_hop[c][h] = candidates[h % candidates.size()];
    }
  }
  for (std::size_t h = 0; h < num_hosts; ++h) {
    if (unreachable[h]) {
      rt.result.unreachable_hosts.push_back(static_cast<int>(h));
    }
  }
  return rt;
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
  Topology t;
  t.num_chips = cfg.num_chips;
  t.roles.assign(static_cast<std::size_t>(cfg.num_chips),
                 {PortRole::kHost, PortRole::kHost, PortRole::kHost,
                  PortRole::kHost});
  wire_leaf_spine(t);
  // Spare spine leaf-ports and every non-uplink leaf port are host lines,
  // numbered chip-major then port-minor so host ids are stable and
  // independent of trunk emission order.
  for (int c = 0; c < t.num_chips; ++c) {
    for (int p = 0; p < 4; ++p) {
      if (role(t, c, p) == PortRole::kHost) t.hosts.push_back(HostPlan{c, p});
    }
  }

  const auto n = static_cast<std::size_t>(t.num_chips);
  Routes rt = route(t, std::vector<bool>(t.links.size(), false),
                    std::vector<bool>(n, false));
  for (const std::vector<int>& row : rt.dist) {
    for (const int d : row) {
      RAW_ASSERT_MSG(d >= 0, "cluster topology is not connected");
    }
  }
  t.next_hop = std::move(rt.result.next_hop);

  // Hop matrix: every chip on the path (dist + 1, ECMP paths are all
  // shortest) decrements TTL exactly once.
  const std::size_t num_hosts = t.hosts.size();
  t.hops.assign(num_hosts, std::vector<int>(num_hosts, 0));
  for (std::size_t a = 0; a < num_hosts; ++a) {
    for (std::size_t d = 0; d < num_hosts; ++d) {
      t.hops[a][d] = rt.dist[static_cast<std::size_t>(t.hosts[a].chip)]
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
  return route(*this, link_dead, chip_dead).result;
}

}  // namespace raw::cluster
