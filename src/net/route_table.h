// Forwarding table: maps destination addresses to output port numbers via
// longest-prefix match (the per-forwarding-engine table of §2.1, built by
// the network processor from full routing information).
#pragma once

#include <cstdint>
#include <optional>

#include "net/patricia.h"

namespace raw::net {

class RouteTable {
 public:
  RouteTable() = default;

  void add_route(Addr prefix, int len, int port);
  bool remove_route(Addr prefix, int len);

  /// Port for `dst`, falling back to the default route (0.0.0.0/0) if one
  /// was added; nullopt means "no route" (drop).
  [[nodiscard]] std::optional<int> lookup(Addr dst) const;

  [[nodiscard]] std::size_t num_routes() const { return trie_.size(); }

  /// Underlying trie (for compiling SmallTable snapshots).
  [[nodiscard]] const PatriciaTrie& trie() const { return trie_; }

  /// A deterministic pseudo-random table: `num_routes` prefixes of length
  /// 8..24 spread uniformly over the address space, each mapped to a port in
  /// [0, num_ports), plus a default route to port 0.
  static RouteTable random(std::size_t num_routes, int num_ports,
                           std::uint64_t seed);

  /// The 4-port table used throughout the benches: 10.<p>.0.0/16 -> port p.
  static RouteTable simple4();

 private:
  PatriciaTrie trie_;
};

}  // namespace raw::net
