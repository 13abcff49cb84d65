// Small forwarding tables for fast routing lookups — the §8.2 direction,
// after Degermark, Brodnik, Carlsson & Pink (SIGCOMM'97), which the thesis
// cites as the lookup structure a Raw core router would use.
//
// A three-level leaf-pushed multibit trie with 16/8/8-bit strides and
// chunk deduplication: identical 256-entry chunks are stored once, which is
// what makes real forwarding tables (whose prefixes cluster heavily) small
// enough to stay cache-resident. Every lookup touches at most three table
// entries — the bounded-memory-access property the Lookup Processor's cost
// model depends on.
//
// The structure is an immutable snapshot compiled from a PatriciaTrie (the
// network processor builds small per-forwarding-engine tables from its full
// routing information, §2.2.1); route changes rebuild it. The compile walks
// the routes, not the address space: it paints level 1 from the routes of
// /16 or shorter, then builds a chunk only under a /16 or /24 that holds a
// longer route, in O(R log R + 2^16 + 256 x chunks) for R routes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/patricia.h"

namespace raw::net {

class SmallTable {
 public:
  /// Compiles a snapshot of `trie` (value = next hop / port).
  static SmallTable build(const PatriciaTrie& trie);

  struct Result {
    std::uint32_t value = 0;
    /// Table entries touched (1..3): the memory accesses a lookup costs.
    int accesses = 0;
  };

  [[nodiscard]] std::optional<Result> lookup(Addr addr) const;

  /// Size accounting for the cache-residency argument.
  [[nodiscard]] std::size_t level2_chunks() const { return level2_.size(); }
  [[nodiscard]] std::size_t level3_chunks() const { return level3_.size(); }
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  // Entry encoding: bit 31 = pointer flag. Pointer entries hold a chunk
  // index in [30:0]; leaf entries hold the value + 1 in [30:0] (0 = miss),
  // so "no route" needs no separate bitmap.
  using Entry = std::uint32_t;
  static constexpr Entry kPointerBit = 0x80000000u;

  using Chunk = std::vector<Entry>;  // 256 entries

  std::vector<Entry> level1_;  // 2^16 entries indexed by addr[31:16]
  std::vector<Chunk> level2_;  // indexed by addr[15:8]
  std::vector<Chunk> level3_;  // indexed by addr[7:0]
};

}  // namespace raw::net
