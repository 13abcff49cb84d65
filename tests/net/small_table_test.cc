#include "net/small_table.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/route_table.h"

namespace raw::net {
namespace {

/// Live routes, (prefix, length) -> value.
using RouteList = std::map<std::pair<Addr, int>, std::uint32_t>;

RouteList routes_of(const PatriciaTrie& trie) {
  RouteList routes;
  trie.for_each_route([&routes](Addr prefix, int len, std::uint32_t value) {
    routes[{prefix, len}] = value;
  });
  return routes;
}

/// The blocks of `block_len` bits (as addr >> (32 - block_len)) that hold a
/// route longer than /`block_len`.
std::set<Addr> blocks_with_longer(const RouteList& routes, int block_len) {
  std::set<Addr> blocks;
  for (const auto& [route, value] : routes) {
    if (route.second > block_len) blocks.insert(route.first >> (32 - block_len));
  }
  return blocks;
}

/// The compiler SmallTable::build replaced, kept as its reference: a trie
/// lookup for every /16 block, for every /24 block of a /16 that holds a
/// longer route, and for every address of a /24 that holds a longer route,
/// with chunks interned in that same order.
class ProbingReference {
 public:
  ProbingReference(const PatriciaTrie& trie, const RouteList& routes) {
    const std::set<Addr> deep16 = blocks_with_longer(routes, 16);
    const std::set<Addr> deep24 = blocks_with_longer(routes, 24);
    level1_.resize(1u << 16);
    std::map<Chunk, std::uint32_t> l2_index;
    std::map<Chunk, std::uint32_t> l3_index;
    for (std::uint32_t p1 = 0; p1 < (1u << 16); ++p1) {
      const Addr base1 = p1 << 16;
      if (deep16.count(p1) == 0) {
        level1_[p1] = leaf_at(trie, base1);
        continue;
      }
      Chunk l2(256);
      for (std::uint32_t p2 = 0; p2 < 256; ++p2) {
        const Addr base2 = base1 | p2 << 8;
        if (deep24.count(base2 >> 8) == 0) {
          l2[p2] = leaf_at(trie, base2);
          continue;
        }
        Chunk l3(256);
        for (std::uint32_t p3 = 0; p3 < 256; ++p3) {
          l3[p3] = leaf_at(trie, base2 | p3);
        }
        l2[p2] = kPointer | intern(level3_, l3_index, std::move(l3));
      }
      level1_[p1] = kPointer | intern(level2_, l2_index, std::move(l2));
    }
  }

  [[nodiscard]] std::optional<SmallTable::Result> lookup(Addr addr) const {
    std::uint32_t e = level1_[addr >> 16];
    int accesses = 1;
    if ((e & kPointer) != 0) {
      e = level2_[e & ~kPointer][addr >> 8 & 0xff];
      ++accesses;
      if ((e & kPointer) != 0) {
        e = level3_[e & ~kPointer][addr & 0xff];
        ++accesses;
      }
    }
    if (e == 0) return std::nullopt;
    return SmallTable::Result{e - 1, accesses};
  }

  /// Chunk index of `p1`'s level-2 chunk, or nullopt for a level-1 leaf.
  [[nodiscard]] std::optional<std::uint32_t> level2_of(std::uint32_t p1) const {
    return pointee(level1_[p1]);
  }
  /// Chunk index of entry `p2` of level-2 chunk `chunk`'s level-3 chunk.
  [[nodiscard]] std::optional<std::uint32_t> level3_of(std::uint32_t chunk,
                                                       std::uint32_t p2) const {
    return pointee(level2_[chunk][p2]);
  }
  [[nodiscard]] std::size_t level2_chunks() const { return level2_.size(); }
  [[nodiscard]] std::size_t level3_chunks() const { return level3_.size(); }

 private:
  using Chunk = std::vector<std::uint32_t>;
  static constexpr std::uint32_t kPointer = 0x80000000u;

  static std::uint32_t leaf_at(const PatriciaTrie& trie, Addr addr) {
    const auto r = trie.lookup(addr);
    return r.has_value() ? r->value + 1 : 0;
  }
  static std::optional<std::uint32_t> pointee(std::uint32_t e) {
    if ((e & kPointer) == 0) return std::nullopt;
    return e & ~kPointer;
  }
  static std::uint32_t intern(std::vector<Chunk>& store,
                              std::map<Chunk, std::uint32_t>& index, Chunk chunk) {
    const auto it = index.find(chunk);
    if (it != index.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(store.size());
    store.push_back(chunk);
    index.emplace(std::move(chunk), id);
    return id;
  }

  std::vector<std::uint32_t> level1_;
  std::vector<Chunk> level2_;
  std::vector<Chunk> level3_;
};

/// Compiles `trie` both ways and compares chunk counts, and the value and
/// access count of one address per level-1 entry and per entry of every
/// level-2 and level-3 chunk the reference builds.
void expect_matches_reference(const PatriciaTrie& trie, const RouteList& routes) {
  const SmallTable got = SmallTable::build(trie);
  const ProbingReference want(trie, routes);
  ASSERT_EQ(got.level2_chunks(), want.level2_chunks());
  ASSERT_EQ(got.level3_chunks(), want.level3_chunks());
  const auto check = [&](Addr addr) {
    const auto g = got.lookup(addr);
    const auto w = want.lookup(addr);
    ASSERT_EQ(g.has_value(), w.has_value()) << addr_to_string(addr);
    if (!w.has_value()) return;
    EXPECT_EQ(g->value, w->value) << addr_to_string(addr);
    EXPECT_EQ(g->accesses, w->accesses) << addr_to_string(addr);
  };
  for (std::uint32_t p1 = 0; p1 < (1u << 16); ++p1) {
    const Addr base1 = p1 << 16;
    check(base1);
    const auto l2 = want.level2_of(p1);
    if (!l2.has_value()) continue;
    for (std::uint32_t p2 = 0; p2 < 256; ++p2) {
      const Addr base2 = base1 | p2 << 8;
      check(base2);
      if (!want.level3_of(*l2, p2).has_value()) continue;
      for (std::uint32_t p3 = 0; p3 < 256; ++p3) check(base2 | p3);
    }
  }
}

TEST(SmallTableTest, EmptyTrieMissesEverywhere) {
  PatriciaTrie trie;
  const SmallTable t = SmallTable::build(trie);
  EXPECT_FALSE(t.lookup(make_addr(1, 2, 3, 4)).has_value());
  EXPECT_EQ(t.level2_chunks(), 0u);
  EXPECT_EQ(t.level3_chunks(), 0u);
}

TEST(SmallTableTest, DefaultRouteLeafPushesToLevel1) {
  PatriciaTrie trie;
  trie.insert(0, 0, 7);
  const SmallTable t = SmallTable::build(trie);
  const auto r = t.lookup(make_addr(200, 1, 2, 3));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7u);
  EXPECT_EQ(r->accesses, 1);  // a /0 never needs deeper levels
  EXPECT_EQ(t.level2_chunks(), 0u);
}

TEST(SmallTableTest, ShortPrefixSingleAccess) {
  PatriciaTrie trie;
  trie.insert(make_addr(10, 0, 0, 0), 8, 3);
  const SmallTable t = SmallTable::build(trie);
  const auto hit = t.lookup(make_addr(10, 200, 1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 3u);
  EXPECT_EQ(hit->accesses, 1);
  EXPECT_FALSE(t.lookup(make_addr(11, 0, 0, 1)).has_value());
}

TEST(SmallTableTest, MidPrefixNeedsTwoAccesses) {
  PatriciaTrie trie;
  trie.insert(make_addr(10, 1, 0, 0), 16, 1);
  trie.insert(make_addr(10, 1, 128, 0), 20, 2);  // forces level 2 under 10.1
  const SmallTable t = SmallTable::build(trie);
  const auto shallow = t.lookup(make_addr(10, 1, 5, 5));
  ASSERT_TRUE(shallow.has_value());
  EXPECT_EQ(shallow->value, 1u);
  EXPECT_EQ(shallow->accesses, 2);
  const auto deep = t.lookup(make_addr(10, 1, 130, 9));
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->value, 2u);
}

TEST(SmallTableTest, HostRouteNeedsThreeAccesses) {
  PatriciaTrie trie;
  trie.insert(make_addr(10, 1, 2, 0), 24, 1);
  trie.insert(make_addr(10, 1, 2, 99), 32, 9);
  const SmallTable t = SmallTable::build(trie);
  const auto host = t.lookup(make_addr(10, 1, 2, 99));
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->value, 9u);
  EXPECT_EQ(host->accesses, 3);
  const auto neighbour = t.lookup(make_addr(10, 1, 2, 98));
  ASSERT_TRUE(neighbour.has_value());
  EXPECT_EQ(neighbour->value, 1u);
}

TEST(SmallTableTest, AccessesNeverExceedThree) {
  const RouteTable table = RouteTable::random(2000, 4, 3);
  const SmallTable t = SmallTable::build(table.trie());
  common::Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const auto r = t.lookup(static_cast<Addr>(rng.next()));
    ASSERT_TRUE(r.has_value());  // random table includes a default route
    EXPECT_GE(r->accesses, 1);
    EXPECT_LE(r->accesses, 3);
  }
}

TEST(SmallTableTest, ChunkDeduplicationKeepsTablesSmall) {
  // 256 /24 routes that all share the same interior pattern: chunks dedupe.
  PatriciaTrie trie;
  for (std::uint32_t i = 0; i < 64; ++i) {
    trie.insert(make_addr(10, static_cast<std::uint8_t>(i), 1, 0), 24, 5);
  }
  const SmallTable t = SmallTable::build(trie);
  // All 64 /16 ranges have the identical level-2 chunk.
  EXPECT_EQ(t.level2_chunks(), 1u);
  EXPECT_LT(t.total_bytes(), (1u << 16) * 4 + 2 * 256 * 4 + 1024);
}

// Property test: SmallTable agrees with the trie's LPM everywhere that
// matters (random tables, random probes, and probes near prefix edges), and
// charges one access per level the address's /16 and /24 blocks need.
TEST(SmallTablePropertyTest, MatchesPatriciaExactly) {
  common::Rng rng(123);
  for (int trial = 0; trial < 6; ++trial) {
    PatriciaTrie trie;
    std::vector<Addr> interesting;
    const int n = 1 + static_cast<int>(rng.below(80));
    for (int i = 0; i < n; ++i) {
      const int len = static_cast<int>(rng.below(33));
      const Addr mask = len == 0 ? 0 : ~Addr{0} << (32 - len);
      const Addr prefix = static_cast<Addr>(rng.next()) & mask;
      trie.insert(prefix, len, static_cast<std::uint32_t>(rng.below(16)));
      interesting.push_back(prefix);
      interesting.push_back(prefix | ~mask);      // last address of range
      interesting.push_back((prefix | ~mask) + 1);  // first address after
      interesting.push_back(prefix - 1);
    }
    const SmallTable t = SmallTable::build(trie);
    const RouteList routes = routes_of(trie);
    const std::set<Addr> deep16 = blocks_with_longer(routes, 16);
    const std::set<Addr> deep24 = blocks_with_longer(routes, 24);
    const auto check = [&](Addr addr) {
      const auto expect = trie.lookup(addr);
      const auto got = t.lookup(addr);
      ASSERT_EQ(expect.has_value(), got.has_value()) << addr_to_string(addr);
      if (expect.has_value()) {
        EXPECT_EQ(got->value, expect->value) << addr_to_string(addr);
        const int accesses = deep16.count(addr >> 16) == 0   ? 1
                             : deep24.count(addr >> 8) == 0 ? 2
                                                             : 3;
        EXPECT_EQ(got->accesses, accesses) << addr_to_string(addr);
      }
    };
    for (const Addr a : interesting) check(a);
    for (int probe = 0; probe < 500; ++probe) {
      check(static_cast<Addr>(rng.next()));
    }
  }
}

// The route compiler builds the same table as probing every block: random
// tries clustered under a few /8s so chunks nest and dedupe, with /0 and /32
// routes, overwrites and erased routes (whose interior trie nodes remain).
TEST(SmallTablePropertyTest, MatchesProbingReference) {
  common::Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    PatriciaTrie trie;
    RouteList routes;
    const int n = 1 + static_cast<int>(rng.below(120));
    for (int i = 0; i < n; ++i) {
      const int len = static_cast<int>(rng.below(33));
      const Addr mask = len == 0 ? 0 : ~Addr{0} << (32 - len);
      const Addr under = make_addr(static_cast<std::uint8_t>(rng.below(3)),
                                   static_cast<std::uint8_t>(rng.below(4)),
                                   static_cast<std::uint8_t>(rng.below(4)), 0);
      const Addr prefix =
          (under | static_cast<Addr>(rng.next() & 0x3ff)) & mask;
      const auto value = static_cast<std::uint32_t>(rng.below(6));
      trie.insert(prefix, len, value);
      routes[{prefix, len}] = value;
      if (rng.chance(0.2)) {
        trie.erase(prefix, len);
        routes.erase({prefix, len});
      }
    }
    if (trial % 2 == 0) {
      trie.insert(0, 0, 9);
      routes[{0, 0}] = 9;
    }
    if (trial % 3 == 0) {
      const Addr host = make_addr(1, 2, 3, 4);
      trie.insert(host, 32, 8);
      routes[{host, 32}] = 8;
    }
    ASSERT_EQ(routes_of(trie), routes);
    expect_matches_reference(trie, routes);
  }
}

TEST(SmallTablePropertyTest, MatchesProbingReferenceOnRouteTables) {
  for (const RouteTable& table :
       {RouteTable::simple4(), RouteTable::random(2000, 4, 3)}) {
    expect_matches_reference(table.trie(), routes_of(table.trie()));
  }
}

}  // namespace
}  // namespace raw::net
