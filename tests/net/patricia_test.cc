#include "net/patricia.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/route_table.h"

namespace raw::net {
namespace {

TEST(PatriciaTest, EmptyTrieHasNoMatch) {
  PatriciaTrie t;
  EXPECT_FALSE(t.lookup(make_addr(1, 2, 3, 4)).has_value());
}

TEST(PatriciaTest, DefaultRouteMatchesEverything) {
  PatriciaTrie t;
  t.insert(0, 0, 99);
  const auto r = t.lookup(make_addr(8, 8, 8, 8));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 99u);
  EXPECT_EQ(r->prefix_len, 0);
}

TEST(PatriciaTest, LongestPrefixWins) {
  PatriciaTrie t;
  t.insert(make_addr(10, 0, 0, 0), 8, 1);
  t.insert(make_addr(10, 1, 0, 0), 16, 2);
  t.insert(make_addr(10, 1, 2, 0), 24, 3);
  EXPECT_EQ(t.lookup(make_addr(10, 9, 9, 9))->value, 1u);
  EXPECT_EQ(t.lookup(make_addr(10, 1, 9, 9))->value, 2u);
  EXPECT_EQ(t.lookup(make_addr(10, 1, 2, 9))->value, 3u);
  EXPECT_FALSE(t.lookup(make_addr(11, 0, 0, 1)).has_value());
}

TEST(PatriciaTest, HostRoute) {
  PatriciaTrie t;
  t.insert(make_addr(10, 0, 0, 0), 8, 1);
  t.insert(make_addr(10, 0, 0, 7), 32, 7);
  EXPECT_EQ(t.lookup(make_addr(10, 0, 0, 7))->value, 7u);
  EXPECT_EQ(t.lookup(make_addr(10, 0, 0, 8))->value, 1u);
}

TEST(PatriciaTest, InsertOverwrites) {
  PatriciaTrie t;
  t.insert(make_addr(10, 0, 0, 0), 8, 1);
  t.insert(make_addr(10, 0, 0, 0), 8, 5);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(make_addr(10, 0, 0, 1))->value, 5u);
}

TEST(PatriciaTest, EraseRemovesOnlyExact) {
  PatriciaTrie t;
  t.insert(make_addr(10, 0, 0, 0), 8, 1);
  t.insert(make_addr(10, 1, 0, 0), 16, 2);
  EXPECT_FALSE(t.erase(make_addr(10, 0, 0, 0), 9));  // not present
  EXPECT_TRUE(t.erase(make_addr(10, 1, 0, 0), 16));
  EXPECT_EQ(t.lookup(make_addr(10, 1, 5, 5))->value, 1u);  // falls back to /8
  EXPECT_EQ(t.size(), 1u);
}

TEST(PatriciaTest, FindExact) {
  PatriciaTrie t;
  t.insert(make_addr(172, 16, 0, 0), 12, 4);
  EXPECT_EQ(t.find_exact(make_addr(172, 16, 0, 0), 12).value(), 4u);
  EXPECT_FALSE(t.find_exact(make_addr(172, 16, 0, 0), 13).has_value());
}

TEST(PatriciaTest, NodesVisitedBoundedByDepth) {
  PatriciaTrie t;
  t.insert(make_addr(10, 1, 2, 3), 32, 1);
  const auto r = t.lookup(make_addr(10, 1, 2, 3));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->nodes_visited, 33);  // root + 32 bit levels
}

// The visitor reports every live route once (erased ones and the interior
// nodes they leave behind are skipped), in (prefix, length) order.
TEST(PatriciaTest, ForEachRouteVisitsLiveRoutesInAddressOrder) {
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    PatriciaTrie trie;
    std::map<std::pair<Addr, int>, std::uint32_t> expect;
    const int n = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < n; ++i) {
      const int len = static_cast<int>(rng.below(33));
      const Addr mask = len == 0 ? 0 : ~Addr{0} << (32 - len);
      const Addr prefix = static_cast<Addr>(rng.next()) & mask;
      trie.insert(prefix, len, static_cast<std::uint32_t>(i));
      expect[{prefix, len}] = static_cast<std::uint32_t>(i);
      if (rng.chance(0.3)) {
        EXPECT_TRUE(trie.erase(prefix, len));
        expect.erase({prefix, len});
      }
    }
    std::vector<std::pair<std::pair<Addr, int>, std::uint32_t>> got;
    trie.for_each_route([&got](Addr prefix, int len, std::uint32_t value) {
      got.push_back({{prefix, len}, value});
    });
    EXPECT_EQ(got, (std::vector<std::pair<std::pair<Addr, int>, std::uint32_t>>(
                       expect.begin(), expect.end())));
    EXPECT_EQ(got.size(), trie.size());
  }
}

// Property test: trie agrees with a brute-force linear LPM over random
// tables and random probes.
TEST(PatriciaPropertyTest, MatchesLinearReference) {
  common::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    PatriciaTrie trie;
    struct Entry {
      Addr prefix;
      int len;
      std::uint32_t value;
    };
    std::vector<Entry> entries;
    const int n = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < n; ++i) {
      const int len = static_cast<int>(rng.below(33));
      const Addr mask = len == 0 ? 0 : ~Addr{0} << (32 - len);
      const Addr prefix = static_cast<Addr>(rng.next()) & mask;
      const auto value = static_cast<std::uint32_t>(i);
      trie.insert(prefix, len, value);
      // Mirror overwrite semantics in the reference.
      bool replaced = false;
      for (Entry& e : entries) {
        if (e.prefix == prefix && e.len == len) {
          e.value = value;
          replaced = true;
        }
      }
      if (!replaced) entries.push_back({prefix, len, value});
    }
    for (int probe = 0; probe < 200; ++probe) {
      const Addr addr = static_cast<Addr>(rng.next());
      // Linear reference.
      int best_len = -1;
      std::uint32_t best_value = 0;
      for (const Entry& e : entries) {
        const Addr mask = e.len == 0 ? 0 : ~Addr{0} << (32 - e.len);
        if ((addr & mask) == e.prefix && e.len > best_len) {
          best_len = e.len;
          best_value = e.value;
        }
      }
      const auto got = trie.lookup(addr);
      if (best_len < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->value, best_value);
        EXPECT_EQ(got->prefix_len, best_len);
      }
    }
  }
}

TEST(RouteTableTest, Simple4MapsPortsBySecondOctet) {
  const RouteTable table = RouteTable::simple4();
  for (std::uint8_t p = 0; p < 4; ++p) {
    EXPECT_EQ(table.lookup(make_addr(10, p, 1, 2)).value(), p);
  }
  // Unknown space hits the default route.
  EXPECT_EQ(table.lookup(make_addr(99, 1, 1, 1)).value(), 0);
}

TEST(RouteTableTest, RandomTableCoversAllPortsAndIsDeterministic) {
  const RouteTable a = RouteTable::random(500, 4, 7);
  const RouteTable b = RouteTable::random(500, 4, 7);
  EXPECT_EQ(a.num_routes(), 501u);  // + default route
  common::Rng rng(3);
  std::array<int, 4> port_seen{};
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = static_cast<Addr>(rng.next());
    const auto pa = a.lookup(addr);
    const auto pb = b.lookup(addr);
    ASSERT_TRUE(pa.has_value());  // default route guarantees a match
    EXPECT_EQ(pa, pb);
    ++port_seen[static_cast<std::size_t>(*pa)];
  }
  for (const int count : port_seen) EXPECT_GT(count, 0);
}

TEST(RouteTableTest, RemoveRouteFallsBack) {
  RouteTable t = RouteTable::simple4();
  ASSERT_TRUE(t.remove_route(make_addr(10, 2, 0, 0), 16));
  EXPECT_EQ(t.lookup(make_addr(10, 2, 1, 1)).value(), 0);  // default
}

}  // namespace
}  // namespace raw::net
