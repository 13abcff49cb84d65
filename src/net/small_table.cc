#include "net/small_table.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/assert.h"

namespace raw::net {
namespace {

constexpr std::size_t kChunkSize = 256;

/// Interns `chunk` into `store`, returning its index (deduplication: real
/// forwarding tables repeat chunk contents heavily).
std::uint32_t intern(std::vector<std::vector<std::uint32_t>>& store,
                     std::map<std::vector<std::uint32_t>, std::uint32_t>& index,
                     std::vector<std::uint32_t> chunk) {
  const auto it = index.find(chunk);
  if (it != index.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(store.size());
  store.push_back(chunk);
  index.emplace(std::move(chunk), id);
  return id;
}

/// A route as the compiler paints it: `leaf` is its value's leaf encoding.
struct Route {
  Addr prefix = 0;
  int len = 0;
  std::uint32_t leaf = 0;
};

/// Sort key: the routes of /16 or shorter first, shortest first (level 1);
/// then the longer routes grouped by /16, each group's /17-/24 routes
/// shortest first (its level-2 chunk) ahead of its /25-/32 routes grouped
/// by /24 and shortest first within it (its level-3 chunks). Routes that
/// tie have one length within one array, so they never overlap.
std::tuple<bool, Addr, Addr, int> compile_order(const Route& r) {
  if (r.len <= 16) return {false, 0, 0, r.len};
  const Addr block24 = r.len <= 24 ? 0 : 1 + (r.prefix >> 8 & 0xff);
  return {true, r.prefix >> 16, block24, r.len};
}

/// Paints `r` into `entries`, a level array with `stride`-bit indices whose
/// entries each cover one /`depth` block: the route sets the 2^(depth -
/// len) entries its prefix spans. Shorter routes are painted first, so a
/// longer one overrides them.
void paint(std::uint32_t* entries, const Route& r, int depth, int stride) {
  const std::uint32_t first = r.prefix >> (32 - depth) & ((1u << stride) - 1);
  std::fill_n(entries + first, std::size_t{1} << (depth - r.len), r.leaf);
}

}  // namespace

SmallTable SmallTable::build(const PatriciaTrie& trie) {
  std::vector<Route> routes;
  routes.reserve(trie.size());
  trie.for_each_route([&routes](Addr prefix, int len, std::uint32_t value) {
    routes.push_back({prefix, len, value + 1});
  });
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    return compile_order(a) < compile_order(b);
  });

  SmallTable table;
  table.level1_.assign(1u << 16, 0);
  auto it = routes.begin();
  // Leaf-push: each /16 range takes its longest /16-or-shorter route.
  for (; it != routes.end() && it->len <= 16; ++it) {
    paint(table.level1_.data(), *it, 16, 16);
  }

  // A /16 that holds a longer route gets a level-2 chunk, and a /24 that
  // holds a route longer than /24 a level-3 chunk. Each chunk starts from
  // the leaf of the level above; chunks intern in ascending address order,
  // a /16's level-3 chunks before its level-2 chunk.
  std::map<Chunk, std::uint32_t> l2_index;
  std::map<Chunk, std::uint32_t> l3_index;
  while (it != routes.end()) {
    const Addr block16 = it->prefix >> 16;
    Chunk l2(kChunkSize, table.level1_[block16]);
    for (; it != routes.end() && it->prefix >> 16 == block16 && it->len <= 24;
         ++it) {
      paint(l2.data(), *it, 24, 8);
    }
    while (it != routes.end() && it->prefix >> 16 == block16) {
      const Addr block24 = it->prefix >> 8;
      Entry& l2_entry = l2[block24 & 0xff];
      Chunk l3(kChunkSize, l2_entry);
      for (; it != routes.end() && it->prefix >> 8 == block24; ++it) {
        paint(l3.data(), *it, 32, 8);
      }
      l2_entry = kPointerBit | intern(table.level3_, l3_index, std::move(l3));
    }
    table.level1_[block16] =
        kPointerBit | intern(table.level2_, l2_index, std::move(l2));
  }
  return table;
}

std::optional<SmallTable::Result> SmallTable::lookup(Addr addr) const {
  Entry e = level1_[addr >> 16];
  int accesses = 1;
  if ((e & kPointerBit) != 0) {
    const Chunk& l2 = level2_[e & ~kPointerBit];
    e = l2[addr >> 8 & 0xff];
    ++accesses;
    if ((e & kPointerBit) != 0) {
      const Chunk& l3 = level3_[e & ~kPointerBit];
      e = l3[addr & 0xff];
      ++accesses;
    }
  }
  RAW_ASSERT_MSG((e & kPointerBit) == 0, "level-3 entry must be a leaf");
  if (e == 0) return std::nullopt;
  return Result{e - 1, accesses};
}

std::size_t SmallTable::total_bytes() const {
  return (level1_.size() + (level2_.size() + level3_.size()) * kChunkSize) *
         sizeof(Entry);
}

}  // namespace raw::net
