// Longest-prefix-match routing table: a unibit binary trie (the classic
// Patricia structure with LPM modifications the thesis cites [15], without
// path compression — identical results, bounded 32-step lookups).
//
// Lookups report how many trie nodes were visited so the Lookup Processor's
// memory-cost model can charge a realistic number of cache-line touches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/ipv4.h"

namespace raw::net {

class PatriciaTrie {
 public:
  struct Result {
    std::uint32_t value = 0;
    int prefix_len = 0;
    int nodes_visited = 0;
  };

  PatriciaTrie();
  ~PatriciaTrie();
  PatriciaTrie(PatriciaTrie&&) noexcept;
  PatriciaTrie& operator=(PatriciaTrie&&) noexcept;
  PatriciaTrie(const PatriciaTrie&) = delete;
  PatriciaTrie& operator=(const PatriciaTrie&) = delete;

  /// Inserts (or overwrites) prefix/len -> value. len in [0, 32]; bits of
  /// `prefix` below the prefix length are ignored.
  void insert(Addr prefix, int len, std::uint32_t value);

  /// Removes an exact prefix entry. Returns false if absent.
  bool erase(Addr prefix, int len);

  /// Longest-prefix match.
  [[nodiscard]] std::optional<Result> lookup(Addr addr) const;

  /// Exact-match probe (management plane).
  [[nodiscard]] std::optional<std::uint32_t> find_exact(Addr prefix, int len) const;

  /// Calls visit(prefix, len, value) once per route, in address order: a
  /// prefix comes before the longer routes under it (the SmallTable
  /// compiler's route list).
  void for_each_route(
      const std::function<void(Addr prefix, int len, std::uint32_t value)>& visit)
      const;

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Node;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace raw::net
