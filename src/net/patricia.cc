#include "net/patricia.h"

#include "common/assert.h"

namespace raw::net {

struct PatriciaTrie::Node {
  std::unique_ptr<Node> child[2];
  std::optional<std::uint32_t> value;
};

PatriciaTrie::PatriciaTrie() : root_(std::make_unique<Node>()) {}
PatriciaTrie::~PatriciaTrie() = default;
PatriciaTrie::PatriciaTrie(PatriciaTrie&&) noexcept = default;
PatriciaTrie& PatriciaTrie::operator=(PatriciaTrie&&) noexcept = default;

namespace {

int bit_at(Addr a, int depth) { return (a >> (31 - depth)) & 1; }

}  // namespace

void PatriciaTrie::insert(Addr prefix, int len, std::uint32_t value) {
  RAW_ASSERT(len >= 0 && len <= 32);
  Node* n = root_.get();
  for (int d = 0; d < len; ++d) {
    const int b = bit_at(prefix, d);
    if (n->child[b] == nullptr) n->child[b] = std::make_unique<Node>();
    n = n->child[b].get();
  }
  if (!n->value.has_value()) ++size_;
  n->value = value;
}

bool PatriciaTrie::erase(Addr prefix, int len) {
  RAW_ASSERT(len >= 0 && len <= 32);
  Node* n = root_.get();
  for (int d = 0; d < len && n != nullptr; ++d) {
    n = n->child[bit_at(prefix, d)].get();
  }
  if (n == nullptr || !n->value.has_value()) return false;
  n->value.reset();
  --size_;
  // Interior nodes are kept; tables are rebuilt wholesale when compaction
  // matters (the network processor pushes fresh tables, §2.2.1).
  return true;
}

std::optional<PatriciaTrie::Result> PatriciaTrie::lookup(Addr addr) const {
  std::optional<Result> best;
  const Node* n = root_.get();
  int visited = 0;
  for (int d = 0; d <= 32 && n != nullptr; ++d) {
    ++visited;
    if (n->value.has_value()) {
      best = Result{*n->value, d, visited};
    }
    if (d == 32) break;
    n = n->child[bit_at(addr, d)].get();
  }
  if (best.has_value()) best->nodes_visited = visited;
  return best;
}

std::optional<std::uint32_t> PatriciaTrie::find_exact(Addr prefix, int len) const {
  const Node* n = root_.get();
  for (int d = 0; d < len && n != nullptr; ++d) {
    n = n->child[bit_at(prefix, d)].get();
  }
  if (n == nullptr) return std::nullopt;
  return n->value;
}

void PatriciaTrie::for_each_route(
    const std::function<void(Addr prefix, int len, std::uint32_t value)>& visit)
    const {
  struct Walk {
    const std::function<void(Addr, int, std::uint32_t)>& visit;
    void operator()(const Node* n, Addr prefix, int depth) const {
      if (n == nullptr) return;
      if (n->value.has_value()) visit(prefix, depth, *n->value);
      if (depth == 32) return;
      (*this)(n->child[0].get(), prefix, depth + 1);
      (*this)(n->child[1].get(), prefix | Addr{1} << (31 - depth), depth + 1);
    }
  };
  Walk{visit}(root_.get(), 0, 0);
}

}  // namespace raw::net
