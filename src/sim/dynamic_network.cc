#include "sim/dynamic_network.h"

#include <bit>

#include "common/assert.h"

namespace raw::sim {

common::Word make_dyn_header(int src_tile, int dest_tile, std::uint32_t payload_words) {
  RAW_ASSERT(src_tile >= 0 && src_tile < 0x10000);
  RAW_ASSERT(dest_tile >= 0 && dest_tile < 0x100);
  RAW_ASSERT(payload_words <= kMaxDynPayloadWords);
  return (static_cast<common::Word>(src_tile) << 16) |
         (static_cast<common::Word>(dest_tile) << 8) | payload_words;
}

int dyn_header_src(common::Word header) { return static_cast<int>(header >> 16); }
int dyn_header_dest(common::Word header) {
  return static_cast<int>((header >> 8) & 0xff);
}
std::uint32_t dyn_header_len(common::Word header) { return header & 0xff; }

DynamicNetwork::DynamicNetwork(EngineState& engine, GridShape shape,
                               std::size_t endpoint_queue_words)
    : shape_(shape),
      routers_(static_cast<std::size_t>(shape.num_tiles())),
      links_(routers_.size()),
      in_(routers_.size()),
      next_(routers_.size()),
      route_(routers_.size() * routers_.size()),
      eject_wait_(routers_.size(), -1),
      engine_(engine) {
  for (int t = 0; t < shape_.num_tiles(); ++t) {
    const TileCoord c = shape_.coord(t);
    for (const Dir d : kMeshDirs) {
      if (shape_.contains(GridShape::neighbor(c, d))) {
        links_[static_cast<std::size_t>(t)][static_cast<std::size_t>(d)] =
            std::make_unique<Channel>(engine_,
                                      "dyn" + std::to_string(t) + dir_name(d));
      }
    }
    inject_.emplace_back(endpoint_queue_words);
    eject_.emplace_back(endpoint_queue_words);
  }
  const auto n = routers_.size();
  for (int t = 0; t < shape_.num_tiles(); ++t) {
    const TileCoord here = shape_.coord(t);
    const auto ti = static_cast<std::size_t>(t);
    for (const Dir d : kMeshDirs) {
      const TileCoord nb = GridShape::neighbor(here, d);
      if (!shape_.contains(nb)) continue;
      next_[ti][static_cast<std::size_t>(d)] =
          static_cast<std::uint32_t>(shape_.index(nb));
      in_[ti][static_cast<std::size_t>(d)] =
          links_[static_cast<std::size_t>(shape_.index(nb))]
                [static_cast<std::size_t>(opposite(d))]
                    .get();
    }
    // X-first dimension order; every mesh hop it picks stays on the grid.
    for (int dest = 0; dest < shape_.num_tiles(); ++dest) {
      const TileCoord to = shape_.coord(dest);
      std::size_t out = kEjectPort;
      if (to.col > here.col) {
        out = static_cast<std::size_t>(Dir::kEast);
      } else if (to.col < here.col) {
        out = static_cast<std::size_t>(Dir::kWest);
      } else if (to.row > here.row) {
        out = static_cast<std::size_t>(Dir::kSouth);
      } else if (to.row < here.row) {
        out = static_cast<std::size_t>(Dir::kNorth);
      }
      RAW_ASSERT(out == kEjectPort || links_[ti][out] != nullptr);
      route_[ti * n + static_cast<std::size_t>(dest)] =
          static_cast<std::uint8_t>(out);
    }
  }
}

bool DynamicNetwork::can_inject(int tile, std::uint32_t payload_words) const {
  RAW_ASSERT(payload_words <= kMaxDynPayloadWords);
  return inject_[static_cast<std::size_t>(tile)].free_space() >= payload_words + 1;
}

void DynamicNetwork::inject(int tile, int dest_tile,
                            std::span<const common::Word> payload) {
  RAW_ASSERT_MSG(dest_tile >= 0 && dest_tile < shape_.num_tiles(),
                 "dynamic message to off-chip tile");
  RAW_ASSERT_MSG(can_inject(tile, static_cast<std::uint32_t>(payload.size())),
                 "dynamic-network inject queue overflow; poll can_inject first");
  auto& q = inject_[static_cast<std::size_t>(tile)];
  q.push(make_dyn_header(tile, dest_tile, static_cast<std::uint32_t>(payload.size())));
  for (const common::Word w : payload) q.push(w);
  net_words_ += payload.size() + 1;
  routers_[static_cast<std::size_t>(tile)].waiting +=
      static_cast<std::uint32_t>(payload.size() + 1);
}

bool DynamicNetwork::has_eject(int tile) const {
  return !eject_[static_cast<std::size_t>(tile)].empty();
}

common::Word DynamicNetwork::pop_eject(int tile) {
  return eject_[static_cast<std::size_t>(tile)].pop();
}

std::size_t DynamicNetwork::eject_size(int tile) const {
  return eject_[static_cast<std::size_t>(tile)].size();
}

void DynamicNetwork::step() {
  // Quiescence early-out: with nothing in flight no input port has a head
  // flit, so every arbitration below would fail without side effects (the
  // round-robin pointers only advance when an input is chosen).
  if (net_words_ == 0) return;
  for (std::size_t t = 0; t < routers_.size(); ++t) {
    // Idle-router skip, exact for the same reason per router: with no word
    // waiting at its inputs nothing is chosen and no pointer moves. The
    // count also holds words staged toward it this cycle, which are not yet
    // readable; such a router finds no head and changes nothing.
    if (routers_[t].waiting != 0) step_router(t);
  }
}

void DynamicNetwork::step_router(std::size_t t) {
  constexpr std::uint32_t kAll = (1u << kNumInputs) - 1;
  Router& r = routers_[t];
  auto& inject = inject_[t];
  const std::array<Channel*, 4>& in = in_[t];
  const std::size_t n = routers_.size();

  // Each input's head, read once. A read leaves a link unreadable for the
  // rest of the cycle (one flit per link per cycle), but an inject pop
  // exposes the next word at once, so only the inject head is refreshed.
  std::array<common::Word, kNumInputs> head{};
  std::uint32_t ready = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    Channel* ch = in[i];
    if (ch != nullptr && ch->can_read()) {
      head[i] = ch->front();
      ready |= 1u << i;
    }
  }
  if (!inject.empty()) {
    head[kInjectPort] = inject.front();
    ready |= 1u << kInjectPort;
  }

  // req[o]: unlocked inputs whose head (a header) routes to output o, from
  // the X-first table. `off_chip`: unlocked inputs whose header names a tile
  // off the grid. inject() admits only on-chip destinations, so only a
  // header corrupted in flight lands there; it requests every output, and
  // the arbiter that picks it aborts, as a full scan reaching it would.
  std::array<std::uint32_t, kNumOutputs> req{};
  std::uint32_t off_chip = 0;
  const auto request = [&](std::size_t i) {
    const auto dest = static_cast<std::size_t>(dyn_header_dest(head[i]));
    if (dest < n) {
      req[route_[t * n + dest]] |= 1u << i;
    } else {
      off_chip |= 1u << i;
    }
  };
  for (std::uint32_t m = ready & ~r.locked; m != 0; m &= m - 1) {
    request(static_cast<std::size_t>(std::countr_zero(m)));
  }

  for (std::size_t o = 0; o < kNumOutputs; ++o) {
    // Pick the sending input: a locked worm continues; otherwise the first
    // requester at or after the round-robin pointer wins.
    std::size_t i = r.in_of[o];
    if (i == kFree) {
      const std::uint32_t cand = req[o] | off_chip;
      if (cand == 0) continue;
      const unsigned p = r.rr[o];
      const std::uint32_t rot = ((cand >> p) | (cand << (kNumInputs - p))) & kAll;
      i = p + static_cast<std::size_t>(std::countr_zero(rot));
      if (i >= kNumInputs) i -= kNumInputs;
      RAW_ASSERT_MSG((off_chip & (1u << i)) == 0,
                     "dynamic header names an off-chip tile");
      r.rr[o] = static_cast<std::uint8_t>(i + 1 == kNumInputs ? 0 : i + 1);
    } else if ((ready & (1u << i)) == 0) {
      continue;  // the worm's next flit has not arrived
    }

    // Destination space available? (The pointer above has moved anyway.)
    const bool eject = o == kEjectPort;
    Channel* out = eject ? nullptr : links_[t][o].get();
    if (eject ? eject_[t].full() : !out->can_write()) continue;

    // Transfer one flit.
    const common::Word word = head[i];
    if (i == kInjectPort) {
      inject.pop();
    } else {
      (void)in[i]->read_ready();
    }
    ready &= ~(1u << i);
    --r.waiting;
    if (eject) {
      eject_[t].push(word);
      --net_words_;
      engine_.wake(eject_wait_[t]);
    } else {
      out->write_ready(word);
      ++routers_[next_[t][o]].waiting;
    }
    ++flits_routed_;

    if ((r.locked & (1u << i)) == 0) {  // a header
      r.flits_left[i] = dyn_header_len(word);
      if (r.flits_left[i] > 0) {
        r.in_of[o] = static_cast<std::uint8_t>(i);
        r.locked |= 1u << i;
      } else if (eject) {
        ++messages_delivered_;
      }
    } else {
      RAW_ASSERT(r.flits_left[i] > 0);
      if (--r.flits_left[i] == 0) {
        r.in_of[o] = kFree;
        r.locked &= ~(1u << i);
        if (eject) ++messages_delivered_;
      }
    }

    // The next inject word is readable at once; once the lock update above
    // is done, an unlocked inject port requests for its new header.
    if (i == kInjectPort && !inject.empty()) {
      head[kInjectPort] = inject.front();
      ready |= 1u << kInjectPort;
      if ((r.locked & (1u << kInjectPort)) == 0) request(kInjectPort);
    }
  }
}

std::uint64_t DynamicNetwork::reset() {
  std::uint64_t dropped = net_words_;
  for (auto& q : inject_) q.clear();
  for (auto& q : eject_) {
    dropped += q.size();  // ejected but not yet consumed by the tile
    q.clear();
  }
  for (Router& r : routers_) r = Router{};
  for (auto& per_tile : links_) {
    for (auto& ch : per_tile) {
      if (ch != nullptr) ch->reset_contents();
    }
  }
  net_words_ = 0;
  return dropped;
}

std::vector<Channel*> DynamicNetwork::all_channels() {
  std::vector<Channel*> out;
  for (auto& per_tile : links_) {
    for (auto& ch : per_tile) {
      if (ch != nullptr) out.push_back(ch.get());
    }
  }
  return out;
}

}  // namespace raw::sim
