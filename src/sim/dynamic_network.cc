#include "sim/dynamic_network.h"

#include <algorithm>

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
    auto& inject = inject_[t];
    const std::array<Channel*, 4>& in = in_[t];
    // Idle-router skip, exact for the same reason per router: with its
    // inject queue and incoming links empty no input has a flit, so nothing
    // is chosen and no pointer moves. (Flits routed by other routers this
    // cycle are staged, not yet readable here.)
    if (inject.empty() &&
        std::all_of(in.begin(), in.end(), [](const Channel* ch) {
          return ch == nullptr || ch->occupancy() == 0;
        })) {
      continue;
    }
    Router& r = routers_[t];
    for (std::size_t o = 0; o < kNumOutputs; ++o) {
      // Pick the sending input: a locked worm continues; otherwise arbitrate
      // round-robin among inputs whose head flit is a header routed to o.
      std::optional<std::size_t> chosen = r.locked_input[o];
      if (!chosen.has_value()) {
        for (std::size_t k = 0; k < kNumInputs; ++k) {
          const std::size_t i = (r.rr[o] + k) % kNumInputs;
          if (r.locked_output[i].has_value()) continue;  // busy with a worm
          common::Word head = 0;
          if (i == kInjectPort) {
            if (inject.empty()) continue;
            head = inject.front();
          } else {
            Channel* ch = in[i];
            if (ch == nullptr || !ch->can_read()) continue;
            head = ch->front();
          }
          if (route(t, head) != o) continue;
          chosen = i;
          r.rr[o] = (i + 1) % kNumInputs;
          break;
        }
      }
      if (!chosen.has_value()) continue;
      const std::size_t i = *chosen;

      // Source word available this cycle?
      common::Word word = 0;
      if (i == kInjectPort) {
        if (inject.empty()) continue;
        word = inject.front();
      } else {
        Channel* ch = in[i];
        if (ch == nullptr || !ch->can_read()) continue;
        word = ch->front();
      }

      // Destination space available?
      const bool eject = o == kEjectPort;
      Channel* out = eject ? nullptr : links_[t][o].get();
      if (eject ? eject_[t].full() : !out->can_write()) continue;

      // Transfer one flit.
      if (i == kInjectPort) {
        inject.pop();
      } else {
        (void)in[i]->read();
      }
      if (eject) {
        eject_[t].push(word);
        --net_words_;
        engine_.wake(eject_wait_[t]);
      } else {
        out->write(word);
      }
      ++flits_routed_;

      const bool was_header = !r.locked_output[i].has_value();
      if (was_header) {
        r.flits_left[i] = dyn_header_len(word);
        if (r.flits_left[i] > 0) {
          r.locked_output[i] = o;
          r.locked_input[o] = i;
        } else if (o == kEjectPort) {
          ++messages_delivered_;
        }
      } else {
        RAW_ASSERT(r.flits_left[i] > 0);
        if (--r.flits_left[i] == 0) {
          r.locked_output[i].reset();
          r.locked_input[o].reset();
          if (o == kEjectPort) ++messages_delivered_;
        }
      }
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
