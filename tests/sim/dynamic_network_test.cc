#include "sim/dynamic_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ring_buffer.h"
#include "common/rng.h"
#include "test_clock.h"

namespace raw::sim {
namespace {

// One cycle of a network on its own engine clock: route, commit, advance.
void run_cycle(TestClock& clk, DynamicNetwork& net) {
  net.step();
  clk.tick();
}

// Runs the network until `tile` has ejected a full message; returns
// header + payload. Fails the test on timeout.
std::vector<common::Word> drain_message(TestClock& clk, DynamicNetwork& net,
                                        int tile, int max_cycles = 1000) {
  std::vector<common::Word> msg;
  std::uint32_t want = 0;
  for (int c = 0; c < max_cycles; ++c) {
    while (net.has_eject(tile)) {
      const common::Word w = net.pop_eject(tile);
      if (msg.empty()) want = dyn_header_len(w) + 1;
      msg.push_back(w);
      if (msg.size() == want) return msg;
    }
    run_cycle(clk, net);
  }
  ADD_FAILURE() << "message did not arrive at tile " << tile;
  return msg;
}

TEST(DynHeaderTest, RoundTrip) {
  const common::Word h = make_dyn_header(7, 12, 31);
  EXPECT_EQ(dyn_header_src(h), 7);
  EXPECT_EQ(dyn_header_dest(h), 12);
  EXPECT_EQ(dyn_header_len(h), 31u);
}

TEST(DynamicNetworkTest, SelfDelivery) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::array<common::Word, 2> payload{111, 222};
  net.inject(5, 5, payload);
  const auto msg = drain_message(clk, net, 5);
  ASSERT_EQ(msg.size(), 3u);
  EXPECT_EQ(dyn_header_dest(msg[0]), 5);
  EXPECT_EQ(msg[1], 111u);
  EXPECT_EQ(msg[2], 222u);
}

TEST(DynamicNetworkTest, CornerToCornerDelivery) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  std::vector<common::Word> payload;
  for (common::Word i = 0; i < 8; ++i) payload.push_back(i * 10);
  net.inject(0, 15, payload);
  const auto msg = drain_message(clk, net, 15);
  ASSERT_EQ(msg.size(), 9u);
  EXPECT_EQ(dyn_header_src(msg[0]), 0);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(msg[i + 1], i * 10);
}

TEST(DynamicNetworkTest, ZeroLengthMessage) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  net.inject(2, 13, {});
  const auto msg = drain_message(clk, net, 13);
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(dyn_header_len(msg[0]), 0u);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(DynamicNetworkTest, WormsDoNotInterleaveAtDestination) {
  // Two senders target the same tile; each message must eject contiguously
  // (wormhole output locking).
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::array<common::Word, 4> pa{1, 2, 3, 4};
  const std::array<common::Word, 4> pb{9, 8, 7, 6};
  net.inject(0, 10, pa);
  net.inject(3, 10, pb);
  std::vector<common::Word> all;
  for (int c = 0; c < 1000 && all.size() < 10; ++c) {
    while (net.has_eject(10)) all.push_back(net.pop_eject(10));
    run_cycle(clk, net);
  }
  ASSERT_EQ(all.size(), 10u);
  // Parse messages in arrival order; each must be intact.
  std::size_t pos = 0;
  for (int m = 0; m < 2; ++m) {
    const common::Word header = all[pos];
    const std::uint32_t len = dyn_header_len(header);
    ASSERT_EQ(len, 4u);
    const int src = dyn_header_src(header);
    const auto& expect = src == 0 ? pa : pb;
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(all[pos + 1 + i], expect[i]) << "message " << m << " word " << i;
    }
    pos += 1 + len;
  }
  EXPECT_EQ(net.messages_delivered(), 2u);
}

TEST(DynamicNetworkTest, PerSourceOrderingPreserved) {
  // Messages from one source to one destination arrive in injection order
  // (dimension-ordered routing uses a single path).
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  for (common::Word m = 0; m < 5; ++m) {
    const std::array<common::Word, 1> payload{m};
    // Wait until there's queue space.
    for (int c = 0; c < 1000 && !net.can_inject(1, 1); ++c) run_cycle(clk, net);
    net.inject(1, 14, payload);
  }
  std::vector<common::Word> bodies;
  for (int c = 0; c < 2000 && bodies.size() < 5; ++c) {
    while (net.has_eject(14)) {
      const common::Word h = net.pop_eject(14);
      ASSERT_EQ(dyn_header_len(h), 1u);
      ASSERT_TRUE(net.has_eject(14) || true);
      // Body word follows in the same or a later cycle.
      while (!net.has_eject(14)) run_cycle(clk, net);
      bodies.push_back(net.pop_eject(14));
    }
    run_cycle(clk, net);
  }
  ASSERT_EQ(bodies.size(), 5u);
  for (common::Word m = 0; m < 5; ++m) EXPECT_EQ(bodies[m], m);
}

TEST(DynamicNetworkTest, InjectBackpressure) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4}, /*endpoint_queue_words=*/8);
  EXPECT_TRUE(net.can_inject(0, 7));
  net.inject(0, 15, std::vector<common::Word>(7, 1));
  EXPECT_FALSE(net.can_inject(0, 7));  // queue full until drained
}

TEST(DynamicNetworkTest, RandomTrafficAllDelivered) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  common::Rng rng(2026);
  int sent = 0;
  std::map<int, int> expected_words;  // per destination
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng.below(16));
    const int dst = static_cast<int>(rng.below(16));
    const auto len = static_cast<std::uint32_t>(rng.below(8));
    if (!net.can_inject(src, len)) {
      run_cycle(clk, net);
      continue;
    }
    std::vector<common::Word> payload(len, static_cast<common::Word>(i));
    net.inject(src, dst, payload);
    ++sent;
    expected_words[dst] += static_cast<int>(len) + 1;
    run_cycle(clk, net);
  }
  // Drain everything.
  for (int c = 0; c < 5000; ++c) {
    for (int t = 0; t < 16; ++t) {
      while (net.has_eject(t)) {
        (void)net.pop_eject(t);
        --expected_words[t];
      }
    }
    run_cycle(clk, net);
  }
  EXPECT_EQ(net.messages_delivered(), static_cast<std::uint64_t>(sent));
  for (const auto& [tile, remaining] : expected_words) {
    EXPECT_EQ(remaining, 0) << "missing words at tile " << tile;
  }
}

TEST(DynamicNetworkTest, SparseTrafficCycleExactDigest) {
  // Pins timing, not only delivery: light random traffic (most routers idle
  // on any cycle, with occasional bursts that contend for outputs) on a
  // square and a non-square grid. Every ejection's (cycle, tile, word) and
  // the final flit count fold into one FNV-1a digest.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const GridShape shape : {GridShape{4, 4}, GridShape{3, 5}}) {
    TestClock clk;
    DynamicNetwork net(clk.engine, shape);
    const int n = shape.num_tiles();
    common::Rng rng(4242);
    for (std::uint64_t cycle = 0; cycle < 4000; ++cycle) {
      if (cycle < 3000 && rng.below(8) == 0) {
        const auto burst = 1 + rng.below(3);
        for (std::uint64_t b = 0; b < burst; ++b) {
          const int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
          const int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
          const auto len = static_cast<std::uint32_t>(rng.below(6));
          if (!net.can_inject(src, len)) continue;
          std::vector<common::Word> payload;
          for (std::uint32_t w = 0; w < len; ++w) {
            payload.push_back(static_cast<common::Word>(cycle * 8 + w));
          }
          net.inject(src, dst, payload);
        }
      }
      run_cycle(clk, net);
      for (int t = 0; t < n; ++t) {
        while (net.has_eject(t)) {
          mix(cycle);
          mix(static_cast<std::uint64_t>(t));
          mix(net.pop_eject(t));
        }
      }
    }
    EXPECT_EQ(net.words_in_flight(), 0u);
    mix(net.flits_routed());
  }
  EXPECT_EQ(h, 0x220a1993fed7d8fdULL);
}

// The arbitration DynamicNetwork::step used before request masks: every
// output scans all five inputs from its round-robin pointer, re-reading each
// head, and every router with an occupied input is visited. Kept as the
// reference model the request-mask arbiter must match cycle for cycle.
class ScanReference {
 public:
  ScanReference(EngineState& engine, GridShape shape,
                std::size_t endpoint_queue_words)
      : n_(static_cast<std::size_t>(shape.num_tiles())),
        routers_(n_),
        links_(n_),
        in_(n_),
        route_(n_ * n_),
        engine_(engine) {
    for (int t = 0; t < shape.num_tiles(); ++t) {
      for (const Dir d : kMeshDirs) {
        if (shape.contains(GridShape::neighbor(shape.coord(t), d))) {
          links_[static_cast<std::size_t>(t)][static_cast<std::size_t>(d)] =
              std::make_unique<Channel>(engine_, "dyn" + std::to_string(t) + dir_name(d));
        }
      }
      inject_.emplace_back(endpoint_queue_words);
      eject_.emplace_back(endpoint_queue_words);
    }
    for (int t = 0; t < shape.num_tiles(); ++t) {
      const TileCoord here = shape.coord(t);
      const auto ti = static_cast<std::size_t>(t);
      for (const Dir d : kMeshDirs) {
        const TileCoord nb = GridShape::neighbor(here, d);
        if (!shape.contains(nb)) continue;
        in_[ti][static_cast<std::size_t>(d)] =
            links_[static_cast<std::size_t>(shape.index(nb))]
                  [static_cast<std::size_t>(opposite(d))].get();
      }
      for (int dest = 0; dest < shape.num_tiles(); ++dest) {
        const TileCoord to = shape.coord(dest);
        Dir out = Dir::kProc;
        if (to.col > here.col) {
          out = Dir::kEast;
        } else if (to.col < here.col) {
          out = Dir::kWest;
        } else if (to.row > here.row) {
          out = Dir::kSouth;
        } else if (to.row < here.row) {
          out = Dir::kNorth;
        }
        route_[ti * n_ + static_cast<std::size_t>(dest)] = static_cast<std::size_t>(out);
      }
    }
  }

  [[nodiscard]] bool can_inject(int tile, std::uint32_t payload_words) const {
    return inject_[static_cast<std::size_t>(tile)].free_space() >= payload_words + 1;
  }
  void inject(int tile, int dest, std::span<const common::Word> payload) {
    auto& q = inject_[static_cast<std::size_t>(tile)];
    q.push(make_dyn_header(tile, dest, static_cast<std::uint32_t>(payload.size())));
    for (const common::Word w : payload) q.push(w);
    net_words_ += payload.size() + 1;
  }
  [[nodiscard]] bool has_eject(int tile) const {
    return !eject_[static_cast<std::size_t>(tile)].empty();
  }
  [[nodiscard]] common::Word pop_eject(int tile) {
    return eject_[static_cast<std::size_t>(tile)].pop();
  }
  [[nodiscard]] std::uint64_t flits_routed() const { return flits_routed_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return messages_delivered_; }
  [[nodiscard]] std::uint64_t words_in_flight() const { return net_words_; }
  [[nodiscard]] std::vector<Channel*> all_channels() {
    std::vector<Channel*> out;
    for (auto& per_tile : links_) {
      for (auto& ch : per_tile) {
        if (ch != nullptr) out.push_back(ch.get());
      }
    }
    return out;
  }

  void step() {
    if (net_words_ == 0) return;
    for (std::size_t t = 0; t < n_; ++t) {
      auto& inject = inject_[t];
      const std::array<Channel*, 4>& in = in_[t];
      if (inject.empty() &&
          std::all_of(in.begin(), in.end(), [](const Channel* ch) {
            return ch == nullptr || ch->occupancy() == 0;
          })) {
        continue;
      }
      Router& r = routers_[t];
      for (std::size_t o = 0; o < kPorts; ++o) {
        std::optional<std::size_t> chosen = r.locked_input[o];
        if (!chosen.has_value()) {
          for (std::size_t k = 0; k < kPorts; ++k) {
            const std::size_t i = (r.rr[o] + k) % kPorts;
            if (r.locked_output[i].has_value()) continue;
            common::Word head = 0;
            if (i == kLocal) {
              if (inject.empty()) continue;
              head = inject.front();
            } else {
              Channel* ch = in[i];
              if (ch == nullptr || !ch->can_read()) continue;
              head = ch->front();
            }
            if (route_[t * n_ + static_cast<std::size_t>(dyn_header_dest(head))] != o) {
              continue;
            }
            chosen = i;
            r.rr[o] = (i + 1) % kPorts;
            break;
          }
        }
        if (!chosen.has_value()) continue;
        const std::size_t i = *chosen;
        common::Word word = 0;
        if (i == kLocal) {
          if (inject.empty()) continue;
          word = inject.front();
        } else {
          Channel* ch = in[i];
          if (ch == nullptr || !ch->can_read()) continue;
          word = ch->front();
        }
        const bool eject = o == kLocal;
        Channel* out = eject ? nullptr : links_[t][o].get();
        if (eject ? eject_[t].full() : !out->can_write()) continue;
        if (i == kLocal) {
          inject.pop();
        } else {
          (void)in[i]->read();
        }
        if (eject) {
          eject_[t].push(word);
          --net_words_;
        } else {
          out->write(word);
        }
        ++flits_routed_;
        if (!r.locked_output[i].has_value()) {
          r.flits_left[i] = dyn_header_len(word);
          if (r.flits_left[i] > 0) {
            r.locked_output[i] = o;
            r.locked_input[o] = i;
          } else if (eject) {
            ++messages_delivered_;
          }
        } else if (--r.flits_left[i] == 0) {
          r.locked_output[i].reset();
          r.locked_input[o].reset();
          if (eject) ++messages_delivered_;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kPorts = 5;  // N, S, E, W and the tile
  static constexpr std::size_t kLocal = 4;  // inject in, eject out
  struct Router {
    std::array<std::optional<std::size_t>, kPorts> locked_output{};
    std::array<std::uint32_t, kPorts> flits_left{};
    std::array<std::optional<std::size_t>, kPorts> locked_input{};
    std::array<std::size_t, kPorts> rr{};
  };

  std::size_t n_;
  std::vector<Router> routers_;
  std::vector<std::array<std::unique_ptr<Channel>, 4>> links_;
  std::vector<std::array<Channel*, 4>> in_;
  std::vector<std::size_t> route_;
  std::vector<common::RingBuffer<common::Word>> inject_;
  std::vector<common::RingBuffer<common::Word>> eject_;
  EngineState& engine_;
  std::uint64_t flits_routed_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t net_words_ = 0;
};

// FNV-1a over a network's links and counters, as Chip::state_digest folds
// them.
template <typename Net>
std::uint64_t net_digest(Net& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Channel* ch : net.all_channels()) ch->fold_digest(h);
  for (const std::uint64_t v :
       {net.words_in_flight(), net.messages_delivered(), net.flits_routed()}) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(DynamicNetworkTest, RequestMaskArbiterMatchesScanReference) {
  // Seeded random traffic with the cases the request masks must get right:
  // zero-length messages, several headers injected back to back at one
  // tile in one cycle (an inject pop exposes the next header at once),
  // eject queues left full for stretches (worms blocked at their last hop,
  // pointers advancing on refused grants), and stalls on the network's own
  // links.
  for (const GridShape shape : {GridShape{4, 4}, GridShape{3, 5}}) {
    SCOPED_TRACE(std::to_string(shape.rows) + "x" + std::to_string(shape.cols));
    const int n = shape.num_tiles();
    TestClock clk_net;
    TestClock clk_ref;
    DynamicNetwork net(clk_net.engine, shape, /*endpoint_queue_words=*/12);
    ScanReference ref(clk_ref.engine, shape, /*endpoint_queue_words=*/12);
    const std::vector<Channel*> net_links = net.all_channels();
    const std::vector<Channel*> ref_links = ref.all_channels();
    ASSERT_EQ(net_links.size(), ref_links.size());
    common::Rng rng(31 + static_cast<std::uint64_t>(n));
    std::vector<std::uint64_t> deaf_until(static_cast<std::size_t>(n), 0);
    std::uint64_t stalls = 0;
    std::uint64_t full_ejects = 0;
    for (std::uint64_t cycle = 0; cycle < 6000; ++cycle) {
      if (cycle < 5000) {
        const auto senders = rng.below(4);
        for (std::uint64_t s = 0; s < senders; ++s) {
          const int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
          const auto burst = 1 + rng.below(3);  // back-to-back headers
          for (std::uint64_t b = 0; b < burst; ++b) {
            const int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
            const auto len = static_cast<std::uint32_t>(
                rng.below(3) == 0 ? 0 : rng.below(7));
            if (!net.can_inject(src, len)) break;
            ASSERT_TRUE(ref.can_inject(src, len));
            std::vector<common::Word> payload;
            for (std::uint32_t w = 0; w < len; ++w) {
              payload.push_back(static_cast<common::Word>(cycle * 16 + w));
            }
            net.inject(src, dst, payload);
            ref.inject(src, dst, payload);
          }
        }
        if (rng.below(40) == 0) {
          const std::size_t l = rng.below(net_links.size());
          const auto len = 1 + rng.below(24);
          net_links[l]->fault_stall(len);
          ref_links[l]->fault_stall(len);
          ++stalls;
        }
        if (rng.below(60) == 0) {
          deaf_until[rng.below(static_cast<std::uint64_t>(n))] = cycle + 20 + rng.below(60);
        }
      }
      net.step();
      ref.step();
      ASSERT_EQ(net.flits_routed(), ref.flits_routed()) << "cycle " << cycle;
      clk_net.tick();
      clk_ref.tick();
      for (int t = 0; t < n; ++t) {
        if (cycle < deaf_until[static_cast<std::size_t>(t)]) {
          if (net.eject_size(t) == 12) ++full_ejects;
          continue;
        }
        while (net.has_eject(t)) {
          ASSERT_TRUE(ref.has_eject(t)) << "cycle " << cycle << " tile " << t;
          ASSERT_EQ(net.pop_eject(t), ref.pop_eject(t))
              << "cycle " << cycle << " tile " << t;
        }
        ASSERT_FALSE(ref.has_eject(t)) << "cycle " << cycle << " tile " << t;
      }
      if (cycle % 100 == 0) {
        ASSERT_EQ(net_digest(net), net_digest(ref)) << "cycle " << cycle;
      }
    }
    EXPECT_EQ(net_digest(net), net_digest(ref));
    EXPECT_EQ(net.words_in_flight(), 0u);
    EXPECT_GT(net.messages_delivered(), 1000u);
    EXPECT_GT(stalls, 50u);
    EXPECT_GT(full_ejects, 0u);
  }
}

TEST(DynamicNetworkTest, MaxPayloadEnforced) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::vector<common::Word> payload(kMaxDynPayloadWords, 5);
  net.inject(0, 1, payload);
  const auto msg = drain_message(clk, net, 1);
  EXPECT_EQ(msg.size(), kMaxDynPayloadWords + 1);
}

TEST(DynamicNetworkDeathTest, OversizedPayloadAborts) {
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::vector<common::Word> payload(kMaxDynPayloadWords + 1, 5);
  EXPECT_DEATH(net.inject(0, 1, payload), "");
}

TEST(DynamicNetworkDeathTest, OffChipDestinationAborts) {
  // Rejected at inject(), where the caller is, not at the first hop.
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::array<common::Word, 1> payload{7};
  EXPECT_DEATH(net.inject(0, 16, payload), "off-chip");
  EXPECT_DEATH(net.inject(0, -1, payload), "off-chip");
}

TEST(DynamicNetworkDeathTest, HeaderCorruptedOffChipAbortsAtNextHop) {
  // A flip in a header's destination byte while it crosses a link: the next
  // router's arbiter picks it and aborts rather than index past the table.
  TestClock clk;
  DynamicNetwork net(clk.engine, GridShape{4, 4});
  const std::array<common::Word, 1> payload{7};
  net.inject(0, 3, payload);
  run_cycle(clk, net);  // the header crosses tile 0's east link
  Channel* east = nullptr;
  for (Channel* ch : net.all_channels()) {
    if (ch->name() == "dyn0E") east = ch;
  }
  ASSERT_NE(east, nullptr);
  ASSERT_TRUE(east->fault_flip(12));  // destination 3 -> 19
  EXPECT_DEATH(run_cycle(clk, net), "off-chip");
}

}  // namespace
}  // namespace raw::sim
