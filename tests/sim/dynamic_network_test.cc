#include "sim/dynamic_network.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

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

}  // namespace
}  // namespace raw::sim
