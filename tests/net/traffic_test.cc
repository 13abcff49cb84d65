#include "net/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

namespace raw::net {
namespace {

TEST(TrafficTest, DefaultPermutationIsRotation) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kPermutation;
  TrafficGen gen(cfg, 1);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(gen.next(p).dst_port, (p + 1) % 4);
  }
}

TEST(TrafficTest, ExplicitPermutationHonored) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kPermutation;
  cfg.permutation = {2, 3, 0, 1};
  TrafficGen gen(cfg, 1);
  EXPECT_EQ(gen.next(0).dst_port, 2);
  EXPECT_EQ(gen.next(3).dst_port, 1);
}

TEST(TrafficDeathTest, NonPermutationRejected) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kPermutation;
  cfg.permutation = {0, 0, 1, 2};
  EXPECT_DEATH(TrafficGen(cfg, 1), "not a permutation");
}

TEST(TrafficTest, UniformCoversAllDestinations) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kUniform;
  TrafficGen gen(cfg, 2);
  std::array<int, 4> counts{};
  constexpr int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(gen.next(0).dst_port)];
  }
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 4, kDraws / 20);
}

TEST(TrafficTest, HotspotFractionRespected) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kHotspot;
  cfg.hotspot_port = 2;
  cfg.hotspot_fraction = 0.6;
  TrafficGen gen(cfg, 3);
  int hot = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.next(1).dst_port == 2) ++hot;
  }
  // 0.6 direct + 0.4 * 0.25 uniform spillover = 0.7 expected.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.7, 0.03);
}

TEST(TrafficTest, LoopbackTargetsSelf) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kLoopback;
  TrafficGen gen(cfg, 4);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(gen.next(p).dst_port, p);
}

TEST(TrafficTest, FixedSizes) {
  TrafficConfig cfg;
  cfg.size = SizeDist::kFixed;
  cfg.fixed_bytes = 512;
  TrafficGen gen(cfg, 5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.next(0).bytes, 512u);
}

TEST(TrafficTest, BimodalMixesTwoSizes) {
  TrafficConfig cfg;
  cfg.size = SizeDist::kBimodal;
  cfg.small_bytes = 64;
  cfg.large_bytes = 1024;
  cfg.bimodal_small_fraction = 0.75;
  TrafficGen gen(cfg, 6);
  int small = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    const auto b = gen.next(0).bytes;
    ASSERT_TRUE(b == 64 || b == 1024);
    if (b == 64) ++small;
  }
  EXPECT_NEAR(static_cast<double>(small) / kDraws, 0.75, 0.03);
}

// The largest draw of each size distribution, whichever of its fields the
// distribution reads.
TEST(TrafficTest, MaxPacketBytesFollowsTheSizeDistribution) {
  TrafficConfig cfg;
  cfg.fixed_bytes = 512;
  cfg.small_bytes = 2000;
  cfg.large_bytes = 1024;
  cfg.max_bytes = 9000;
  EXPECT_EQ(max_packet_bytes(cfg), 512u);
  cfg.size = SizeDist::kBimodal;
  EXPECT_EQ(max_packet_bytes(cfg), 2000u);
  cfg.size = SizeDist::kImix;
  EXPECT_EQ(max_packet_bytes(cfg), 1500u);
  cfg.size = SizeDist::kUniformRange;
  EXPECT_EQ(max_packet_bytes(cfg), 9000u);
}

TEST(TrafficTest, ImixAverageNear340Bytes) {
  TrafficConfig cfg;
  cfg.size = SizeDist::kImix;
  TrafficGen gen(cfg, 7);
  double sum = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(gen.next(0).bytes);
  // (7*40 + 4*576 + 1*1500) / 12 = 340.33
  EXPECT_NEAR(sum / kDraws, 340.3, 15.0);
}

TEST(TrafficTest, SaturatedLoadHasNoGaps) {
  TrafficConfig cfg;
  cfg.load = 1.0;
  TrafficGen gen(cfg, 8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.next(0).gap_cycles, 0u);
}

TEST(TrafficTest, PartialLoadProducesMatchingGaps) {
  TrafficConfig cfg;
  cfg.load = 0.5;
  cfg.size = SizeDist::kFixed;
  cfg.fixed_bytes = 256;  // 64 words
  TrafficGen gen(cfg, 9);
  common::Cycle busy = 0;
  common::Cycle idle = 0;
  for (int i = 0; i < 20000; ++i) {
    const PacketDesc d = gen.next(0);
    busy += common::words_for_bytes(d.bytes);
    idle += d.gap_cycles;
  }
  const double load =
      static_cast<double>(busy) / static_cast<double>(busy + idle);
  EXPECT_NEAR(load, 0.5, 0.03);
}

TEST(TrafficTest, BurstyKeepsLongRunLoad) {
  TrafficConfig cfg;
  cfg.load = 0.6;
  cfg.mean_burst_packets = 16.0;
  cfg.size = SizeDist::kFixed;
  cfg.fixed_bytes = 64;
  TrafficGen gen(cfg, 10);
  common::Cycle busy = 0;
  common::Cycle idle = 0;
  int zero_gap_runs = 0;
  int packets_in_run = 0;
  int max_run = 0;
  for (int i = 0; i < 50000; ++i) {
    const PacketDesc d = gen.next(0);
    busy += common::words_for_bytes(d.bytes);
    idle += d.gap_cycles;
    if (d.gap_cycles == 0) {
      ++packets_in_run;
      max_run = std::max(max_run, packets_in_run);
    } else {
      ++zero_gap_runs;
      packets_in_run = 0;
    }
  }
  const double load =
      static_cast<double>(busy) / static_cast<double>(busy + idle);
  EXPECT_NEAR(load, 0.6, 0.05);
  EXPECT_GT(max_run, 8);  // bursts exist
}

TEST(TrafficTest, DeterministicPerSeedIndependentPerPort) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kUniform;
  TrafficGen a(cfg, 11);
  TrafficGen b(cfg, 11);
  bool ports_differ = false;
  for (int i = 0; i < 50; ++i) {
    const auto a0 = a.next(0);
    const auto b0 = b.next(0);
    EXPECT_EQ(a0.dst_port, b0.dst_port);
    if (a.next(1).dst_port != a0.dst_port) ports_differ = true;
  }
  EXPECT_TRUE(ports_differ);  // streams are not trivially identical
}

TEST(TrafficTest, ParetoFlowsDeterministicPerSeed) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kUniform;
  cfg.pareto_flows = true;
  cfg.pareto_alpha = 1.2;
  cfg.flow_min_packets = 1;
  cfg.flow_max_packets = 4096;
  TrafficGen a(cfg, 9);
  TrafficGen b(cfg, 9);
  for (int i = 0; i < 2000; ++i) {
    const PacketDesc pa = a.next(0);
    const PacketDesc pb = b.next(0);
    EXPECT_EQ(pa.dst_port, pb.dst_port);
    EXPECT_EQ(pa.bytes, pb.bytes);
    EXPECT_EQ(pa.gap_cycles, pb.gap_cycles);
  }
}

// With a fixed flow length the destination is repinned exactly every K
// packets, so runs of a constant destination come in multiples of K (two
// adjacent flows may draw the same destination and merge).
TEST(TrafficTest, ParetoFlowPinsDestinationForTheWholeFlow) {
  TrafficConfig cfg;
  cfg.pattern = DestPattern::kUniform;
  cfg.pareto_flows = true;
  cfg.flow_min_packets = 5;
  cfg.flow_max_packets = 5;
  TrafficGen gen(cfg, 3);
  int prev = gen.next(0).dst_port;
  int run = 1;
  for (int i = 1; i < 500; ++i) {
    const int dst = gen.next(0).dst_port;
    if (dst == prev) {
      ++run;
    } else {
      EXPECT_EQ(run % 5, 0) << "flow boundary not a multiple of 5 at " << i;
      run = 1;
      prev = dst;
    }
  }
}

// Bounded-Pareto with a heavy tail: most flows are mice, but elephants show
// up — some destination run far longer than the median — and every flow
// stays within [min, max]. Observed through destination runs on a wide
// uniform fabric so flow merges are rare.
TEST(TrafficTest, ParetoFlowSizesAreHeavyTailedWithinBounds) {
  TrafficConfig cfg;
  cfg.num_ports = 16;
  cfg.pattern = DestPattern::kUniform;
  cfg.pareto_flows = true;
  cfg.pareto_alpha = 1.1;
  cfg.flow_min_packets = 1;
  cfg.flow_max_packets = 512;
  TrafficGen gen(cfg, 5);
  std::vector<int> runs;
  int prev = gen.next(0).dst_port;
  int run = 1;
  for (int i = 1; i < 20000; ++i) {
    const int dst = gen.next(0).dst_port;
    if (dst == prev) {
      ++run;
    } else {
      runs.push_back(run);
      run = 1;
      prev = dst;
    }
  }
  ASSERT_GT(runs.size(), 100u);
  int longest = 0;
  int mice = 0;
  for (const int r : runs) {
    longest = std::max(longest, r);
    if (r <= 4) ++mice;
  }
  EXPECT_GE(longest, 64);  // elephants exist
  // A merge chains at most a handful of max-length flows; far below that.
  EXPECT_LE(longest, 4 * 512);
  // The majority of flows are mice: that is the heavy tail's shape.
  EXPECT_GT(mice, static_cast<int>(runs.size()) / 2);
}

TEST(TrafficDeathTest, ParetoKnobsValidated) {
  TrafficConfig bad_alpha;
  bad_alpha.pareto_flows = true;
  bad_alpha.pareto_alpha = 0.0;
  EXPECT_DEATH(TrafficGen(bad_alpha, 1), "");

  TrafficConfig bad_bounds;
  bad_bounds.pareto_flows = true;
  bad_bounds.flow_min_packets = 10;
  bad_bounds.flow_max_packets = 5;
  EXPECT_DEATH(TrafficGen(bad_bounds, 1), "");

  TrafficConfig zero_min;
  zero_min.pareto_flows = true;
  zero_min.flow_min_packets = 0;
  EXPECT_DEATH(TrafficGen(zero_min, 1), "");
}

}  // namespace
}  // namespace raw::net
