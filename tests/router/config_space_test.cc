#include "router/config_space.h"

#include <gtest/gtest.h>

#include <set>

namespace raw::router {
namespace {

std::vector<HeaderReq> unicast(std::initializer_list<int> dests) {
  std::vector<HeaderReq> h;
  for (const int d : dests) {
    h.push_back(d < 0 ? HeaderReq{} : HeaderReq{1u << d, 16});
  }
  return h;
}

TEST(ProjectTest, IdleTileIsAllNone) {
  const auto headers = unicast({-1, -1, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  const TileConfig tc = project(cfg, headers, 2);
  EXPECT_EQ(tc.out, Client::kNone);
  EXPECT_EQ(tc.cwnext, Client::kNone);
  EXPECT_EQ(tc.ccwnext, Client::kNone);
  EXPECT_FALSE(tc.ingress_blocked);
}

TEST(ProjectTest, SelfDelivery) {
  const auto headers = unicast({0, -1, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  const TileConfig tc = project(cfg, headers, 0);
  EXPECT_EQ(tc.out, Client::kIn);
  EXPECT_EQ(tc.out_dist, 0);
}

TEST(ProjectTest, OneHopClockwise) {
  const auto headers = unicast({1, -1, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  const TileConfig src = project(cfg, headers, 0);
  EXPECT_EQ(src.cwnext, Client::kIn);
  EXPECT_EQ(src.out, Client::kNone);
  const TileConfig dst = project(cfg, headers, 1);
  EXPECT_EQ(dst.out, Client::kCwPrev);
  EXPECT_EQ(dst.out_dist, 1);
}

TEST(ProjectTest, TwoHopTransitTile) {
  const auto headers = unicast({2, -1, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  const TileConfig transit = project(cfg, headers, 1);
  EXPECT_EQ(transit.cwnext, Client::kCwPrev);
  EXPECT_EQ(transit.cw_dist, 1);
  const TileConfig dst = project(cfg, headers, 2);
  EXPECT_EQ(dst.out, Client::kCwPrev);
  EXPECT_EQ(dst.out_dist, 2);
}

TEST(ProjectTest, CounterClockwiseDelivery) {
  const auto headers = unicast({3, -1, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  const TileConfig src = project(cfg, headers, 0);
  EXPECT_EQ(src.ccwnext, Client::kIn);
  const TileConfig dst = project(cfg, headers, 3);
  EXPECT_EQ(dst.out, Client::kCcwPrev);
  EXPECT_EQ(dst.out_dist, 1);
}

TEST(ProjectTest, BlockedFlagOnlyWhenDenied) {
  const auto headers = unicast({2, 2, -1, -1});
  const auto cfg = evaluate_rule(headers, 0);
  EXPECT_FALSE(project(cfg, headers, 0).ingress_blocked);
  EXPECT_TRUE(project(cfg, headers, 1).ingress_blocked);
  EXPECT_FALSE(project(cfg, headers, 2).ingress_blocked);
}

TEST(SpaceTest, GlobalSpaceIs2500) {
  const SpaceSummary s = enumerate_space(4);
  EXPECT_EQ(s.global_configs, 2500u);
  // §6.1: 8,192 switch imem words / 2,500 configs ~= 3.3 instructions each.
  EXPECT_NEAR(s.instrs_per_global_config, 3.3, 0.05);
}

TEST(SpaceTest, MinimizationIsSmallSelfSufficientSubset) {
  const SpaceSummary s = enumerate_space(4);
  // The thesis reports a 32-entry subset (a ~78x cut). The exact count
  // depends on rule details; require the same order of magnitude and that
  // the reduction factor is dramatic.
  EXPECT_GE(s.distinct_tile_configs, 16u);
  EXPECT_LE(s.distinct_tile_configs, 64u);
  EXPECT_GT(s.reduction_factor, 35.0);
  EXPECT_LE(s.distinct_blocks, 36u);
  EXPECT_EQ(s.tile_configs.size(), s.distinct_tile_configs);
}

TEST(SpaceTest, EveryTileConfigInternallyConsistent) {
  const SpaceSummary s = enumerate_space(4);
  for (const TileConfig& tc : s.tile_configs) {
    // A clockwise downstream link can only be fed locally or by the
    // clockwise upstream link; same for counter-clockwise.
    EXPECT_NE(tc.cwnext, Client::kCcwPrev) << to_string(tc);
    EXPECT_NE(tc.ccwnext, Client::kCwPrev) << to_string(tc);
    // Distances are 0 exactly for local sources.
    if (tc.cwnext == Client::kIn) {
      EXPECT_EQ(tc.cw_dist, 0);
    }
    if (tc.cwnext == Client::kCwPrev) {
      EXPECT_GE(tc.cw_dist, 1);
    }
    if (tc.out == Client::kIn) {
      EXPECT_EQ(tc.out_dist, 0);
    }
  }
}

TEST(SpaceTest, BlockedTileStillCarriesTransit) {
  // A denied input's tile may still serve transit traffic: find such a
  // configuration in the enumeration.
  const SpaceSummary s = enumerate_space(4);
  bool found = false;
  for (const TileConfig& tc : s.tile_configs) {
    if (tc.ingress_blocked &&
        (tc.cwnext != Client::kNone || tc.ccwnext != Client::kNone ||
         tc.out != Client::kNone)) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpaceTest, LargerRingStillMinimizesWell) {
  const SpaceSummary s = enumerate_space(5);
  EXPECT_EQ(s.global_configs, 6u * 6 * 6 * 6 * 6 * 5);
  EXPECT_GT(s.reduction_factor, 50.0);
}

TEST(SpaceTest, DisablingFallbackShrinksConfigSet) {
  RuleOptions no_fallback;
  no_fallback.direction_fallback = false;
  const SpaceSummary with = enumerate_space(4);
  const SpaceSummary without = enumerate_space(4, no_fallback);
  EXPECT_LE(without.distinct_tile_configs, with.distinct_tile_configs);
}

// Reference enumeration: every (header combination, token) pair through the
// whole rule, projected onto every tile into ordered sets.
SpaceSummary brute_force_space(int ring_size, RuleOptions options) {
  SpaceSummary summary;
  summary.ring_size = ring_size;
  const int alphabet = 1 + ring_size;
  std::uint64_t combos = 1;
  for (int i = 0; i < ring_size; ++i) combos *= static_cast<std::uint64_t>(alphabet);
  summary.global_configs = combos * static_cast<std::uint64_t>(ring_size);

  std::set<TileConfig> tile_set;
  std::set<std::uint16_t> block_set;
  std::vector<HeaderReq> headers(static_cast<std::size_t>(ring_size));
  for (std::uint64_t combo = 0; combo < combos; ++combo) {
    std::uint64_t code = combo;
    for (int i = 0; i < ring_size; ++i) {
      const auto digit = static_cast<int>(code % static_cast<std::uint64_t>(alphabet));
      code /= static_cast<std::uint64_t>(alphabet);
      headers[static_cast<std::size_t>(i)] =
          digit == 0 ? HeaderReq{} : HeaderReq{1u << (digit - 1), 16};
    }
    for (int token = 0; token < ring_size; ++token) {
      const RingConfig cfg = evaluate_rule(headers, token, options);
      for (int tile = 0; tile < ring_size; ++tile) {
        const TileConfig tc = project(cfg, headers, tile);
        tile_set.insert(tc);
        block_set.insert(tc.block_key());
      }
    }
  }
  summary.distinct_tile_configs = tile_set.size();
  summary.distinct_blocks = block_set.size();
  summary.reduction_factor = static_cast<double>(summary.global_configs) /
                             static_cast<double>(summary.distinct_tile_configs);
  summary.tile_configs.assign(tile_set.begin(), tile_set.end());
  return summary;
}

TEST(SpaceTest, BruteForceMatchesEnumeration) {
  for (const bool fallback : {true, false}) {
    RuleOptions options;
    options.direction_fallback = fallback;
    for (int r = 2; r <= 6; ++r) {
      SCOPED_TRACE(testing::Message() << "ring " << r << " fallback " << fallback);
      const SpaceSummary want = brute_force_space(r, options);
      const SpaceSummary got = enumerate_space(r, options);
      EXPECT_EQ(got.global_configs, want.global_configs);
      EXPECT_EQ(got.distinct_tile_configs, want.distinct_tile_configs);
      EXPECT_EQ(got.distinct_blocks, want.distinct_blocks);
      EXPECT_EQ(got.reduction_factor, want.reduction_factor);
      EXPECT_EQ(got.tile_configs, want.tile_configs);
    }
  }
}

TEST(SpaceTest, Ring7Pinned) {
  const SpaceSummary s = enumerate_space(7);
  EXPECT_EQ(s.global_configs, 14'680'064u);  // 8^7 x 7
  EXPECT_EQ(s.distinct_tile_configs, 212u);
}

}  // namespace
}  // namespace raw::router
