#include "router/rule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

namespace raw::router {
namespace {

std::vector<HeaderReq> unicast(std::initializer_list<int> dests) {
  std::vector<HeaderReq> h;
  for (const int d : dests) {
    h.push_back(d < 0 ? HeaderReq{} : HeaderReq{1u << d, 16});
  }
  return h;
}

// Structural invariant: every claimed edge/egress belongs to a granted
// input, and granted inputs' paths are consistent.
void expect_invariants(const RingConfig& cfg) {
  for (int e = 0; e < cfg.ring_size; ++e) {
    const int cw = cfg.cw_edge[static_cast<std::size_t>(e)];
    const int ccw = cfg.ccw_edge[static_cast<std::size_t>(e)];
    const int eg = cfg.egress[static_cast<std::size_t>(e)];
    for (const int owner : {cw, ccw, eg}) {
      if (owner >= 0) {
        EXPECT_TRUE(cfg.granted[static_cast<std::size_t>(owner)])
            << "resource held by non-granted input " << owner;
      }
    }
  }
  for (int i = 0; i < cfg.ring_size; ++i) {
    if (!cfg.granted[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(cfg.cw_mask[static_cast<std::size_t>(i)], 0u);
      EXPECT_EQ(cfg.ccw_mask[static_cast<std::size_t>(i)], 0u);
    }
  }
}

TEST(RuleTest, CwDistance) {
  EXPECT_EQ(cw_distance(4, 0, 0), 0);
  EXPECT_EQ(cw_distance(4, 0, 1), 1);
  EXPECT_EQ(cw_distance(4, 0, 3), 3);
  EXPECT_EQ(cw_distance(4, 3, 0), 1);
  EXPECT_EQ(cw_distance(8, 6, 2), 4);
}

TEST(RuleTest, AllEmptyGrantsNothing) {
  const auto cfg = evaluate_rule(unicast({-1, -1, -1, -1}), 0);
  EXPECT_EQ(cfg.grant_count(), 0);
}

TEST(RuleTest, SelfDestinationUsesNoRingEdges) {
  const auto cfg = evaluate_rule(unicast({0, -1, -1, -1}), 0);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_EQ(cfg.egress[0], 0);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(cfg.cw_edge[static_cast<std::size_t>(e)], -1);
    EXPECT_EQ(cfg.ccw_edge[static_cast<std::size_t>(e)], -1);
  }
}

TEST(RuleTest, ShorterDirectionPreferred) {
  // 0 -> 1 is one hop clockwise: must take cw edge 0 only.
  const auto cfg = evaluate_rule(unicast({1, -1, -1, -1}), 0);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_EQ(cfg.cw_edge[0], 0);
  EXPECT_EQ(cfg.ccw_edge[0], -1);
  // 0 -> 3 is one hop counter-clockwise.
  const auto cfg2 = evaluate_rule(unicast({3, -1, -1, -1}), 0);
  EXPECT_TRUE(cfg2.granted[0]);
  EXPECT_EQ(cfg2.ccw_edge[0], 0);
}

TEST(RuleTest, Figure51Scenario) {
  // The thesis illustration: 0->2, 1->3, 2->0, 3->1 all send at once:
  // 0 and 2 clockwise, 1 and 3 forced counter-clockwise.
  const auto cfg = evaluate_rule(unicast({2, 3, 0, 1}), 0);
  EXPECT_EQ(cfg.grant_count(), 4);
  EXPECT_EQ(cfg.cw_edge[0], 0);
  EXPECT_EQ(cfg.cw_edge[1], 0);
  EXPECT_EQ(cfg.cw_edge[2], 2);
  EXPECT_EQ(cfg.cw_edge[3], 2);
  EXPECT_EQ(cfg.ccw_edge[1], 1);
  EXPECT_EQ(cfg.ccw_edge[0], 1);
  EXPECT_EQ(cfg.ccw_edge[3], 3);
  EXPECT_EQ(cfg.ccw_edge[2], 3);
  expect_invariants(cfg);
}

TEST(RuleTest, EveryPermutationFullyGranted) {
  // §5.3: without output contention a single static network suffices — every
  // permutation of destinations must grant all four inputs, for any token.
  std::array<int, 4> perm{0, 1, 2, 3};
  do {
    for (int token = 0; token < 4; ++token) {
      const auto cfg =
          evaluate_rule(unicast({perm[0], perm[1], perm[2], perm[3]}), token);
      EXPECT_EQ(cfg.grant_count(), 4)
          << "perm " << perm[0] << perm[1] << perm[2] << perm[3] << " token "
          << token;
      expect_invariants(cfg);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(RuleTest, TokenOwnerAlwaysGranted) {
  // Exhaustive over the unicast header alphabet: the token owner sends
  // whenever it has a packet (§5.4).
  for (int h0 = -1; h0 < 4; ++h0) {
    for (int h1 = -1; h1 < 4; ++h1) {
      for (int h2 = -1; h2 < 4; ++h2) {
        for (int h3 = -1; h3 < 4; ++h3) {
          for (int token = 0; token < 4; ++token) {
            const auto headers = unicast({h0, h1, h2, h3});
            const auto cfg = evaluate_rule(headers, token);
            expect_invariants(cfg);
            if (!headers[static_cast<std::size_t>(token)].empty()) {
              EXPECT_TRUE(cfg.granted[static_cast<std::size_t>(token)]);
            }
          }
        }
      }
    }
  }
}

TEST(RuleTest, OutputContentionGrantsExactlyOne) {
  // All four inputs want output 2: only the token owner wins.
  for (int token = 0; token < 4; ++token) {
    const auto cfg = evaluate_rule(unicast({2, 2, 2, 2}), token);
    EXPECT_EQ(cfg.grant_count(), 1);
    EXPECT_TRUE(cfg.granted[static_cast<std::size_t>(token)]);
    EXPECT_EQ(cfg.egress[2], token);
  }
}

TEST(RuleTest, DeterministicAcrossCalls) {
  const auto a = evaluate_rule(unicast({2, 3, 0, 1}), 1);
  const auto b = evaluate_rule(unicast({2, 3, 0, 1}), 1);
  EXPECT_EQ(a.cw_edge, b.cw_edge);
  EXPECT_EQ(a.ccw_edge, b.ccw_edge);
  EXPECT_EQ(a.egress, b.egress);
}

TEST(RuleTest, FallbackDirectionUsedWhenShorterBlocked) {
  // Token at 0. Input 0 -> 1 (cw edge 0). Input 3 -> 0: shorter is cw
  // (distance 1, edge 3); that stays free, so pick a real conflict:
  // Input 0 -> 2 claims cw edges 0,1 (distance 2 tie -> cw).
  // Input 1 -> 3: shorter cw (edges 1,2) conflicts at edge 1 -> must fall
  // back counter-clockwise (edges 1->0->3: ccw_edge[1], ccw_edge[0]).
  const auto cfg = evaluate_rule(unicast({2, 3, -1, -1}), 0);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_TRUE(cfg.granted[1]);
  EXPECT_EQ(cfg.ccw_edge[1], 1);
  EXPECT_EQ(cfg.ccw_edge[0], 1);
}

TEST(RuleTest, NoFallbackOptionDeniesBlockedInput) {
  RuleOptions opts;
  opts.direction_fallback = false;
  const auto cfg = evaluate_rule(unicast({2, 3, -1, -1}), 0, opts);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_FALSE(cfg.granted[1]);
}

TEST(RuleTest, MulticastDualArcGrant) {
  // Input 0 multicasts to 1 (cw) and 3 (ccw) and itself.
  std::vector<HeaderReq> h{{0b1011, 8}, {}, {}, {}};
  const auto cfg = evaluate_rule(h, 0);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_EQ(cfg.egress[0], 0);
  EXPECT_EQ(cfg.egress[1], 0);
  EXPECT_EQ(cfg.egress[3], 0);
  EXPECT_EQ(cfg.cw_edge[0], 0);
  EXPECT_EQ(cfg.ccw_edge[0], 0);
  EXPECT_EQ(cfg.cw_mask[0], 0b0010u);
  EXPECT_EQ(cfg.ccw_mask[0], 0b1000u);
}

TEST(RuleTest, MulticastAllOrNothing) {
  // Input 1 wants {0, 2}; input 0 (token owner) already owns egress 0.
  std::vector<HeaderReq> h{{0b0001, 8}, {0b0101, 8}, {}, {}};
  const auto cfg = evaluate_rule(h, 0);
  EXPECT_TRUE(cfg.granted[0]);
  EXPECT_FALSE(cfg.granted[1]);  // cannot deliver to egress 0 => denied fully
  EXPECT_EQ(cfg.egress[2], -1);
}

TEST(RuleTest, BroadcastFromTokenOwner) {
  std::vector<HeaderReq> h{{0b1111, 8}, {}, {}, {}};
  const auto cfg = evaluate_rule(h, 0);
  EXPECT_TRUE(cfg.granted[0]);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(cfg.egress[static_cast<std::size_t>(j)], 0);
}

TEST(RuleTest, GeneralizesToLargerRings) {
  // Rotation permutation on an 8-ring grants everyone, any token.
  for (int token = 0; token < 8; ++token) {
    std::vector<HeaderReq> h;
    for (int i = 0; i < 8; ++i) h.push_back({1u << ((i + 1) % 8), 4});
    const auto cfg = evaluate_rule(h, token);
    EXPECT_EQ(cfg.grant_count(), 8) << "token " << token;
    expect_invariants(cfg);
  }
}

TEST(RuleTest, FairnessOverRotatingToken) {
  // All inputs persistently fight for output 0; over 4 quanta with the
  // token rotating, each input wins exactly once.
  std::array<int, 4> wins{};
  for (int q = 0; q < 4; ++q) {
    const auto cfg = evaluate_rule(unicast({0, 0, 0, 0}), q % 4);
    for (int i = 0; i < 4; ++i) {
      if (cfg.granted[static_cast<std::size_t>(i)]) ++wins[static_cast<std::size_t>(i)];
    }
  }
  for (const int w : wins) EXPECT_EQ(w, 1);
}

// Moves destination bit j of `mask` to bit (j + shift) mod r.
std::uint32_t rotate_mask(std::uint32_t mask, int r, int shift) {
  std::uint32_t out = 0;
  for (int j = 0; j < r; ++j) {
    if ((mask >> j & 1u) != 0) out |= 1u << ((j + shift) % r + r) % r;
  }
  return out;
}

// `cfg` with every ring position p relabelled (p + shift) mod r.
RingConfig rotate_config(const RingConfig& cfg, int shift) {
  const int r = cfg.ring_size;
  const auto pos = [&](int p) {
    return static_cast<std::size_t>(((p + shift) % r + r) % r);
  };
  const auto occupant = [&](int o) { return o < 0 ? o : static_cast<int>(pos(o)); };
  RingConfig out = cfg;
  for (int p = 0; p < r; ++p) {
    const auto s = static_cast<std::size_t>(p);
    out.cw_edge[pos(p)] = occupant(cfg.cw_edge[s]);
    out.ccw_edge[pos(p)] = occupant(cfg.ccw_edge[s]);
    out.egress[pos(p)] = occupant(cfg.egress[s]);
    out.granted[pos(p)] = cfg.granted[s];
    out.cw_mask[pos(p)] = rotate_mask(cfg.cw_mask[s], r, shift);
    out.ccw_mask[pos(p)] = rotate_mask(cfg.ccw_mask[s], r, shift);
    out.grant_words[pos(p)] = cfg.grant_words[s];
  }
  return out;
}

// For every assignment of `alphabet` masks to the r inputs and every token:
// the rule commutes with rotating the ring, and it is claim_input applied
// from the token onwards. Input i's fragment is 8 + i words under a 10-word
// cap, so the granted lengths differ per input and must rotate too.
void expect_rotation_equivariant(int r, const std::vector<std::uint32_t>& alphabet,
                                 RuleOptions options) {
  options.quantum_cap = 10;
  const auto n = static_cast<std::uint64_t>(alphabet.size());
  std::uint64_t combos = 1;
  for (int i = 0; i < r; ++i) combos *= n;
  std::vector<HeaderReq> h(static_cast<std::size_t>(r));
  std::vector<HeaderReq> rotated(static_cast<std::size_t>(r));
  int failures = 0;
  for (std::uint64_t combo = 0; combo < combos && failures < 5; ++combo) {
    std::uint64_t code = combo;
    for (int i = 0; i < r; ++i) {
      h[static_cast<std::size_t>(i)] =
          HeaderReq{alphabet[static_cast<std::size_t>(code % n)],
                    8 + static_cast<std::uint32_t>(i)};
      code /= n;
    }
    for (int token = 0; token < r; ++token) {
      // Input p moves to p - token, so the token owner becomes input 0.
      for (int p = 0; p < r; ++p) {
        const HeaderReq& src = h[static_cast<std::size_t>(p)];
        rotated[static_cast<std::size_t>(((p - token) % r + r) % r)] =
            HeaderReq{rotate_mask(src.out_mask, r, -token), src.words};
      }
      const RingConfig direct = evaluate_rule(h, token, options);
      const RingConfig via_zero =
          rotate_config(evaluate_rule(rotated, 0, options), token);

      RingConfig stepped = idle_config(r);
      for (int k = 0; k < r; ++k) {
        const int i = (token + k) % r;
        claim_input(stepped, i, h[static_cast<std::size_t>(i)], options);
      }

      if (direct != via_zero || direct != stepped) {
        ADD_FAILURE() << "ring " << r << " combo " << combo << " token " << token
                      << (direct != via_zero ? ": not rotation-equivariant"
                                             : ": differs from claim_input walk");
        ++failures;
      }
    }
  }
}

TEST(RuleTest, RotationEquivariant) {
  // Ring 4: every destination mask, unicast and multicast, on every input.
  std::vector<std::uint32_t> all4;
  for (std::uint32_t m = 0; m < 16; ++m) all4.push_back(m);
  for (const bool fallback : {true, false}) {
    RuleOptions options;
    options.direction_fallback = fallback;
    expect_rotation_equivariant(4, all4, options);
  }
  // Ring 5 (all 32^5 mask combinations are too many for a unit test): empty,
  // every unicast, every two-destination mask {j, j+2}, and broadcast.
  std::vector<std::uint32_t> some5 = {0, 31};
  for (int j = 0; j < 5; ++j) {
    some5.push_back(1u << j);
    some5.push_back(1u << j | 1u << (j + 2) % 5);
  }
  expect_rotation_equivariant(5, some5, RuleOptions{});
}

}  // namespace
}  // namespace raw::router
