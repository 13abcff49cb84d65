#include "router/rule.h"

#include <algorithm>

#include "common/assert.h"

namespace raw::router {

namespace {

struct Claim {
  int cw_len = 0;   // clockwise edges from the input
  int ccw_len = 0;  // counter-clockwise edges from the input
  std::uint32_t cw_mask = 0;
  std::uint32_t ccw_mask = 0;
  std::uint32_t egress_mask = 0;
};

// Checks the claim against `cfg` and, if everything is free, commits it.
bool try_claim(RingConfig& cfg, int input, const Claim& c) {
  const int r = cfg.ring_size;
  for (int k = 0; k < c.cw_len; ++k) {
    if (cfg.cw_edge[static_cast<std::size_t>((input + k) % r)] >= 0) return false;
  }
  for (int k = 0; k < c.ccw_len; ++k) {
    if (cfg.ccw_edge[static_cast<std::size_t>(((input - k) % r + r) % r)] >= 0) {
      return false;
    }
  }
  for (int j = 0; j < r; ++j) {
    if ((c.egress_mask >> j & 1u) != 0 &&
        cfg.egress[static_cast<std::size_t>(j)] >= 0) {
      return false;
    }
  }
  for (int k = 0; k < c.cw_len; ++k) {
    cfg.cw_edge[static_cast<std::size_t>((input + k) % r)] = input;
  }
  for (int k = 0; k < c.ccw_len; ++k) {
    cfg.ccw_edge[static_cast<std::size_t>(((input - k) % r + r) % r)] = input;
  }
  for (int j = 0; j < r; ++j) {
    if ((c.egress_mask >> j & 1u) != 0) cfg.egress[static_cast<std::size_t>(j)] = input;
  }
  cfg.granted[static_cast<std::size_t>(input)] = true;
  cfg.cw_mask[static_cast<std::size_t>(input)] = c.cw_mask;
  cfg.ccw_mask[static_cast<std::size_t>(input)] = c.ccw_mask;
  return true;
}

// Builds the claim for a given assignment of non-local destinations to the
// clockwise direction (the rest go counter-clockwise).
Claim build_claim(int ring_size, int input, std::uint32_t out_mask,
                  std::uint32_t cw_dests) {
  Claim c;
  c.egress_mask = out_mask;
  for (int j = 0; j < ring_size; ++j) {
    if ((out_mask >> j & 1u) == 0 || j == input) continue;
    const int dcw = cw_distance(ring_size, input, j);
    if ((cw_dests >> j & 1u) != 0) {
      c.cw_len = std::max(c.cw_len, dcw);
      c.cw_mask |= 1u << j;
    } else {
      c.ccw_len = std::max(c.ccw_len, ring_size - dcw);
      c.ccw_mask |= 1u << j;
    }
  }
  return c;
}

}  // namespace

RingConfig idle_config(int ring_size) {
  RAW_ASSERT_MSG(ring_size >= 2 && ring_size <= kMaxRingSize,
                 "unsupported ring size");
  RingConfig cfg;
  cfg.ring_size = ring_size;
  cfg.cw_edge.fill(-1);
  cfg.ccw_edge.fill(-1);
  cfg.egress.fill(-1);
  return cfg;
}

bool claim_input(RingConfig& cfg, int input, const HeaderReq& h,
                 RuleOptions options) {
  const int r = cfg.ring_size;
  RAW_ASSERT(input >= 0 && input < r);
  if (h.empty()) return false;
  const std::uint32_t mask = h.out_mask & ((1u << r) - 1u);
  RAW_ASSERT_MSG(mask == h.out_mask, "destination mask beyond ring size");

  // Preferred assignment: every destination takes its shorter direction
  // (ties clockwise).
  std::uint32_t preferred_cw = 0;
  bool has_remote = false;
  for (int j = 0; j < r; ++j) {
    if ((mask >> j & 1u) == 0 || j == input) continue;
    has_remote = true;
    const int dcw = cw_distance(r, input, j);
    if (dcw * 2 <= r) preferred_cw |= 1u << j;
  }

  bool granted = try_claim(cfg, input, build_claim(r, input, mask, preferred_cw));
  if (!granted && options.direction_fallback && has_remote) {
    // Fallback assignments: flip the whole remote set to one direction,
    // then the other, then the complement of the preference.
    const std::uint32_t remote = mask & ~(1u << input);
    for (const std::uint32_t alt :
         {remote, std::uint32_t{0}, remote & ~preferred_cw}) {
      if (alt == preferred_cw) continue;
      if (try_claim(cfg, input, build_claim(r, input, mask, alt))) {
        granted = true;
        break;
      }
    }
  }
  if (granted) {
    cfg.grant_words[static_cast<std::size_t>(input)] =
        fragment_words(h.words, options.quantum_cap);
  }
  return granted;
}

RingConfig evaluate_rule(std::span<const HeaderReq> headers, int token,
                         RuleOptions options) {
  const int r = static_cast<int>(headers.size());
  RingConfig cfg = idle_config(r);
  RAW_ASSERT(token >= 0 && token < r);
  // Walk downstream from the token owner; earlier positions have priority,
  // which is what guarantees the owner always sends (§5.4).
  for (int k = 0; k < r; ++k) {
    const int i = (token + k) % r;
    claim_input(cfg, i, headers[static_cast<std::size_t>(i)], options);
  }
  return cfg;
}

}  // namespace raw::router
