#include "router/config_space.h"

#include <bit>

#include "common/assert.h"
#include "sim/switch_isa.h"

namespace raw::router {

const char* client_name(Client c) {
  switch (c) {
    case Client::kNone: return "0";
    case Client::kIn: return "in";
    case Client::kCwPrev: return "cwprev";
    case Client::kCcwPrev: return "ccwprev";
  }
  return "?";
}

std::string to_string(const TileConfig& tc) {
  // Sequential appends (not `"(" + std::to_string(..)` chains): GCC 12's
  // -Wrestrict false-positives on operator+(const char*, std::string&&)
  // depending on surrounding inlining, and this builds -Werror.
  std::string s = "out<-";
  s += client_name(tc.out);
  s += '(';
  s += std::to_string(tc.out_dist);
  s += ") cwnext<-";
  s += client_name(tc.cwnext);
  s += '(';
  s += std::to_string(tc.cw_dist);
  s += ") ccwnext<-";
  s += client_name(tc.ccwnext);
  s += '(';
  s += std::to_string(tc.ccw_dist);
  s += ')';
  if (tc.ingress_blocked) s += " BLOCKED";
  return s;
}

TileConfig project(const RingConfig& cfg, std::span<const HeaderReq> headers,
                   int tile) {
  const int r = cfg.ring_size;
  RAW_ASSERT(tile >= 0 && tile < r);
  TileConfig tc;

  // Egress server: which stream terminates (or drops off) here.
  const int out_src = cfg.egress[static_cast<std::size_t>(tile)];
  if (out_src >= 0) {
    if (out_src == tile) {
      tc.out = Client::kIn;
    } else if ((cfg.cw_mask[static_cast<std::size_t>(out_src)] >> tile & 1u) != 0) {
      tc.out = Client::kCwPrev;
      tc.out_dist = static_cast<std::uint8_t>(cw_distance(r, out_src, tile));
    } else {
      tc.out = Client::kCcwPrev;
      tc.out_dist = static_cast<std::uint8_t>(cw_distance(r, tile, out_src));
    }
  }

  // Clockwise downstream ring link.
  const int cw_src = cfg.cw_edge[static_cast<std::size_t>(tile)];
  if (cw_src >= 0) {
    if (cw_src == tile) {
      tc.cwnext = Client::kIn;
    } else {
      tc.cwnext = Client::kCwPrev;
      tc.cw_dist = static_cast<std::uint8_t>(cw_distance(r, cw_src, tile));
    }
  }

  // Counter-clockwise downstream ring link.
  const int ccw_src = cfg.ccw_edge[static_cast<std::size_t>(tile)];
  if (ccw_src >= 0) {
    if (ccw_src == tile) {
      tc.ccwnext = Client::kIn;
    } else {
      tc.ccwnext = Client::kCcwPrev;
      tc.ccw_dist = static_cast<std::uint8_t>(cw_distance(r, tile, ccw_src));
    }
  }

  tc.ingress_blocked = !headers[static_cast<std::size_t>(tile)].empty() &&
                       !cfg.granted[static_cast<std::size_t>(tile)];
  return tc;
}

namespace {

// TileConfig packed into 19 bits whose integer order is the order of
// TileConfig's operator<=> (members compared in declaration order):
// out | cwnext | ccwnext (2 bits each), the three expansion numbers (4 bits
// each: distances stay below kMaxRingSize = 16), then ingress_blocked.
constexpr int kKeyBits = 19;

std::uint32_t pack(const TileConfig& tc) {
  return static_cast<std::uint32_t>(tc.out) << 17 |
         static_cast<std::uint32_t>(tc.cwnext) << 15 |
         static_cast<std::uint32_t>(tc.ccwnext) << 13 |
         static_cast<std::uint32_t>(tc.out_dist) << 9 |
         static_cast<std::uint32_t>(tc.cw_dist) << 5 |
         static_cast<std::uint32_t>(tc.ccw_dist) << 1 |
         static_cast<std::uint32_t>(tc.ingress_blocked);
}

TileConfig unpack(std::uint32_t key) {
  TileConfig tc;
  tc.out = static_cast<Client>(key >> 17 & 3u);
  tc.cwnext = static_cast<Client>(key >> 15 & 3u);
  tc.ccwnext = static_cast<Client>(key >> 13 & 3u);
  tc.out_dist = static_cast<std::uint8_t>(key >> 9 & 15u);
  tc.cw_dist = static_cast<std::uint8_t>(key >> 5 & 15u);
  tc.ccw_dist = static_cast<std::uint8_t>(key >> 1 & 15u);
  tc.ingress_blocked = (key & 1u) != 0;
  return tc;
}

// Depth-first walk over the header combinations with the token at input 0.
// With the token at 0 the rule claims inputs in index order, so a node at
// depth `input` holds the configuration its header prefix produced; each
// child copies it and applies one claim_input step. Leaves project every
// tile into the bitsets.
struct SpaceWalk {
  int r;
  RuleOptions options;
  std::vector<HeaderReq> headers = std::vector<HeaderReq>(static_cast<std::size_t>(r));
  std::vector<std::uint64_t> tiles =  // bit per packed TileConfig key
      std::vector<std::uint64_t>(std::size_t{1} << (kKeyBits - 6));
  std::uint64_t blocks = 0;  // bit per 6-bit block_key

  void walk(const RingConfig& cfg, int input) {
    if (input == r) {
      for (int tile = 0; tile < r; ++tile) {
        const TileConfig tc = project(cfg, headers, tile);
        const std::uint32_t key = pack(tc);
        tiles[key >> 6] |= std::uint64_t{1} << (key & 63u);
        blocks |= std::uint64_t{1} << tc.block_key();
      }
      return;
    }
    HeaderReq& h = headers[static_cast<std::size_t>(input)];
    h = HeaderReq{};  // an empty input claims nothing
    walk(cfg, input + 1);
    for (int dest = 0; dest < r; ++dest) {
      h = HeaderReq{1u << dest, 16};
      RingConfig child = cfg;
      claim_input(child, input, h, options);
      walk(child, input + 1);
    }
  }
};

}  // namespace

SpaceSummary enumerate_space(int ring_size, RuleOptions options) {
  RAW_ASSERT(ring_size >= 2 && ring_size <= kMaxRingSize);
  SpaceSummary summary;
  summary.ring_size = ring_size;

  // Header alphabet: empty + one of `ring_size` destinations (grants do not
  // depend on fragment lengths, so words need not be enumerated).
  const int alphabet = 1 + ring_size;
  std::uint64_t combos = 1;
  for (int i = 0; i < ring_size; ++i) combos *= static_cast<std::uint64_t>(alphabet);
  summary.global_configs = combos * static_cast<std::uint64_t>(ring_size);
  summary.instrs_per_global_config =
      static_cast<double>(sim::kSwitchImemWords) /
      static_cast<double>(summary.global_configs);

  // Only token 0 is walked: the rule is rotation-equivariant, so the
  // configuration for (headers, token t) is token 0's configuration for the
  // headers rotated by t, rotated back — its projection onto tile j is
  // token 0's projection onto tile j - t. Projecting token 0's
  // configurations onto every tile therefore yields every tile
  // configuration of every token.
  SpaceWalk space{ring_size, options};
  space.walk(idle_config(ring_size), 0);

  summary.distinct_blocks = static_cast<std::uint64_t>(std::popcount(space.blocks));
  for (std::size_t w = 0; w < space.tiles.size(); ++w) {
    for (std::uint64_t bits = space.tiles[w]; bits != 0; bits &= bits - 1) {
      const auto key = static_cast<std::uint32_t>(
          w << 6 | static_cast<unsigned>(std::countr_zero(bits)));
      summary.tile_configs.push_back(unpack(key));
    }
  }
  summary.distinct_tile_configs = summary.tile_configs.size();
  summary.reduction_factor = static_cast<double>(summary.global_configs) /
                             static_cast<double>(summary.distinct_tile_configs);
  return summary;
}

}  // namespace raw::router
