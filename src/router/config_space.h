// Configuration space of the Rotating Crossbar and its minimization (ch. 6).
//
// The naive space is every combination of the four exchanged headers (empty
// or one of four output ports) and the token position: 5^4 x 4 = 2,500
// global configurations (§6.1) — far too many to give each its own switch
// code within the 8K-word switch instruction memory (~3.3 instructions
// each). The minimization (§6.2, Table 6.1) re-expresses a configuration
// *from one crossbar tile's point of view* as an assignment of clients
// {none, in, cwprev, ccwprev} to its three servers {out, cwnext, ccwnext},
// plus an expansion number (the ring distance each stream has already
// travelled, which fixes software-pipelining depth) and a flag saying the
// local ingress cannot send. Only a small self-sufficient subset of these
// per-tile configurations is ever produced by the rule; each gets one
// switch-code block, shared across all 2,500 global configurations.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "router/rule.h"

namespace raw::router {

/// Who feeds one of a crossbar tile's outgoing connections (Table 6.1).
enum class Client : std::uint8_t { kNone = 0, kIn = 1, kCwPrev = 2, kCcwPrev = 3 };

const char* client_name(Client c);

/// One crossbar tile's view of a global configuration.
struct TileConfig {
  Client out = Client::kNone;      // crossbar -> egress
  Client cwnext = Client::kNone;   // clockwise downstream ring link
  Client ccwnext = Client::kNone;  // counter-clockwise downstream ring link
  /// Ring hops each server's stream has already travelled from its source
  /// ingress (0 when the client is `in`); the §6.2 "expansion number".
  std::uint8_t out_dist = 0;
  std::uint8_t cw_dist = 0;
  std::uint8_t ccw_dist = 0;
  /// The §6.2 boolean: this tile's ingress has a packet but was not granted.
  bool ingress_blocked = false;

  /// Client-triple key (coarse identity used in the minimization report).
  [[nodiscard]] std::uint16_t block_key() const {
    return static_cast<std::uint16_t>(static_cast<unsigned>(out) |
                                      static_cast<unsigned>(cwnext) << 2 |
                                      static_cast<unsigned>(ccwnext) << 4);
  }

  /// Switch-code identity: the client triple *plus* the expansion numbers.
  /// The distances determine the software-pipelined prologue/epilogue that
  /// staggers stream start-up (§6.2: without it, coupled route instructions
  /// deadlock the ring at quantum start).
  [[nodiscard]] std::uint32_t sched_key() const {
    return static_cast<std::uint32_t>(block_key()) |
           static_cast<std::uint32_t>(out_dist) << 6 |
           static_cast<std::uint32_t>(cw_dist) << 9 |
           static_cast<std::uint32_t>(ccw_dist) << 12;
  }

  /// Largest expansion number among this configuration's streams: the depth
  /// of the software pipeline.
  [[nodiscard]] std::uint8_t max_dist() const {
    return std::max(out_dist, std::max(cw_dist, ccw_dist));
  }

  friend auto operator<=>(const TileConfig&, const TileConfig&) = default;
};

std::string to_string(const TileConfig& tc);

/// Projects a resolved ring configuration onto tile `tile`.
TileConfig project(const RingConfig& cfg, std::span<const HeaderReq> headers,
                   int tile);

/// Exhaustive enumeration of the unicast configuration space for a ring of
/// size R with header alphabet {empty, out0..out(R-1)}.
///
/// The result equals running evaluate_rule on every (headers, token) pair
/// and projecting onto every tile, at a fraction of the work: only token 0
/// is walked (the rule is rotation-equivariant, so the other tokens'
/// projections are token 0's projections onto other tiles); the walk is
/// depth-first over inputs 0..R-1, one claim_input step per tree node, so
/// combinations sharing a header prefix share its rule work; and distinct
/// tile configurations are collected in a bitset of packed keys whose
/// in-order scan yields `tile_configs` already sorted.
struct SpaceSummary {
  int ring_size = 4;
  std::uint64_t global_configs = 0;       // |Hdr|^R * R (2,500 for R = 4)
  std::uint64_t distinct_tile_configs = 0;  // full TileConfig identity
  std::uint64_t distinct_blocks = 0;        // client-triple identity
  double reduction_factor = 0.0;            // global / distinct_tile_configs
  /// Every distinct per-tile configuration, sorted.
  std::vector<TileConfig> tile_configs;
  /// Instructions of switch imem available per *global* config before
  /// minimization (the §6.1 "approximately 3.3" figure).
  double instrs_per_global_config = 0.0;
};

SpaceSummary enumerate_space(int ring_size = 4, RuleOptions options = {});

}  // namespace raw::router
