// The Rotating Crossbar global routing rule (chapter 5).
//
// The four Crossbar Processors form a ring with one full-duplex
// static-network connection between neighbours; the clockwise and
// counter-clockwise directions are independent resources, as is each
// crossbar-to-egress link. Once per routing quantum every crossbar tile
// evaluates the *same deterministic rule* on the same inputs (the token
// position and the four exchanged headers), so all tiles agree on the
// crossbar configuration without any arbitration traffic — the token is a
// synchronous local counter, never transmitted (§5.1).
//
// The rule walks the inputs downstream from the token owner. Each non-empty
// input claims its egress(es) and a ring path — the shorter direction first,
// falling back to the other — provided every required directed ring edge and
// egress is free; otherwise that input stalls for this quantum. The token
// owner always wins (fairness: every input sends at least once every R
// quanta); allocations never form cycles, so the compile-time schedules are
// conflict-free and the static network cannot deadlock (§5.4, §5.5).
//
// The rule depends only on positions *relative* to each input and to the
// token, so it is rotation-equivariant: rotating the headers and the token
// together rotates the result. Each step of the walk (`claim_input`) sees
// the inputs before it only through the partial configuration they left,
// which lets the configuration-space enumeration share one walk prefix
// across every header combination that starts with it.
//
// The rule is generic in the ring size R (the §8.5 scalability study); the
// thesis instance is R = 4. Destinations are a port *bit mask* so the §8.6
// multicast extension (one ingress to several egresses) falls out naturally:
// a multicast claim takes a clockwise arc and a counter-clockwise arc that
// together cover all destinations, and is granted all-or-nothing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace raw::router {

/// Maximum ring size supported by the fixed-size rule structures.
inline constexpr int kMaxRingSize = 16;

/// Per-input request header as exchanged between crossbar tiles: a
/// destination port mask (0 = empty input) plus the words remaining in the
/// current fragment.
struct HeaderReq {
  std::uint32_t out_mask = 0;  // bit j set: destined to egress j
  std::uint32_t words = 0;     // fragment length (words still to send)

  [[nodiscard]] bool empty() const { return out_mask == 0; }
};

/// The resolved crossbar configuration for one quantum.
struct RingConfig {
  int ring_size = 4;

  /// Occupant input of each directed ring edge, -1 if free.
  /// cw_edge[i] is the edge from tile i to tile (i+1) % R;
  /// ccw_edge[i] is the edge from tile i to tile (i-1+R) % R.
  std::array<int, kMaxRingSize> cw_edge{};
  std::array<int, kMaxRingSize> ccw_edge{};
  /// Occupant input of each crossbar->egress link, -1 if free.
  std::array<int, kMaxRingSize> egress{};
  /// Granted flag per input (all requested egresses were claimed).
  std::array<bool, kMaxRingSize> granted{};
  /// Destinations served clockwise / counter-clockwise per input.
  std::array<std::uint32_t, kMaxRingSize> cw_mask{};
  std::array<std::uint32_t, kMaxRingSize> ccw_mask{};
  /// Words each granted input streams this quantum (its fragment length,
  /// capped by RuleOptions::quantum_cap); 0 for non-granted inputs.
  std::array<std::uint32_t, kMaxRingSize> grant_words{};

  /// Number of granted inputs.
  [[nodiscard]] int grant_count() const {
    int n = 0;
    for (int i = 0; i < ring_size; ++i) n += granted[static_cast<std::size_t>(i)] ? 1 : 0;
    return n;
  }

  friend bool operator==(const RingConfig&, const RingConfig&) = default;
};

struct RuleOptions {
  /// When false, an input whose shorter direction is blocked does NOT try
  /// the opposite direction (ablation knob; the thesis design falls back).
  bool direction_fallback = true;
  /// Fragment cap in words: a granted stream transfers
  /// fragment_words(header.words, quantum_cap) this quantum. Streams have
  /// *independent* lengths — the switch blocks are multi-phase, dropping
  /// each stream's moves as its count expires. 0 = uncapped.
  std::uint32_t quantum_cap = 0;
};

/// Words a stream with `remaining` words transfers under `cap`: the whole
/// remainder if it fits, otherwise `cap` — backed off by up to 4 words so
/// the *next* fragment is never shorter than the software-pipeline depth
/// (tiny tails would underflow the prologue staggering). With cap >= 9
/// every fragment is at least 5 words (the IP header size floor).
constexpr std::uint32_t fragment_words(std::uint32_t remaining,
                                       std::uint32_t cap) {
  if (cap == 0 || remaining <= cap) return remaining;
  if (remaining - cap < 5) return cap - 4;
  return cap;
}

/// A ring of `ring_size` tiles with every edge and egress free and no input
/// granted: the state the rule walk starts from.
RingConfig idle_config(int ring_size);

/// One step of the rule walk: input `input` with request `h` claims its
/// egress(es) and ring path in `cfg` — shorter direction first, then the
/// fallbacks — if every resource is still free, and leaves `cfg` untouched
/// otherwise. Returns whether the input was granted.
bool claim_input(RingConfig& cfg, int input, const HeaderReq& h,
                 RuleOptions options = {});

/// Evaluates the global rule. `headers[i]` is input i's request; `token` is
/// the ring index holding the token. Deterministic and side-effect free —
/// every crossbar tile calls this with identical arguments. It is
/// `claim_input` applied to inputs token, token+1, ... (mod R), starting
/// from `idle_config`.
RingConfig evaluate_rule(std::span<const HeaderReq> headers, int token,
                         RuleOptions options = {});

/// Clockwise distance from ring position `from` to `to`, both in
/// [0, ring_size).
constexpr int cw_distance(int ring_size, int from, int to) {
  const int d = to - from;
  return d < 0 ? d + ring_size : d;
}

/// All destinations reachable, single static network: the §5.3 property —
/// whenever requested egresses are all distinct (no output contention),
/// every non-empty input is granted. Checked exhaustively in tests.

}  // namespace raw::router
