// Wormhole-routed, dimension-ordered dynamic network (§3.3).
//
// Messages are a header word followed by up to 31 payload words. The header
// encodes the destination tile and payload length; routing is X-first
// dimension order, so the network is deadlock-free for any traffic. A worm
// locks each router output it acquires until its tail flit passes, exactly
// like the hardware; one flit crosses each link per cycle.
//
// The Raw router's fast path switches packets over the *static* network (the
// thesis' point is that it can do so faster). The dynamic network carries the
// lookup requests and replies between ingress and lookup tiles, the
// non-blocking-memory example's traffic (§8.2), and, after recovery from a
// permanent tile freeze, every packet of the degraded router
// (router/recovery.cc).
//
// Arbitration works like a crossbar scheduler: each router reads its input
// heads once per cycle into per-output request bitmaps, and a round-robin
// pointer picks the next requester with a rotate and a count of trailing
// zeros. A router with no word waiting at any input is skipped.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "sim/channel.h"
#include "sim/coords.h"

namespace raw::sim {

/// Maximum payload words per dynamic message (§3.3: up to 32 words
/// including the header).
inline constexpr std::uint32_t kMaxDynPayloadWords = 31;

/// Header word layout: [31:16] source tile, [15:8] destination tile,
/// [7:0] payload length.
common::Word make_dyn_header(int src_tile, int dest_tile, std::uint32_t payload_words);
int dyn_header_src(common::Word header);
int dyn_header_dest(common::Word header);
std::uint32_t dyn_header_len(common::Word header);

class DynamicNetwork {
 public:
  /// Runs on `engine`'s clock, as the chip's channels do: its link channels
  /// commit through the engine's dirty list, and a word ejected at a tile
  /// fires that tile's eject slot.
  DynamicNetwork(EngineState& engine, GridShape shape,
                 std::size_t endpoint_queue_words = 64);

  [[nodiscard]] GridShape shape() const { return shape_; }

  /// Injection from a tile processor. The whole message must fit in the
  /// tile's inject queue at once (the hardware blocks the processor
  /// otherwise; callers poll can_inject and retry next cycle). A destination
  /// outside the grid aborts here, at the caller.
  [[nodiscard]] bool can_inject(int tile, std::uint32_t payload_words) const;
  void inject(int tile, int dest_tile, std::span<const common::Word> payload);

  /// Ejection at the destination tile, word at a time (header first).
  [[nodiscard]] bool has_eject(int tile) const;
  [[nodiscard]] common::Word pop_eject(int tile);

  /// Words currently queued at a tile's eject port (for whole-message
  /// readiness checks).
  [[nodiscard]] std::size_t eject_size(int tile) const;

  /// Wake slot (see EngineState) of the one agent parked until a word is
  /// queued at `tile`'s eject port; step() fires it when it ejects a word
  /// there. Registered and cleared by the chip's sparse stepper.
  [[nodiscard]] std::int32_t& eject_slot(int tile) {
    return eject_wait_[static_cast<std::size_t>(tile)];
  }
  [[nodiscard]] const std::int32_t& eject_slot(int tile) const {
    return eject_wait_[static_cast<std::size_t>(tile)];
  }

  /// Advances all routers by one cycle: the network's share of the cycle's
  /// work, before the engine commits the dirty channels.
  void step();

  [[nodiscard]] std::uint64_t flits_routed() const { return flits_routed_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return messages_delivered_; }

  /// Words injected but not yet ejected — the network's in-flight load.
  /// step() is a provable no-op while this is zero (no head flit exists to
  /// arbitrate, so even the round-robin pointers hold still), which lets the
  /// chip skip the whole router sweep on quiet cycles.
  [[nodiscard]] std::uint64_t words_in_flight() const { return net_words_; }

  /// Internal link channels, exposed so the chip can list them with its own
  /// (stats, digests, diagnostics).
  [[nodiscard]] std::vector<Channel*> all_channels();

  /// Recovery reset (fault-adaptive reconfiguration): discards every queued
  /// and in-flight word — inject/eject queues, link channels, worm locks,
  /// arbitration pointers. Returns the number of words dropped. Cumulative
  /// counters survive.
  std::uint64_t reset();

 private:
  // Per-router input ports: the four mesh directions plus local injection.
  static constexpr std::size_t kNumInputs = 5;   // N,S,E,W,Inject
  static constexpr std::size_t kNumOutputs = 5;  // N,S,E,W,Eject
  static constexpr std::size_t kEjectPort = 4;
  static constexpr std::size_t kInjectPort = 4;

  static constexpr std::uint8_t kFree = 0xff;

  struct Router {
    // in_of[o]: input whose worm currently owns output o, or kFree.
    std::array<std::uint8_t, kNumOutputs> in_of{kFree, kFree, kFree, kFree, kFree};
    // Bit i set: input i's worm owns an output.
    std::uint32_t locked = 0;
    std::array<std::uint32_t, kNumInputs> flits_left{};
    // Round-robin arbitration pointer per output: the input tried first.
    std::array<std::uint8_t, kNumOutputs> rr{};
    // Words at this router's inputs: its inject queue plus every word
    // written (staged or committed) into its incoming links and not yet
    // read. Zero means no input can have a flit, so step() skips it.
    std::uint32_t waiting = 0;
  };

  /// One router's share of step(): arbitration and flit transfer at `t`.
  void step_router(std::size_t t);

  GridShape shape_;
  std::vector<Router> routers_;
  // links_[tile][dir]: channel carrying flits *out of* `tile` toward dir.
  std::vector<std::array<std::unique_ptr<Channel>, 4>> links_;
  // in_[tile][dir]: channel carrying flits *into* `tile` from dir (the
  // neighbour's link pointing back at it); null on the chip edge.
  std::vector<std::array<Channel*, 4>> in_;
  // next_[tile][dir]: the tile links_[tile][dir] leads to.
  std::vector<std::array<std::uint32_t, 4>> next_;
  // route_[tile * num_tiles + dest]: X-first output port toward dest.
  std::vector<std::uint8_t> route_;
  std::vector<common::RingBuffer<common::Word>> inject_;
  std::vector<common::RingBuffer<common::Word>> eject_;
  std::vector<std::int32_t> eject_wait_;  // per-tile eject slot, -1 = empty
  EngineState& engine_;
  std::uint64_t flits_routed_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t net_words_ = 0;
};

}  // namespace raw::sim
