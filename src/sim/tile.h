// One Raw tile: a tile processor (behavioural coroutine program), a static
// switch processor, and the register-mapped FIFOs between them.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/channel.h"
#include "sim/switch_isa.h"
#include "sim/switch_processor.h"
#include "sim/tile_task.h"

namespace raw::sim {

/// Tile processor instruction memory: 8,192 32-bit words (§3.2).
inline constexpr std::size_t kTileImemWords = 8192;
/// Tile data memory (cache) capacity: 8,192 32-bit words (§3.2).
inline constexpr std::size_t kTileDmemWords = 8192;

class Tile {
 public:
  Tile(EngineState& engine, int index, TileCoord coord)
      : index_(index),
        coord_(coord),
        csto_{Channel(engine, tile_name(index) + ".csto"),
              Channel(engine, tile_name(index) + ".csto2")},
        csti_{Channel(engine, tile_name(index) + ".csti"),
              Channel(engine, tile_name(index) + ".csti2")} {}

  Tile(const Tile&) = delete;
  Tile& operator=(const Tile&) = delete;

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] TileCoord coord() const { return coord_; }

  /// Processor -> switch FIFO ($csto / $csto2).
  [[nodiscard]] Channel& csto(int net) { return csto_[static_cast<std::size_t>(net)]; }
  /// Switch -> processor FIFO ($csti / $csti2).
  [[nodiscard]] Channel& csti(int net) { return csti_[static_cast<std::size_t>(net)]; }

  [[nodiscard]] SwitchProcessor& switch_proc() { return switch_; }
  [[nodiscard]] const SwitchProcessor& switch_proc() const { return switch_; }

  void set_program(TileTask task) { task_ = std::move(task); }

  AgentState step_proc() {
    const AgentState s = task_.valid() ? task_.step() : AgentState::kIdle;
    switch (s) {
      case AgentState::kBusy: ++proc_busy_; break;
      case AgentState::kIdle: break;
      default: ++proc_blocked_; break;
    }
    return s;
  }

  AgentState step_switch() { return switch_.step(); }

  /// Channel the tile program is blocked on, if it is blocked on one.
  [[nodiscard]] Channel* proc_blocked_channel() const {
    return task_.blocked_channel();
  }

  /// Wake slot of the event the tile program polls for, if it is in an
  /// until_eject/until_words wait (see TileTask::event_slot).
  [[nodiscard]] std::int32_t* proc_event_slot() const {
    return task_.event_slot();
  }

  /// Sparse-engine catch-up: credits `n` cycles the processor spent parked
  /// without being stepped (see Chip's wake lists) — blocked on a channel,
  /// or busy polling in an event wait.
  void credit_proc_blocked(std::uint64_t n) { proc_blocked_ += n; }
  void credit_proc_busy(std::uint64_t n) { proc_busy_ += n; }

  [[nodiscard]] std::uint64_t proc_cycles_busy() const { return proc_busy_; }
  [[nodiscard]] std::uint64_t proc_cycles_blocked() const { return proc_blocked_; }

 private:
  int index_;
  TileCoord coord_;
  std::array<Channel, kNumStaticNets> csto_;
  std::array<Channel, kNumStaticNets> csti_;
  SwitchProcessor switch_;
  TileTask task_;
  std::uint64_t proc_busy_ = 0;
  std::uint64_t proc_blocked_ = 0;
};

}  // namespace raw::sim
