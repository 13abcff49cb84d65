// Shared state of the sparse cycle engine (see DESIGN.md "Sparse cycle
// engine").
//
// A Chip owns one EngineState; every channel on the chip holds a pointer to
// it. The struct carries the authoritative cycle counter (channels stamp
// themselves against it to refresh per-cycle state lazily) and, for the
// cycle in flight,
//   * `dirty`  — channels that staged a write and must commit at cycle end;
//   * `wakes`  — parked agents to return to the runnable set at cycle end.
// A parked agent waits in exactly one wake slot: an int32 holding its agent
// id (-1 when empty) owned by the object whose event it waits for — a
// channel's reader, writer or word-count slot, or a dynamic-network eject
// slot. The owner fires the slot through wake() when the event happens.
// Each channel has exactly one writer agent per cycle, so a channel lands on
// the dirty list at most once per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace raw::sim {

class Channel;

struct EngineState {
  /// The chip's cycle counter (Chip::cycle() returns this field).
  common::Cycle now = 0;
  /// Channels with per-cycle stats sampling enabled; the engine runs the
  /// explicit stats pass only while this is nonzero.
  int stats_channels = 0;
  std::vector<Channel*> dirty;
  std::vector<std::int32_t> wakes;

  /// Fires a wake slot: queues its agent (if any) for the end-of-cycle wake
  /// and empties the slot.
  void wake(std::int32_t& slot) {
    if (slot < 0) return;
    wakes.push_back(slot);
    slot = -1;
  }
};

}  // namespace raw::sim
