// Seeded, cycle-scheduled fault model pluggable into a Chip.
//
// A FaultPlan is a sorted list of fault events, each firing at a scheduled
// cycle against a named target (a channel, a tile, or a line-card port):
//
//   * kBitFlip   — XOR one bit of the word nearest the reader of a channel
//                  (models a single-event upset on a wire or FIFO cell);
//   * kLinkStall — take a channel down for N cycles (transient open: no
//                  reads, no writes, occupancy frozen);
//   * kTileFreeze — stop stepping a tile's processor and switch for a
//                  window, or permanently (models a hung or fenced tile);
//   * kOverrun   — multiply a line card's arrival rate by `factor` for a
//                  window (models an upstream burst overrunning the card).
//
// The plan is bound to a chip once (resolving channel names to pointers) and
// then stepped by Chip::step() after channels begin the cycle and before
// devices run, so a 1-cycle stall is in force for exactly the cycle it is
// scheduled on. A chip with no plan attached pays one null-pointer test per
// cycle and behaves bit-identically to a faultless build.
//
// Everything the plan does is counted (exported under `faults/...`) and
// optionally emitted to a PacketTracer on track kFaultTrack, so a chaos run
// can always reconcile observed damage against injected damage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_event.h"
#include "common/types.h"

namespace raw::sim {

class Chip;
class Channel;

enum class FaultKind : std::uint8_t {
  kBitFlip = 0,
  kLinkStall = 1,
  kTileFreeze = 2,
  kOverrun = 3,
};

const char* fault_kind_name(FaultKind k);

/// Tracer track that fault events are recorded on (line cards use 100+port
/// and 200+port; tiles use their index).
inline constexpr int kFaultTrack = 300;

struct FaultEvent {
  FaultKind kind = FaultKind::kBitFlip;
  common::Cycle at = 0;        // cycle the fault fires
  std::uint64_t duration = 1;  // stall/freeze/overrun window, in cycles
  bool permanent = false;      // kTileFreeze only: never thaws
  std::string channel;         // kBitFlip / kLinkStall: target channel name
  int tile = -1;               // kTileFreeze: target tile index
  int port = -1;               // kOverrun: target line-card port
  std::uint32_t bit = 0;       // kBitFlip: bit position (mod 32)
  std::uint32_t factor = 4;    // kOverrun: arrival-rate multiplier
};

class FaultPlan {
 public:
  void add(FaultEvent e) { events_.push_back(std::move(e)); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

  /// True when any scheduled event freezes a tile forever — a watchdog trip
  /// is then an expected outcome rather than a bug.
  [[nodiscard]] bool has_permanent_fault() const;

  /// Resolves channel names against `chip` and sorts the schedule. Must be
  /// called (by Chip::set_fault_plan) before the first step(). Unknown
  /// channel names are a hard error: a chaos plan that silently targets
  /// nothing would report a vacuous pass.
  void bind(Chip& chip);

  /// Fires every event scheduled at the chip's current cycle. Called by
  /// Chip::step() after channels begin the cycle and before devices run.
  void step(Chip& chip);

  /// True while `tile` is inside an injected freeze window.
  [[nodiscard]] bool tile_frozen(int tile) const;

  /// True when cycle `now` must step the chip densely for fault fidelity: a
  /// freeze window is active, or a scheduled freeze fires at (or before)
  /// `now`. Bit flips and link stalls are exact under the sparse engine (the
  /// mutated channel wakes any parked agent), but a frozen tile must be
  /// *prevented* from stepping, which only the dense path checks. The
  /// upcoming-freeze lookahead matters because the engine picks its stepping
  /// mode at the top of a cycle, before this plan fires.
  [[nodiscard]] bool requires_dense(common::Cycle now) const {
    if (!freezes_.empty()) return true;
    return next_freeze_ < freeze_at_.size() && freeze_at_[next_freeze_] <= now;
  }

  /// Tiles inside a *permanent* freeze window right now, sorted and
  /// deduplicated — the recovery controller's dead-tile set.
  [[nodiscard]] std::vector<int> permanently_frozen_tiles() const;

  /// Arrival-rate multiplier for line card `port` at cycle `now` (1 when no
  /// overrun window is active).
  [[nodiscard]] std::uint32_t overrun_factor(int port, common::Cycle now) const;

  /// Optional fault-event tracing (one instant event per fired fault).
  void set_tracer(common::PacketTracer* tracer);

  /// Counters of what actually happened, for reconciliation.
  [[nodiscard]] std::uint64_t bit_flips_applied() const { return bit_flips_applied_; }
  [[nodiscard]] std::uint64_t bit_flips_missed() const { return bit_flips_missed_; }
  [[nodiscard]] std::uint64_t link_stalls() const { return link_stalls_; }
  [[nodiscard]] std::uint64_t tile_freezes() const { return tile_freezes_; }
  [[nodiscard]] std::uint64_t frozen_tile_cycles() const { return frozen_tile_cycles_; }
  [[nodiscard]] std::uint64_t overrun_bursts() const { return overrun_bursts_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

  /// Publishes `<prefix>/{injected,bit_flips,bit_flips_missed,link_stalls,
  /// tile_freezes,frozen_tile_cycles,overrun_bursts}`.
  void export_metrics(common::MetricRegistry& registry,
                      const std::string& prefix = "faults") const;

 private:
  struct FreezeWindow {
    int tile = -1;
    common::Cycle until = 0;  // exclusive; ignored when permanent
    bool permanent = false;
  };
  struct OverrunWindow {
    int port = -1;
    common::Cycle until = 0;  // exclusive
    std::uint32_t factor = 1;
  };

  void fire(Chip& chip, const FaultEvent& e);

  std::vector<FaultEvent> events_;
  std::vector<Channel*> targets_;  // parallel to events_ (null for non-channel)
  std::size_t next_ = 0;           // first unfired event after bind()
  // Sorted fire cycles of every kTileFreeze event, with a cursor advanced by
  // step(): requires_dense() answers in O(1) without scanning the schedule.
  std::vector<common::Cycle> freeze_at_;
  std::size_t next_freeze_ = 0;
  bool bound_ = false;
  common::Cycle now_ = 0;          // cycle of the most recent step()
  std::vector<FreezeWindow> freezes_;
  std::vector<OverrunWindow> overruns_;
  common::PacketTracer* tracer_ = nullptr;

  std::uint64_t bit_flips_applied_ = 0;
  std::uint64_t bit_flips_missed_ = 0;
  std::uint64_t link_stalls_ = 0;
  std::uint64_t tile_freezes_ = 0;
  std::uint64_t frozen_tile_cycles_ = 0;
  std::uint64_t overrun_bursts_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace raw::sim
