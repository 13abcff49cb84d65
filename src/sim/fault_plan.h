// Seeded, cycle-scheduled fault model for one chip or a cluster fabric: a
// sorted list of events, each firing at a scheduled cycle against one
// target — a channel, tile or line-card port of a chip, or an inter-chip
// link or whole chip of a fabric.
//
//   * kBitFlip    — XOR one bit of the word nearest the reader of a channel
//                   or link (a single-event upset on a wire or FIFO cell);
//   * kLinkStall  — take a channel or link down for N cycles (transient
//                   open: no reads, no writes, occupancy frozen); a
//                   permanent link stall is a trunk cut;
//   * kTileFreeze — stop stepping a tile's processor and switch for a
//                   window, or permanently (a hung or fenced tile); a chip
//                   freeze is always permanent (chip death);
//   * kOverrun    — multiply a line card's arrival rate by `factor` for a
//                   window (an upstream burst overrunning the card).
//
// Binding a plan to a chip or a fabric checks every target against that
// geometry: a missing target, or one of the other tier, throws
// std::invalid_argument naming the event, since a plan that silently
// targets nothing would report a vacuous chaos pass. A chip steps its plan
// after channels begin the cycle and before devices run, so a 1-cycle
// stall covers exactly its cycle, and a planless chip pays one null test
// per cycle. A fabric fires due events only at epoch barriers (see
// cluster/fabric.h), so a schedule acts the same at any worker count.
// Everything fired is counted (`faults/...`, `cluster/faults/...`) and a
// chip plan can trace it on kFaultTrack, so observed damage can be
// reconciled against injected damage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_event.h"
#include "common/types.h"

namespace raw::common::json {
struct Parser;
}

namespace raw::sim {

class Chip;
class Channel;

enum class FaultKind : std::uint8_t { kBitFlip, kLinkStall, kTileFreeze, kOverrun };

const char* fault_kind_name(FaultKind k);

/// Tracer track that fault events are recorded on (line cards use 100+port
/// and 200+port; tiles use their index).
inline constexpr int kFaultTrack = 300;

/// One scheduled fault. Exactly one target is set: `channel` (non-empty),
/// or one of `tile`, `port`, `link`, `chip` (non-negative).
struct FaultEvent {
  FaultKind kind = FaultKind::kBitFlip;
  common::Cycle at = 0;        // cycle the fault fires (a fabric rounds it
                               // up to the next epoch barrier)
  bool permanent = false;      // link stall (a cut) or freeze: never ends
  std::string channel{};       // chip: flip/stall target channel name
  int tile = -1;               // chip: freeze target tile
  int port = -1;               // chip: overrun target line-card port
  int link = -1;               // fabric: flip/stall target link index
  int chip = -1;               // fabric: freeze target chip (permanent)
  std::uint64_t duration = 1;  // stall/freeze/overrun window, in cycles
  std::uint32_t bit = 0;       // kBitFlip: bit position (mod 32)
  std::uint32_t factor = 4;    // kOverrun: arrival-rate multiplier

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Appends `e` as one JSON object: the event writer of both bundle formats.
void append_fault_event(std::string& s, const FaultEvent& e);

/// Reads one event object. Besides the names fault_kind_name gives, the
/// kind may carry an older cluster bundle's spelling (trunk_corrupt,
/// trunk_stall, trunk_cut, chip_freeze), which maps to a link or chip event.
bool parse_fault_event(common::json::Parser& p, FaultEvent* e);

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  void add(FaultEvent e) { events_.push_back(std::move(e)); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

  /// True when any scheduled event never ends (a permanent freeze, a cut):
  /// a watchdog trip or a degraded finish is then an expected outcome
  /// rather than a bug.
  [[nodiscard]] bool has_permanent_fault() const;

  /// Binds the plan to `chip`, whose devices serve line-card ports
  /// 0..num_ports-1: checks every target, resolves channel names and sorts
  /// the schedule. Called by Chip::set_fault_plan before the first step().
  void bind(Chip& chip, int num_ports);

  /// Binds the plan to a fabric of `num_links` unidirectional links and
  /// `num_chips` chips: checks every target and sorts the schedule.
  void bind(std::size_t num_links, int num_chips);

  /// Fires every event scheduled at the chip's current cycle. Called by
  /// Chip::step() after channels begin the cycle and before devices run.
  void step(Chip& chip);

  /// Fires every unfired event scheduled at or before `now`, in schedule
  /// order: `apply(e)` performs the event and returns whether it hit live
  /// state (only a bit flip on an empty channel or link can miss), and the
  /// plan counts the outcome. A fabric calls this at each epoch barrier.
  template <typename Apply>
  void fire_due(common::Cycle now, Apply&& apply) {
    while (next_ < events_.size() && events_[next_].at <= now) {
      const FaultEvent& e = events_[next_++];
      ++fired_;
      count(e, apply(e));
    }
  }

  /// True while `tile` is inside an injected freeze window. O(1): the plan
  /// keeps a count of open windows per tile.
  [[nodiscard]] bool tile_frozen(int tile) const {
    const auto t = static_cast<std::size_t>(tile);
    return t < frozen_.size() && frozen_[t] != 0;
  }
  /// True while any tile is inside a freeze window.
  [[nodiscard]] bool any_tile_frozen() const { return !freezes_.empty(); }

  /// Tiles inside a *permanent* freeze window right now, sorted and
  /// deduplicated — the recovery controller's dead-tile set.
  [[nodiscard]] std::vector<int> permanently_frozen_tiles() const;

  /// Arrival-rate multiplier for line card `port` at cycle `now` (1 when no
  /// overrun window is active).
  [[nodiscard]] std::uint32_t overrun_factor(int port, common::Cycle now) const;

  /// Optional fault-event tracing on a chip (one instant event per fired
  /// fault).
  void set_tracer(common::PacketTracer* tracer);

  /// Counters of what actually happened, for reconciliation.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t bit_flips_applied() const { return bit_flips_applied_; }
  [[nodiscard]] std::uint64_t bit_flips_missed() const { return bit_flips_missed_; }
  [[nodiscard]] std::uint64_t link_stalls() const { return link_stalls_; }
  [[nodiscard]] std::uint64_t link_cuts() const { return link_cuts_; }
  [[nodiscard]] std::uint64_t tile_freezes() const { return tile_freezes_; }
  [[nodiscard]] std::uint64_t chip_freezes() const { return chip_freezes_; }
  [[nodiscard]] std::uint64_t frozen_tile_cycles() const { return frozen_tile_cycles_; }
  [[nodiscard]] std::uint64_t overrun_bursts() const { return overrun_bursts_; }

  /// Publishes `<prefix>/{injected,bit_flips,bit_flips_missed,link_stalls,
  /// link_cuts,tile_freezes,chip_freezes,frozen_tile_cycles,overrun_bursts}`
  /// (`injected` counts fired events).
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

  /// Checks every target against the bound geometry (`chip` null for a
  /// fabric), then sorts the schedule and rewinds the cursors.
  void check_and_sort(const Chip* chip, int num_ports, std::size_t num_links,
                      int num_chips);
  bool fire(Chip& chip, const FaultEvent& e);
  void count(const FaultEvent& e, bool hit);

  std::vector<FaultEvent> events_;
  std::vector<Channel*> targets_;  // parallel to events_ (null for non-channel)
  std::size_t next_ = 0;           // first unfired event after bind()
  bool bound_ = false;
  std::vector<FreezeWindow> freezes_;
  // frozen_[tile]: open freeze windows on `tile` (sized by bind(Chip&)).
  std::vector<std::uint32_t> frozen_;
  std::vector<OverrunWindow> overruns_;
  common::PacketTracer* tracer_ = nullptr;

  std::uint64_t fired_ = 0;
  std::uint64_t bit_flips_applied_ = 0;
  std::uint64_t bit_flips_missed_ = 0;
  std::uint64_t link_stalls_ = 0;
  std::uint64_t link_cuts_ = 0;
  std::uint64_t tile_freezes_ = 0;
  std::uint64_t chip_freezes_ = 0;
  std::uint64_t frozen_tile_cycles_ = 0;
  std::uint64_t overrun_bursts_ = 0;
};

}  // namespace raw::sim
