// Progress watchdog for the Raw Router.
//
// The Rotating Crossbar is deadlock-free by construction (§4.3): the quantum
// ring circulates even when idle, so on a healthy chip *some* word crosses
// *some* channel essentially every cycle. The watchdog exploits this: if no
// word moves on any channel for kWatchdogNoProgressBound cycles while work
// is still queued, the fabric has genuinely wedged (a frozen tile, a
// severed link) and the run is stopped with a structured StallReport
// instead of spinning silently forever. A second, softer check flags
// per-port starvation — a port with queued input whose crossbar grant
// counter has not advanced within kWatchdogStarvationBound — which is
// reported but does not stop the run (an unfair token policy starves ports
// without wedging the fabric, and ablation experiments do exactly that on
// purpose). The three bounds are constants of the one chip design.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/coords.h"

namespace raw::sim {
class Chip;
}

namespace raw::router {

class Layout;

/// Trip when no word crosses any channel for this many cycles while work is
/// queued. Must exceed the longest legitimate quiet spell; the idle ring's
/// period is tens of cycles, so 20k is ~3 orders of margin.
inline constexpr common::Cycle kWatchdogNoProgressBound = 20000;
/// Flag a port whose grant counter stalls for this long with input queued.
inline constexpr common::Cycle kWatchdogStarvationBound = 120000;
/// Cycles between watchdog checks, which fall at absolute multiples of it;
/// bounds detection latency and keeps the per-cycle hot path untouched.
inline constexpr common::Cycle kWatchdogCheckInterval = 2048;

/// Snapshot of why (and where) the fabric stopped, built when the watchdog
/// trips. `tiles` lists every non-idle tile with its block cause so the
/// wedge's epicentre — e.g. "tile 6 frozen, neighbours blocked-send toward
/// it" — is readable directly from the report.
struct StallReport {
  enum class Cause : std::uint8_t {
    kNoForwardProgress = 0,  // no channel moved a word for the bound
    kPortStarvation = 1,     // a port's grants stopped advancing
  };
  enum class BlockCause : std::uint8_t {
    kFrozen = 0,       // tile inside an injected freeze window
    kBlockedRecv = 1,  // switch waiting on an empty channel
    kBlockedSend = 2,  // switch waiting on a full channel
    kBlockedMem = 3,   // processor waiting on memory
    kBusy = 4,         // still executing (not part of the wedge)
    kIdle = 5,         // halted / unprogrammed
  };
  struct TileState {
    int tile = -1;
    sim::TileCoord coord{};
    BlockCause cause = BlockCause::kIdle;
    std::string role;     // "In0", "Xbar2", ... from the router layout
    std::string channel;  // channel the switch is blocked on, if any
    std::size_t switch_pc = 0;
  };

  Cause cause = Cause::kNoForwardProgress;
  common::Cycle detected_cycle = 0;
  common::Cycle last_progress_cycle = 0;
  std::uint64_t queued_packets = 0;  // ledger in-flight at detection
  std::vector<TileState> tiles;      // every tile not idle-and-unblocked
  std::vector<int> starved_ports;

  [[nodiscard]] std::string to_string() const;
};

const char* stall_cause_name(StallReport::Cause c);
const char* block_cause_name(StallReport::BlockCause c);

/// Builds a report from the chip's current state (switch block causes, fault
/// plan freeze windows, layout roles).
StallReport build_stall_report(const sim::Chip& chip, const Layout& layout,
                               StallReport::Cause cause,
                               std::uint64_t queued_packets);

}  // namespace raw::router
