// The Raw chip: an R x C grid of tiles, two static networks, one dynamic
// network, chip-edge I/O ports, and the deterministic cycle engine.
//
// The cycle engine is *sparse* (see DESIGN.md "Sparse cycle engine"): its
// per-cycle cost tracks activity, not capacity. Channels are epoch-stamped
// and refresh lazily on first touch, staged writes self-register on a dirty
// list so commit walks only channels that moved, agents blocked on a channel
// park on that channel's wake slot and are skipped until a commit or read
// wakes them, tile programs polling for an event (a dynamic-network eject,
// a channel transfer count) park on that event's wake slot, and idle agents
// (halted switch, finished program) leave the runnable set entirely. Results are bit-identical to the dense engine —
// including every per-cycle counter, which parked agents receive as a
// catch-up credit when they wake or when accounting is settled.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "sim/channel.h"
#include "sim/device.h"
#include "sim/dynamic_network.h"
#include "sim/fault_plan.h"
#include "sim/tile.h"
#include "sim/trace.h"

namespace raw::common {
class Profiler;
}

namespace raw::sim {

struct ChipConfig {
  GridShape shape{4, 4};
  /// FIFO depth of every static-network link.
  std::size_t link_fifo_depth = Channel::kDefaultCapacity;
};

/// One chip-edge static-network port: the pair of channels a line card (or
/// other device) uses to exchange words with the switch of an edge tile.
struct IoPort {
  Channel* to_chip = nullptr;    // device writes, edge switch reads
  Channel* from_chip = nullptr;  // edge switch writes, device reads
};

class Chip {
 public:
  explicit Chip(ChipConfig config = {});

  [[nodiscard]] const ChipConfig& config() const { return config_; }
  [[nodiscard]] GridShape shape() const { return config_.shape; }
  [[nodiscard]] int num_tiles() const { return config_.shape.num_tiles(); }

  [[nodiscard]] Tile& tile(int index) { return *tiles_[static_cast<std::size_t>(index)]; }
  [[nodiscard]] const Tile& tile(int index) const {
    return *tiles_[static_cast<std::size_t>(index)];
  }

  /// Edge I/O port of `tile` in off-grid direction `dir` on static network
  /// `net`. Asserts that the direction actually leaves the grid.
  [[nodiscard]] IoPort io_port(int net, int tile, Dir dir) const;

  [[nodiscard]] DynamicNetwork& dynamic_network() { return dyn_; }

  /// Devices are stepped (in registration order) at the start of every
  /// cycle; the chip does not own them.
  void add_device(Device* device);
  [[nodiscard]] const std::vector<Device*>& devices() const { return devices_; }

  [[nodiscard]] common::Cycle cycle() const { return engine_.now; }
  [[nodiscard]] Trace& trace() { return trace_; }

  /// Attaches (or detaches, with nullptr) a fault-injection plan. The plan
  /// is bound immediately (targets checked, channel names resolved; a bad
  /// target throws std::invalid_argument and leaves the chip planless) and
  /// then stepped every cycle before devices run. `num_ports` is how many
  /// line-card ports the chip's devices serve, the range an overrun may
  /// target; a bare chip serves none. The chip does not own the plan. Every
  /// fault is exact under sparse stepping: flips and stalls wake the
  /// mutated channel's parked agents, and a frozen tile is skipped (its
  /// parked agents are returned to the runnable set on the first frozen
  /// cycle). Behaviour is bit-identical to a planless chip once the plan is
  /// empty.
  void set_fault_plan(FaultPlan* plan, int num_ports = 0);
  [[nodiscard]] FaultPlan* fault_plan() const { return faults_; }

  /// Forces dense stepping (no parking, every agent stepped every cycle)
  /// regardless of activity. The differential test suite uses this as the
  /// reference engine; results must be bit-identical either way.
  void set_force_dense(bool on);
  [[nodiscard]] bool force_dense() const { return force_dense_; }

  /// Cycle at which a word last crossed any channel on the chip (0 until the
  /// first transfer). The progress watchdog compares this against cycle().
  /// Sparse stepping keeps this exact: progress is derived from the same
  /// per-channel commits, only restricted to channels that actually staged a
  /// word (all others cannot move one by construction).
  [[nodiscard]] common::Cycle last_progress_cycle() const {
    return last_progress_cycle_;
  }

  /// Every channel on the chip (static links, edge ports, tile FIFOs, and
  /// the dynamic network), for diagnostics and fault targeting.
  [[nodiscard]] const std::vector<Channel*>& all_channels() const {
    return all_channels_;
  }
  /// Channel with the given name, or nullptr. O(1): the name index is built
  /// once in the constructor.
  [[nodiscard]] Channel* find_channel(const std::string& name) const;

  /// Runs `cycles` cycles of the whole chip.
  void run(common::Cycle cycles);

  /// Runs until `pred()` is true or `max_cycles` elapse; returns true if the
  /// predicate fired. The predicate is evaluated between cycles; it may read
  /// any chip or device state, but per-agent busy/blocked/idle counters are
  /// only settled (parked agents credited) at entry and exit of this call —
  /// use sync_block_accounting() inside the predicate if it needs them.
  template <typename Pred>
  bool run_until(Pred&& pred, common::Cycle max_cycles) {
    wake_all_parked();
    for (common::Cycle i = 0; i < max_cycles; ++i) {
      if (pred()) {
        settle_parked();
        return true;
      }
      step_cycle();
    }
    settle_parked();
    return pred();
  }

  /// Attaches (or detaches, with nullptr) an engine profiler (see
  /// common/profiler.h). Hot paths gate on the pointer, so a chip with no
  /// profiler attached is bit- and byte-identical to an uninstrumented
  /// build. The profiler is not owned and must outlive the run.
  void set_profiler(common::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] common::Profiler* profiler() const { return profiler_; }

  /// Settles the catch-up accounting of parked agents: busy/blocked/idle
  /// cycle counters become exactly what a dense engine would report through
  /// the last completed cycle. Called automatically by run()/run_until()
  /// exits and export_metrics(); cheap (no-op when nothing is
  /// parked, O(parked) otherwise).
  void sync_block_accounting() const { const_cast<Chip*>(this)->settle_parked(); }

  /// Aggregate static-network words moved (both networks), for bandwidth
  /// accounting.
  [[nodiscard]] std::uint64_t static_words_transferred() const;

  /// Turns per-channel occupancy/backpressure sampling on (or off) for every
  /// channel on the chip, including tile<->switch FIFOs and the dynamic
  /// network. Off by default; the simulation is unaffected either way.
  void enable_channel_stats(bool on = true);

  /// Publishes chip-level observability into `registry` under `prefix`:
  ///   <prefix>/cycles
  ///   <prefix>/tile<T>/proc/{busy,blocked}_cycles
  ///   <prefix>/tile<T>/switch/{busy,blocked_recv,blocked_send,idle}_cycles
  ///   <prefix>/channel/<name>/{words,mean_occupancy,backpressure_cycles}
  /// Channel metrics appear only for channels with activity (or with stats
  /// enabled), so an idle mesh does not flood the registry. Safe to call
  /// repeatedly; values are overwritten with current totals.
  void export_metrics(common::MetricRegistry& registry,
                      const std::string& prefix = "chip") const;

  /// The static-network channel carrying words out of `tile` toward `dir`
  /// on network `net` (always exists; edge directions are the I/O ports'
  /// from-chip side). For per-link utilization accounting.
  [[nodiscard]] const Channel& static_link(int net, int tile, Dir dir) const {
    return *out_link(net, tile, dir);
  }

  /// Enables the reliable-link layer (per-word CRC tag + NACK/retransmit;
  /// see DESIGN.md "Recovery model") on every static-network wire — the
  /// inter-tile links and the chip-edge ports, i.e. every channel a
  /// FaultPlan bit-flip can target. Tile<->switch FIFOs and the dynamic
  /// network stay bare. Call before the first cycle; off by default and
  /// zero-cost when never enabled.
  void enable_link_protection(const LinkProtectionParams& params);
  /// Sums of the per-channel reliable-link counters.
  [[nodiscard]] std::uint64_t link_retransmits() const;
  [[nodiscard]] std::uint64_t link_delivered_corrupt() const;
  [[nodiscard]] std::uint64_t link_stall_cycles() const;

  /// FNV-1a digest of the architectural state (cycle, channels, switch
  /// PCs/registers, dynamic-network counters). Equal digests after equal
  /// runs is the engine-equivalence and replay-equality check. There is no
  /// restore: tile-processor coroutines cannot be captured, so a replay
  /// re-executes from the seed and compares digests (DESIGN.md "Recovery
  /// model").
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Recovery hook (fault-adaptive reconfiguration): returns every parked
  /// agent to the runnable set and clears its wake slot so tiles can be
  /// reprogrammed mid-run.
  void prepare_reconfigure() { wake_all_parked(); }

  /// Endurance self-check of the sparse engine's park/wake credit books
  /// (see sim::InvariantMonitor). Read-only up to settling the catch-up
  /// accounting, which is bit-neutral. Verifies that the parked count
  /// matches the cleared run flags, every parked agent's credit is settled
  /// through the last completed cycle with its id in the wake slot it
  /// registered in, and every wake slot — channel reader, writer and count
  /// slots, dynamic-network eject slots — points back at a parked agent
  /// whose park record names that slot and a matching cause (blocked-recv,
  /// blocked-send, busy). Returns "" when the books balance, else a
  /// one-line description of the first imbalance. Call only between cycles
  /// (no run in flight).
  [[nodiscard]] std::string check_engine_invariants() const;

 private:
  /// Agents are addressed as 2*tile (switch) and 2*tile+1 (processor).
  struct Park {
    common::Cycle counted_through = 0;  // last cycle counted in `cause`
    // kBusy: a processor parked in an event wait, credited busy cycles.
    AgentState cause = AgentState::kIdle;
    std::int32_t* slot = nullptr;  // wake slot registered in (null if idle)
  };

  [[nodiscard]] Channel* out_link(int net, int tile, Dir dir) const;
  [[nodiscard]] Channel* in_link(int net, int tile, Dir dir) const;

  /// True when this cycle must step densely: dense mode is forced, or the
  /// utilization trace window is open (it records every tile every cycle).
  /// Faults never force it (see set_fault_plan).
  [[nodiscard]] bool dense_cycle() const {
    return force_dense_ || trace_.active(engine_.now);
  }

  /// One serial cycle of the sparse engine (no entry revalidation, no exit
  /// settling — run()/run_until() wrap it with those).
  void step_cycle();
  /// Tile stepping: dense, or flag-gated sparse stepping with parking.
  void step_agents(bool dense);
  /// Applies the queued wakes (end of cycle, before the clock advances).
  void apply_wakes();

  /// Whether a blocked agent may park on `chan` and rely on a wake event.
  [[nodiscard]] static bool may_park_on(const Channel* chan, AgentState cause);
  /// The wake slot of `ch` an agent blocked in `cause` parks in.
  [[nodiscard]] static std::int32_t& channel_slot(Channel& ch, AgentState cause);

  /// Parks an agent; `slot` is the wake slot it registers in (null for an
  /// idle park, which only run-entry revalidation ends).
  void park_agent(std::int32_t aid, AgentState cause, std::int32_t* slot);
  void wake_agent(std::int32_t aid, common::Cycle counted_through);
  void credit_agent(std::int32_t aid, Park& park, common::Cycle upto);
  /// Credits all parked agents through the last completed cycle without
  /// waking them.
  void settle_parked();
  /// Settles and returns every parked agent to the runnable set (run-entry
  /// revalidation and dense-mode transitions).
  void wake_all_parked();
  /// Credits `tile`'s parked agents through `upto`, empties their wake
  /// slots and returns them to the runnable set.
  void unpark_tile(int tile, common::Cycle upto);

  ChipConfig config_;
  // Declared before everything that runs on its clock.
  EngineState engine_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  // static_links_[net][tile][dir]: channel carrying words out of `tile`
  // toward `dir` (off the edge for boundary tiles — that is the I/O port's
  // from_chip side).
  std::array<std::vector<std::array<std::unique_ptr<Channel>, 4>>, kNumStaticNets>
      static_links_;
  // edge_in_[net][tile][dir]: to-chip channel of the I/O port in off-grid
  // direction `dir` (null for interior directions).
  std::array<std::vector<std::array<std::unique_ptr<Channel>, 4>>, kNumStaticNets>
      edge_in_;
  DynamicNetwork dyn_;
  std::vector<Device*> devices_;
  std::vector<Channel*> all_channels_;
  std::unordered_map<std::string, Channel*> channel_index_;
  FaultPlan* faults_ = nullptr;
  common::Profiler* profiler_ = nullptr;
  Trace trace_;
  common::Cycle last_progress_cycle_ = 0;

  // run_flags_[tile]: bit 0 = switch runnable, bit 1 = processor runnable.
  std::vector<std::uint8_t> run_flags_;
  std::vector<Park> parks_;  // indexed by agent id, valid while parked
  int parked_count_ = 0;
  bool force_dense_ = false;
};

}  // namespace raw::sim
