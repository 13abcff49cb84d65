// The complete single-chip Raw Router (chapter 4): a 4x4 Raw chip with four
// ports, each mapped to an Ingress, Lookup, Crossbar and Egress tile, line
// cards on the chip edges, compile-time-scheduled switch programs, and the
// Rotating Crossbar on static network 1.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "net/route_table.h"
#include "net/traffic.h"
#include "router/line_cards.h"
#include "router/recovery.h"
#include "router/schedule_compiler.h"
#include "router/tile_programs.h"
#include "router/watchdog.h"
#include "sim/chip.h"
#include "sim/fault_plan.h"
#include "sim/invariants.h"

namespace raw::router {

/// Reliable-link layer (RouterConfig::link): per-word CRC tag + bounded
/// NACK/retransmit on every static-network wire (see sim::Channel and
/// DESIGN.md "Recovery model"), tuned by kLinkProtection. Off by default and
/// zero-cost when disabled; when enabled, an injected bit flip becomes a
/// retransmit stall (counted under faults/recovered/*) instead of a
/// corrupted delivery.
struct LinkProtectionConfig {
  bool enabled = false;
};

/// The reliable links' tuning: 3 retransmit attempts per word before
/// delivering it corrupt anyway (so a hard-stuck wire degrades instead of
/// wedging the fabric), a modelled NACK round-trip of 4 cycles the receiver
/// stalls per retransmit, and a sender-side replay ring of 8 words.
inline constexpr sim::LinkProtectionParams kLinkProtection{
    .max_retries = 3, .retransmit_rtt = 4, .replay_depth = 8};
static_assert(kLinkProtection.max_retries >= 1,
              "a zero retransmit budget can never repair a word");
static_assert(kLinkProtection.replay_depth >= kLinkProtection.retransmit_rtt,
              "words in flight during a NACK need replay frames");
static_assert(kLinkProtection.replay_depth >= kLinkFifoDepth,
              "every buffered word needs its replay frame");

/// Endurance-run instrumentation (soak tier): periodic invariant sweeps and
/// a ring of checkpoint digests that a failure replay must reproduce. Off by
/// default and
/// inert until RawRouter::arm_endurance() attaches a monitor: until then the
/// invariant and checkpoint streams of the run loop are never due.
struct EnduranceConfig {
  bool enabled = false;
  /// Cycles between invariant sweeps. Must be >= kWatchdogCheckInterval
  /// (the watchdog is the cheaper, tighter liveness net; sweeping more
  /// often than it just re-reads unchanged counters).
  common::Cycle invariant_cadence = 16384;
  /// Cycles between checkpoint captures into the ring: run() captures at
  /// every multiple of this interval.
  common::Cycle checkpoint_interval = 1u << 19;
  /// Checkpoints kept (last K); a failure bundle records all of them.
  std::size_t checkpoint_ring = 4;
};

struct RouterConfig {
  RuntimeConfig runtime;
  /// External line-card buffering per input port, in words (§4.4: buffering
  /// and dropping happen outside the chip).
  std::size_t line_card_queue_words = 1 << 15;
  /// Sample per-channel FIFO occupancy/backpressure every cycle (small
  /// constant cost per channel; off for throughput benches).
  bool channel_stats = false;
  /// Kept only for the benchmark harness, which sets it; must be 0 or 1.
  int threads = 0;
  /// Kept only for the benchmark harness, which sets it; must be 0 or 1.
  common::Cycle max_lookahead = 0;
  /// Reliable-link layer on the static-network wires (off by default).
  LinkProtectionConfig link;
  /// Fault-adaptive reconfiguration around permanently-frozen tiles (off by
  /// default; see router/recovery.h).
  RecoveryConfig recovery;
  /// Endurance-run instrumentation (off by default; see above).
  EnduranceConfig endurance;

  /// Rejects configurations that would misbehave deep inside the fabric
  /// (a fragment cap of 1-8 words, a zero-capacity line-card queue,
  /// threads or max_lookahead other than 0 or 1, broken endurance knobs).
  /// Throws std::invalid_argument with a message naming the field.
  void validate() const;
};

/// Outcome of a bounded run() under the watchdog.
enum class RunStatus : std::uint8_t {
  kOk = 0,        // ran the requested cycles
  kStalled = 1,   // watchdog tripped: see stall_report()
  kDegraded = 2,  // ran the requested cycles, but a recovery reconfigured
                  // the fabric around dead tiles: see recovery_report()
  kInvariantViolation = 3,  // an armed InvariantMonitor found a broken
                            // invariant: see invariant_violation()
};

/// Outcome of drain(), recoverable via drain_outcome() after the call.
enum class DrainOutcome : std::uint8_t {
  kDrained = 0,          // every offered packet is accounted for at the cards
  kLossQuiesced = 1,     // fabric went quiet with packets missing (written off
                         // as lost — expected under corrupting fault plans)
  kStalled = 2,          // watchdog tripped mid-drain: see stall_report()
  kTimeout = 3,          // max_cycles elapsed with work still moving
  kDrainedDegraded = 4,  // fully drained, but on a recovered (degraded) fabric
  kInvariantViolation = 5,  // an armed InvariantMonitor found a broken
                            // invariant mid-drain: see invariant_violation()
};

const char* drain_outcome_name(DrainOutcome o);

class RawRouter {
 public:
  /// Throws std::invalid_argument when `config` fails validate() or
  /// `traffic` can draw a packet above kMaxPacketBytes.
  RawRouter(RouterConfig config, net::RouteTable table,
            net::TrafficConfig traffic, std::uint64_t seed);

  /// Runs the router for `cycles` chip cycles, stepping the chip between the
  /// due cycles of three event streams: watchdog checks, checkpoint captures
  /// and invariant sweeps (the last two only once arm_endurance() is
  /// called). Every due cycle is absolute, so run(x); run(y) walks exactly
  /// the trajectory of run(x + y), and a run never passes its deadline. The
  /// run stops early (returning kStalled) if the fabric wedges; the partial
  /// cycle count is visible via chip().cycle().
  RunStatus run(common::Cycle cycles);

  /// Stops the arrival processes, then runs until the fabric drains (or
  /// `max_cycles` pass). Returns true only when every offered packet is
  /// accounted for; on false, drain_outcome() says how it ended (stalled,
  /// quiesced with losses, or timed out). Packet conservation is asserted on
  /// every exit path.
  [[nodiscard]] bool drain(common::Cycle max_cycles);

  [[nodiscard]] DrainOutcome drain_outcome() const { return drain_outcome_; }

  /// The most recent watchdog report (no-progress trip or starvation flag);
  /// empty while the router is healthy.
  [[nodiscard]] const std::optional<StallReport>& stall_report() const {
    return stall_report_;
  }
  /// Hard watchdog trips (no-forward-progress) so far. A trip that recovery
  /// absorbs (the fabric was reconfigured and kept running) is not counted.
  [[nodiscard]] std::uint64_t watchdog_trips() const { return watchdog_trips_; }

  /// Arms the endurance layer: registers the router's standard invariants
  /// (packet conservation, link seq/CRC accounting, watchdog liveness, the
  /// chip's park/wake credit books and cycle accounting) on `monitor`,
  /// creates the checkpoint ring, and schedules the invariant and checkpoint
  /// streams of run() (and the sweeps of drain()). Requires
  /// config.endurance.enabled (call RouterConfig::validate() first).
  /// `monitor` is not owned and must outlive the router; arm at most once,
  /// before the first run().
  void arm_endurance(sim::InvariantMonitor* monitor);
  /// Checkpoint ring (nullptr until arm_endurance()).
  [[nodiscard]] const sim::CheckpointRing* checkpoint_ring() const {
    return ring_.get();
  }
  /// The violation that ended a run/drain with kInvariantViolation, if any.
  [[nodiscard]] const std::optional<sim::InvariantViolation>&
  invariant_violation() const {
    return invariant_violation_;
  }
  /// True once a recovery reconfigured the fabric around dead tiles.
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Successful reconfigurations so far.
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Crossbar schedule generation: 0 for the compile-time schedule, +1 per
  /// reconfiguration.
  [[nodiscard]] int schedule_generation() const { return schedule_generation_; }
  /// Tiles currently routed around (empty while healthy).
  [[nodiscard]] const std::vector<int>& dead_tiles() const { return dead_tiles_; }
  /// Report of the most recent reconfiguration, if any.
  [[nodiscard]] const std::optional<RecoveryReport>& recovery_report() const {
    return recovery_report_;
  }

  /// FNV-1a digest of the router's observable end state: the chip's
  /// architectural digest folded with the ledger, per-port counters, and the
  /// run/drain outcome. Equal digests across engines (dense/sparse) and
  /// across record/replay is the determinism check.
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Attaches a fault-injection plan to the chip (see sim::FaultPlan) and
  /// points it at the router's tracer if one is set. Call before run().
  /// Throws std::invalid_argument when an event targets a channel, tile or
  /// port the router does not have.
  void set_fault_plan(sim::FaultPlan* plan);

  /// Simulation-side packet accounting shared by the line cards.
  [[nodiscard]] const PacketLedger& ledger() const { return ledger_; }
  /// Aggregates across the four input ports.
  [[nodiscard]] std::uint64_t offered_packets() const;
  [[nodiscard]] std::uint64_t dropped_at_card() const;
  /// Packets written off by a quiesced drain (lost inside the fabric).
  [[nodiscard]] std::uint64_t lost_packets() const { return ledger_.erased_lost; }

  [[nodiscard]] sim::Chip& chip() { return *chip_; }
  [[nodiscard]] const RouterCore& core() const { return core_; }
  [[nodiscard]] const Layout& layout() const { return layout_; }
  [[nodiscard]] const ScheduleCompiler& compiler() const { return compiler_; }

  [[nodiscard]] const InputLineCard& input(int port) const {
    return *inputs_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const OutputLineCard& output(int port) const {
    return *outputs_[static_cast<std::size_t>(port)];
  }

  /// Aggregates across the four output ports.
  [[nodiscard]] std::uint64_t delivered_packets() const;
  [[nodiscard]] common::ByteCount delivered_bytes() const;
  [[nodiscard]] std::uint64_t errors() const;

  /// Aggregate throughput over the cycles run so far.
  [[nodiscard]] double gbps() const;
  [[nodiscard]] double mpps() const;

  /// Attaches (or detaches, with nullptr) a packet-lifecycle tracer to the
  /// line cards and tile programs, and labels its tracks (one per tile and
  /// per line card). Call `tracer->enable(budget)` to start recording.
  void set_tracer(common::PacketTracer* tracer);

  /// Attaches (or detaches, with nullptr) an engine profiler (see
  /// common/profiler.h) to the chip. When the profiler's flight recorder
  /// is armed, a watchdog StallReport and every non-drained drain exit
  /// force a marked snapshot, so a wedged or lossy run carries its own
  /// recent performance history. Not owned.
  void set_profiler(common::Profiler* profiler) {
    chip_->set_profiler(profiler);
  }
  [[nodiscard]] common::Profiler* profiler() const {
    return chip_->profiler();
  }

  /// Publishes the router's observability into `registry` under `prefix`:
  ///   <prefix>/port<P>/ingress/{offered,dropped,delivered}_packets, ...
  ///   <prefix>/port<P>/crossbar/{quanta,grants,denials,empty_headers}
  ///   <prefix>/port<P>/latency/{p50,p95,p99,max,mean} (cycles)
  ///   <prefix>/port<P>/{gbps,mpps,drop_fraction}
  /// plus the chip-level metrics (see sim::Chip::export_metrics) under
  /// <prefix>/chip. Safe to call repeatedly: totals are overwritten.
  void export_metrics(common::MetricRegistry& registry,
                      const std::string& prefix = "router") const;

 private:
  /// True when any port still has work: queued input or in-flight packets.
  [[nodiscard]] bool work_pending() const;
  /// Runs the watchdog checks; returns true on a hard (no-progress) trip.
  bool check_watchdog();
  /// Registers the router-level checks on the armed monitor.
  void register_standard_invariants(sim::InvariantMonitor& monitor);
  /// One monitor sweep at the current cycle; records and returns true on a
  /// violation (also forcing a flight-recorder mark).
  bool sweep_invariants();
  /// Attempts a fault-adaptive reconfiguration after a confirmed no-progress
  /// stall. Returns true when the fabric was rebuilt (the trip is absorbed);
  /// false when recovery is disabled, no tile is permanently frozen, or the
  /// same dead set already failed to make progress.
  bool try_recover();
  /// Asserts the packet-conservation identity (see PacketLedger).
  void check_conservation() const;
  /// Forces a stall-marked flight-recorder snapshot (no-op unless a profiler
  /// with an armed flight recorder is attached).
  void flight_mark();

  RouterConfig config_;
  net::RouteTable table_;
  net::SmallTable forwarding_;
  Layout layout_;
  ScheduleCompiler compiler_;
  std::unique_ptr<sim::Chip> chip_;
  RouterCore core_;
  net::TrafficGen traffic_;
  PacketLedger ledger_;
  std::uint64_t next_uid_ = 1;  // shared by the four input cards
  std::array<std::unique_ptr<InputLineCard>, kNumPorts> inputs_;
  std::array<std::unique_ptr<OutputLineCard>, kNumPorts> outputs_;
  std::optional<StallReport> stall_report_;
  std::uint64_t watchdog_trips_ = 0;
  DrainOutcome drain_outcome_ = DrainOutcome::kDrained;
  // Fault-adaptive reconfiguration state (see router/recovery.h).
  bool degraded_ = false;
  std::uint64_t recoveries_ = 0;
  int schedule_generation_ = 0;
  std::vector<int> dead_tiles_;
  std::optional<RecoveryReport> recovery_report_;
  // Grace marker: a fresh recovery resets progress expectations, so the
  // no-progress check must not re-trip on pre-recovery staleness.
  common::Cycle last_recovery_cycle_ = 0;
  // Per-port starvation tracking: last observed grant count and the cycle it
  // last changed.
  std::array<std::uint64_t, kNumPorts> starve_grants_{};
  std::array<common::Cycle, kNumPorts> starve_since_{};
  // Endurance layer (all inert until arm_endurance()).
  sim::InvariantMonitor* monitor_ = nullptr;  // not owned
  std::unique_ptr<sim::CheckpointRing> ring_;
  std::optional<sim::InvariantViolation> invariant_violation_;
  // Absolute next-due cycles of run()'s three event streams. The invariant
  // and checkpoint streams are never due until arm_endurance().
  static constexpr common::Cycle kNever = ~common::Cycle{0};
  common::Cycle next_watchdog_ = 0;
  common::Cycle next_invariant_ = kNever;
  common::Cycle next_checkpoint_ = kNever;
};

}  // namespace raw::router
