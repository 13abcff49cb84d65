// Engine profiler and flight recorder (see DESIGN.md "Engine profiling &
// flight recorder").
//
// The simulator's observability layer (MetricRegistry, PacketTracer) sees
// *simulated* packets; this layer sees the *engine executing them*: where
// the stepping thread's wall-clock time goes, cycle by cycle. Every lost
// microsecond is attributed to one of a small closed set of phases —
// compute (agent stepping), channel commit, park/wake bookkeeping, serial
// sections, and the stats pass — with per-phase call counts and nanosecond
// totals, plus the sparse-efficiency counters (dirty channels committed,
// park/wake events, dense-fallback sweeps) that say whether the sparse
// engine is earning its keep.
//
// Everything is pull-attached and zero-cost when off: engines hold a
// `Profiler*` that defaults to null, and every instrumentation site is a
// single predicted null test (ProfScope's constructor does nothing when
// handed nullptr). With no profiler attached the simulation is bit- and
// byte-identical to an uninstrumented build.
//
// The flight recorder is a fixed-size ring of periodic profile snapshots
// (one every `interval` simulated cycles, taken at the cycle close), so a
// long soak run carries its own recent performance history. Snapshots are
// also forced externally — on a watchdog StallReport, or by a tool before a
// dump — and export as JSONL, one snapshot object per line.
//
// Thread model: a profiler is attached to one chip and written only by the
// thread stepping that chip. The values are wall-clock measurements,
// inherently nondeterministic, and never feed back into simulation state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace raw::common {

class MetricRegistry;
class PacketTracer;

/// The phase taxonomy. Phases are exclusive (a nested scope pauses its
/// parent), so phase times sum to the time spent inside scopes.
enum class ProfPhase : std::uint8_t {
  kCompute = 0,        // agent stepping
  kChannelCommit = 1,  // dirty-list commit
  kParkWake = 2,       // park/wake bookkeeping (wake application, sweeps)
  kSerialSection = 3,  // devices, faults, dynamic network
  kStats = 4,          // per-channel stats sampling pass
};
inline constexpr int kNumProfPhases = 5;

/// Metric-safe lowercase name ("compute", "channel_commit", ...).
const char* prof_phase_name(ProfPhase p);

class Profiler {
 public:
  struct PhaseTotal {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };

  /// Monotonic wall clock in nanoseconds (steady_clock; overridable for
  /// deterministic tests via set_clock_for_test).
  [[nodiscard]] static std::uint64_t now_ns();
  /// Test hook: replaces now_ns()'s source. Null restores the real clock.
  static void set_clock_for_test(std::uint64_t (*clock)());

  // ---- Wall clock of the profiled region ---------------------------------
  /// start()/stop() bracket the region coverage is judged against (a bench
  /// brackets its run call, excluding construction). Re-entrant starts
  /// accumulate across segments.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  /// Wall nanoseconds accumulated so far (including a running segment).
  [[nodiscard]] std::uint64_t wall_ns() const;

  // ---- Instrumentation hooks (cheap; callers null-test the profiler) -----
  void count_park() { ++parks_; }
  void count_wake() { ++wakes_; }
  void count_commit(std::uint64_t dirty) {
    ++commit_batches_;
    dirty_channels_ += dirty;
  }
  void count_dense_sweep() { ++dense_sweeps_; }
  void count_sparse_cycle() { ++sparse_cycles_; }

  // ---- Aggregates --------------------------------------------------------
  [[nodiscard]] PhaseTotal phase_total(ProfPhase p) const {
    return phase_[static_cast<std::size_t>(p)];
  }
  /// Sum of every phase's time.
  [[nodiscard]] std::uint64_t phase_ns_sum() const;
  [[nodiscard]] std::uint64_t parks() const { return parks_; }
  [[nodiscard]] std::uint64_t wakes() const { return wakes_; }
  [[nodiscard]] std::uint64_t commit_batches() const { return commit_batches_; }
  [[nodiscard]] std::uint64_t dirty_channels() const { return dirty_channels_; }
  [[nodiscard]] std::uint64_t dense_sweeps() const { return dense_sweeps_; }
  [[nodiscard]] std::uint64_t sparse_cycles() const { return sparse_cycles_; }

  /// Fraction of wall_ns() the phase times account for (the acceptance gate
  /// is >= 0.9 for profiled bench rows). 0 when no wall time has been
  /// recorded.
  [[nodiscard]] double coverage() const;

  // ---- Flight recorder ---------------------------------------------------
  struct FlightSnapshot {
    Cycle cycle = 0;
    std::uint64_t wall_ns = 0;  // profiled wall time at the snapshot
    bool on_stall = false;      // forced by a watchdog StallReport
    std::array<PhaseTotal, kNumProfPhases> phase{};  // cumulative
    std::uint64_t parks = 0;
    std::uint64_t wakes = 0;
    std::uint64_t commit_batches = 0;
    std::uint64_t dirty_channels = 0;
    std::uint64_t dense_sweeps = 0;
    std::uint64_t sparse_cycles = 0;
  };

  /// Arms the flight recorder: a ring of `capacity` snapshots, one taken
  /// every `interval` simulated cycles (engines call flight_due/flight_snap
  /// at the cycle close). capacity 0 disarms.
  void enable_flight(std::size_t capacity, Cycle interval);
  [[nodiscard]] bool flight_enabled() const { return flight_capacity_ > 0; }
  [[nodiscard]] bool flight_due(Cycle now) const {
    return flight_capacity_ > 0 && now >= flight_next_;
  }
  /// Takes a snapshot at `cycle` (cumulative totals at that point).
  void flight_snap(Cycle cycle, bool on_stall = false);
  /// Snapshots taken so far, including overwritten ones.
  [[nodiscard]] std::uint64_t flight_recorded() const { return flight_recorded_; }
  /// Snapshots currently held, oldest first.
  [[nodiscard]] std::vector<FlightSnapshot> flight() const;
  /// One JSON object per line, oldest first (schema "flight/v1": each line
  /// carries cycle, wall_ns, on_stall, per-phase ns/calls, counters).
  [[nodiscard]] std::string flight_jsonl() const;

  // ---- Export ------------------------------------------------------------
  /// Publishes totals into `registry` under `prefix` (default "profile"):
  ///   <prefix>/wall_ns, <prefix>/coverage
  ///   <prefix>/phase/<name>/{ns,calls}
  ///   <prefix>/{parks,wakes,commit_batches,dirty_channels}
  ///   <prefix>/engine/{dense_sweeps,sparse_cycles,flight_snapshots}
  /// Every name matches ^[a-z0-9_/]+$ (the metric-name lint enforces this).
  void export_metrics(MetricRegistry& registry,
                      const std::string& prefix = "profile") const;

 private:
  friend class ProfScope;

  std::array<PhaseTotal, kNumProfPhases> phase_{};
  std::uint64_t parks_ = 0;           // agents parked
  std::uint64_t wakes_ = 0;           // channel-event wakes applied
  std::uint64_t commit_batches_ = 0;  // dirty-list commits
  std::uint64_t dirty_channels_ = 0;  // channels those committed
  std::uint64_t dense_sweeps_ = 0;
  std::uint64_t sparse_cycles_ = 0;

  bool running_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t wall_ns_ = 0;

  std::size_t flight_capacity_ = 0;
  Cycle flight_interval_ = 0;
  Cycle flight_next_ = 0;
  std::size_t flight_head_ = 0;  // oldest element once the ring is full
  std::uint64_t flight_recorded_ = 0;
  std::vector<FlightSnapshot> flight_ring_;
};

/// RAII phase scope with nesting: entering a child scope flushes and pauses
/// the parent, so each phase accumulates *exclusive* (self) time and the
/// phase totals sum to scoped wall time. Constructing with a null profiler
/// is free.
class ProfScope {
 public:
  ProfScope(Profiler* prof, ProfPhase phase) {
    if (prof == nullptr) return;
    prof_ = prof;
    phase_ = phase;
    parent_ = t_open_;
    t_open_ = this;
    const std::uint64_t now = Profiler::now_ns();
    if (parent_ != nullptr) parent_->flush(now);
    resume_ = now;
    ++prof_->phase_[static_cast<std::size_t>(phase_)].calls;
  }

  ~ProfScope() {
    if (prof_ == nullptr) return;
    const std::uint64_t now = Profiler::now_ns();
    flush(now);
    t_open_ = parent_;
    if (parent_ != nullptr) parent_->resume_ = now;
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void flush(std::uint64_t now) {
    prof_->phase_[static_cast<std::size_t>(phase_)].ns += now - resume_;
    resume_ = now;
  }

  Profiler* prof_ = nullptr;
  ProfPhase phase_ = ProfPhase::kCompute;
  ProfScope* parent_ = nullptr;
  std::uint64_t resume_ = 0;

  static thread_local ProfScope* t_open_;
};

/// Chrome trace_event JSON merging the packet-lifecycle tracks from `tracer`
/// (may be null) with the engine-profile tracks derived from `prof`'s flight
/// snapshots (may be null): per-interval phase-time counter series plus an
/// instant event for every stall-forced snapshot, on dedicated tids next to
/// the packet tracks. Timestamps are simulated-cycle microseconds, matching
/// PacketTracer::chrome_json.
[[nodiscard]] std::string merged_chrome_json(const PacketTracer* tracer,
                                             const Profiler* prof,
                                             double clock_hz = kRawClockHz);

}  // namespace raw::common
