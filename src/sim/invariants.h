// Endurance invariants: continuous in-run verification plus a ring of
// checkpoint digests that anchor a failure replay.
//
// A drain-exit check proves a run *ended* consistent; a multi-billion-cycle
// soak needs the books balanced *while* the run is in flight, so corruption
// is caught within one cadence of where it happened instead of a billion
// cycles later. InvariantMonitor holds a set of named read-only checks (the
// router registers conservation/liveness/link accounting, the chip registers
// its park/wake credit books, the soak driver adds a memory sentinel) and
// sweeps them at a configurable cadence from the run loop.
//
// CheckpointRing keeps the last K (cycle, chip digest, owner digest)
// triples. Tile-program coroutine frames cannot be captured, so nothing is
// restored from a checkpoint: a failure bundle records the triples and a
// replay re-executes deterministically from the seed, reproducing every one
// of them on its way to the failure (router::replay_repro).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/chip.h"

namespace raw::common {
class MetricRegistry;
}

namespace raw::sim {

struct InvariantViolation {
  std::string name;    // which registered check fired
  std::string detail;  // what it saw
  common::Cycle cycle = 0;
  /// Deterministic checks (ledger identities, credit books) reproduce under
  /// replay and may anchor a replay bundle; non-deterministic ones (RSS
  /// sentinel) are report-only evidence.
  bool deterministic = true;
};

class InvariantMonitor {
 public:
  /// A check returns "" when the invariant holds, else a one-line detail.
  /// Checks must be read-only on simulation state (settling park accounting
  /// via Chip::sync_block_accounting is allowed — it is bit-neutral).
  using Check = std::function<std::string()>;

  void add_check(std::string name, Check check, bool deterministic = true);

  /// Registers the chip's engine self-checks: the park/wake credit books
  /// (Chip::check_engine_invariants) and the per-tile cycle-accounting
  /// identity — after settling, every switch's busy+blocked+idle counters
  /// must advance exactly one per elapsed cycle, and a processor's
  /// busy+blocked must never outrun the clock. Counter resets (a recovery
  /// reloading switch programs) re-baseline instead of firing. `chip` must
  /// outlive the monitor's sweeps.
  void watch_chip(const Chip& chip);

  /// Tells the cycle-accounting check that per-tile counters were reset
  /// under it (a recovery reloading switch programs zeroes them): baselines
  /// are re-read from `chip` so the next sweep judges only the new span.
  void notify_counters_reset(const Chip& chip);

  /// Runs every check once, records every violation, and returns the one
  /// the run should stop on: the first *deterministic* violation in
  /// registration order, falling back to the first non-deterministic one —
  /// an RSS blip must never mask the reproducible finding that anchors a
  /// replay bundle. Later sweeps keep appending to violations().
  std::optional<InvariantViolation> sweep(common::Cycle now);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::size_t num_checks() const { return checks_.size(); }

  void export_metrics(common::MetricRegistry& registry,
                      const std::string& prefix = "invariants") const;

 private:
  struct Entry {
    std::string name;
    Check check;
    bool deterministic;
  };
  /// Per-tile counter baselines for the cycle-accounting identity.
  struct TileBaseline {
    std::uint64_t switch_total = 0;
    std::uint64_t proc_total = 0;
    common::Cycle cycle = 0;
  };

  std::vector<Entry> checks_;
  std::vector<InvariantViolation> violations_;
  std::vector<TileBaseline> baselines_;  // watch_chip state
  std::uint64_t sweeps_ = 0;
  std::uint64_t checks_run_ = 0;
};

/// One checkpoint: a cycle and the digests a replay must reproduce there.
struct Checkpoint {
  common::Cycle cycle = 0;
  std::uint64_t chip_digest = 0;   // Chip::state_digest at capture
  std::uint64_t owner_digest = 0;  // owner-supplied (RawRouter::state_digest)

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// Keeps the most recent `capacity` checkpoints.
class CheckpointRing {
 public:
  explicit CheckpointRing(std::size_t capacity);

  const Checkpoint& capture(const Chip& chip, std::uint64_t owner_digest);

  /// Lifetime captures (>= entries().size(): old entries fall off the ring).
  [[nodiscard]] std::uint64_t captured() const { return captured_; }
  /// Entries oldest-first.
  [[nodiscard]] const std::vector<Checkpoint>& entries() const { return ring_; }

 private:
  std::size_t capacity_;
  std::vector<Checkpoint> ring_;  // oldest-first
  std::uint64_t captured_ = 0;
};

}  // namespace raw::sim
