// Endurance invariants: continuous in-run verification plus a checkpoint
// ring for anchored failure replay.
//
// A drain-exit check proves a run *ended* consistent; a multi-billion-cycle
// soak needs the books balanced *while* the run is in flight, so corruption
// is caught within one cadence of where it happened instead of a billion
// cycles later. InvariantMonitor holds a set of named read-only checks (the
// router registers conservation/liveness/link accounting, the chip registers
// its park/wake credit books, the soak driver adds a memory sentinel) and
// sweeps them at a configurable cadence from the run loop.
//
// CheckpointRing keeps the last K Chip::snapshot captures with both the
// chip-level and owner-level digests. Tile-program coroutine frames are not
// serializable (see DESIGN.md "Endurance & invariants"), so these snapshots
// are digest anchors: a failure bundle records their (cycle, digest) pairs
// and replay re-executes deterministically, verifying the identical digest
// trajectory through every anchor up to the failure cycle. The snapshots
// themselves support in-process restore (architectural diffing at an anchor)
// and optional spill-to-disk for post-mortem inspection.
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

/// One checkpoint-ring entry: the architectural snapshot plus the digests
/// replay must reproduce at `cycle`.
struct Checkpoint {
  common::Cycle cycle = 0;
  std::uint64_t chip_digest = 0;   // Chip::state_digest at capture
  std::uint64_t owner_digest = 0;  // owner-supplied (e.g. RawRouter digest)
  Chip::Snapshot snapshot;
};

/// Keeps the most recent `capacity` checkpoints. Capture requires the
/// dynamic network quiet (Chip::snapshot's contract) — the owner defers the
/// capture deterministically until it is.
class CheckpointRing {
 public:
  explicit CheckpointRing(std::size_t capacity);

  const Checkpoint& capture(const Chip& chip, std::uint64_t owner_digest);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Lifetime captures (>= size(): old entries fall off the ring).
  [[nodiscard]] std::uint64_t captured() const { return captured_; }

  /// Entries oldest-first.
  [[nodiscard]] std::vector<const Checkpoint*> entries() const;
  /// Most recent checkpoint at or before `cycle` (nullptr when none).
  [[nodiscard]] const Checkpoint* nearest_at_or_before(common::Cycle cycle) const;
  [[nodiscard]] const Checkpoint* latest() const;

  /// Spills every held snapshot under `dir` as
  /// `<prefix>ckpt_<cycle>.snap` (one text record per channel/switch —
  /// post-mortem inspection, not a warm-start format). Returns the number
  /// of files written; 0 with `error` set on I/O failure.
  std::size_t spill_all(const std::string& dir, const std::string& prefix,
                        std::string* error = nullptr) const;

 private:
  std::size_t capacity_;
  std::vector<Checkpoint> ring_;  // oldest-first
  std::uint64_t captured_ = 0;
};

}  // namespace raw::sim
