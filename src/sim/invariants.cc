#include "sim/invariants.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace raw::sim {

void InvariantMonitor::add_check(std::string name, Check check,
                                 bool deterministic) {
  checks_.push_back(Entry{std::move(name), std::move(check), deterministic});
}

void InvariantMonitor::watch_chip(const Chip& chip) {
  chip.sync_block_accounting();
  baselines_.clear();
  const int n = chip.num_tiles();
  for (int t = 0; t < n; ++t) {
    const Tile& tl = chip.tile(t);
    const SwitchProcessor& sw = tl.switch_proc();
    TileBaseline b;
    b.switch_total = sw.cycles_busy() + sw.cycles_blocked_recv() +
                     sw.cycles_blocked_send() + sw.cycles_idle();
    b.proc_total = tl.proc_cycles_busy() + tl.proc_cycles_blocked();
    b.cycle = chip.cycle();
    baselines_.push_back(b);
  }

  add_check("engine/park_wake_books",
            [&chip] { return chip.check_engine_invariants(); });

  add_check("engine/cycle_accounting", [this, &chip]() -> std::string {
    chip.sync_block_accounting();
    const common::Cycle now = chip.cycle();
    const int tiles = chip.num_tiles();
    for (int t = 0; t < tiles; ++t) {
      const Tile& tl = chip.tile(t);
      const SwitchProcessor& sw = tl.switch_proc();
      const std::uint64_t sw_total = sw.cycles_busy() +
                                     sw.cycles_blocked_recv() +
                                     sw.cycles_blocked_send() +
                                     sw.cycles_idle();
      const std::uint64_t proc_total =
          tl.proc_cycles_busy() + tl.proc_cycles_blocked();
      TileBaseline& b = baselines_[static_cast<std::size_t>(t)];
      // A reconfiguration reloads switch programs, which zeroes their
      // counters (SwitchProcessor::load): re-baseline instead of firing.
      // The owner should also call notify_counters_reset() — this monotonic
      // guard is the backstop when the reset left totals above baseline.
      if (sw_total < b.switch_total || proc_total < b.proc_total) {
        b = TileBaseline{sw_total, proc_total, now};
        continue;
      }
      const std::uint64_t elapsed = now - b.cycle;
      // An injected tile freeze legitimately accounts nothing — the engine
      // skips a frozen tile outright — so the switch counters fall short of
      // wall-clock by exactly the freeze overlap with this span. Windows may
      // overlap (two events can land on the same tile), so take their union.
      std::uint64_t frozen = 0;
      if (const FaultPlan* plan = chip.fault_plan(); plan != nullptr) {
        std::vector<std::pair<common::Cycle, common::Cycle>> spans;
        for (const FaultEvent& e : plan->events()) {
          if (e.kind != FaultKind::kTileFreeze || e.tile != t) continue;
          const common::Cycle lo = std::max(e.at, b.cycle);
          const common::Cycle hi =
              e.permanent ? now
                          : std::min<common::Cycle>(e.at + e.duration, now);
          if (hi > lo) spans.emplace_back(lo, hi);
        }
        std::sort(spans.begin(), spans.end());
        common::Cycle end = 0;
        for (const auto& [lo, hi] : spans) {
          const common::Cycle from = std::max(lo, end);
          if (hi > from) frozen += hi - from;
          end = std::max(end, hi);
        }
      }
      if (sw_total - b.switch_total != elapsed - frozen) {
        return "tile " + std::to_string(t) + ": switch accounted " +
               std::to_string(sw_total - b.switch_total) + " of " +
               std::to_string(elapsed - frozen) + " expected cycles (" +
               std::to_string(elapsed) + " elapsed, " + std::to_string(frozen) +
               " frozen) since cycle " + std::to_string(b.cycle) +
               " (park/wake catch-up credit lost or duplicated)";
      }
      if (proc_total - b.proc_total > elapsed) {
        return "tile " + std::to_string(t) + ": processor accounted " +
               std::to_string(proc_total - b.proc_total) + " cycles in a " +
               std::to_string(elapsed) + "-cycle span since cycle " +
               std::to_string(b.cycle);
      }
      b = TileBaseline{sw_total, proc_total, now};
    }
    return "";
  });
}

void InvariantMonitor::notify_counters_reset(const Chip& chip) {
  chip.sync_block_accounting();
  for (int t = 0;
       t < chip.num_tiles() &&
       static_cast<std::size_t>(t) < baselines_.size();
       ++t) {
    const Tile& tl = chip.tile(t);
    const SwitchProcessor& sw = tl.switch_proc();
    TileBaseline& b = baselines_[static_cast<std::size_t>(t)];
    b.switch_total = sw.cycles_busy() + sw.cycles_blocked_recv() +
                     sw.cycles_blocked_send() + sw.cycles_idle();
    b.proc_total = tl.proc_cycles_busy() + tl.proc_cycles_blocked();
    b.cycle = chip.cycle();
  }
}

std::optional<InvariantViolation> InvariantMonitor::sweep(common::Cycle now) {
  ++sweeps_;
  // Every check runs every sweep, and a deterministic violation wins over a
  // non-deterministic one regardless of registration order: a replay cannot
  // reproduce an RSS blip, so the sentinel must never mask (or race) the
  // deterministic finding that anchors the bundle.
  std::optional<std::size_t> first;
  for (const Entry& e : checks_) {
    ++checks_run_;
    std::string detail = e.check();
    if (detail.empty()) continue;
    InvariantViolation v;
    v.name = e.name;
    v.detail = std::move(detail);
    v.cycle = now;
    v.deterministic = e.deterministic;
    if (!first.has_value() || (v.deterministic &&
                               !violations_[*first].deterministic)) {
      first = violations_.size();
    }
    violations_.push_back(std::move(v));
  }
  if (!first.has_value()) return std::nullopt;
  return violations_[*first];
}

void InvariantMonitor::export_metrics(common::MetricRegistry& registry,
                                      const std::string& prefix) const {
  registry.counter(prefix + "/sweeps").set(sweeps_);
  registry.counter(prefix + "/checks_run").set(checks_run_);
  registry.counter(prefix + "/violations").set(violations_.size());
}

CheckpointRing::CheckpointRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

const Checkpoint& CheckpointRing::capture(const Chip& chip,
                                          std::uint64_t owner_digest) {
  if (ring_.size() == capacity_) ring_.erase(ring_.begin());
  ring_.push_back(Checkpoint{chip.cycle(), chip.state_digest(), owner_digest});
  ++captured_;
  return ring_.back();
}

}  // namespace raw::sim
