// Endurance soak driver: multi-billion-cycle runs as a deterministic
// sequence of epochs, each a fresh router under a rotating chaos mix and
// traffic profile with the invariant monitor armed.
//
// Why epochs: tile programs are C++20 coroutines, whose frames cannot be
// serialized, so the simulator cannot be restored mid-run (see DESIGN.md
// "Endurance & invariants"). Instead every epoch boundary is a fresh router
// with an epoch-derived seed, and within an epoch the checkpoint ring
// records digest anchors: a failure bundle pins the failing epoch, and
// router::replay_repro re-runs that epoch alone from zero, reproducing every
// anchor and the final digest under either engine. Replay cost is one
// epoch, not the whole soak.
//
// The memory-flatness sentinel (common::MemTrend over /proc RSS) is shared
// across epochs and registered as a *non-deterministic* check: it reports
// leaks but never anchors a replay bundle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "router/repro.h"

namespace raw::router {

struct SoakSpec {
  std::uint64_t seed = 1;
  /// Target chip cycles across the whole soak (the driver rounds up to
  /// whole epochs; drains add more on top).
  common::Cycle total_cycles = 1'000'000'000;
  common::Cycle epoch_cycles = 4'000'000;
  /// Per-epoch drain budget.
  common::Cycle drain_cycles = 2'000'000;
  int faults_per_kind = 6;
  /// Kept only for the benchmark harness, which sets it; must be 0 or 1.
  int threads = 0;
  bool reliable_links = true;
  bool recovery = true;
  bool force_dense = false;
  /// Endurance knobs forwarded to RouterConfig::endurance per epoch.
  common::Cycle invariant_cadence = 16384;
  common::Cycle checkpoint_interval = 1u << 19;
  std::size_t checkpoint_ring = 4;
  /// Soak self-test: soak-absolute cycle at which an always-failing check
  /// arms inside the owning epoch (0 = off). Proves the violation ->
  /// bundle -> replay path end to end.
  common::Cycle inject_invariant_failure_at = 0;
  /// Artifact directories ("" = don't write): failure repro bundles and
  /// flight recorder dumps.
  std::string bundle_dir;
  std::string flight_dir;
  /// Wall-clock budget in seconds (0 = none): the soak stops at the next
  /// epoch boundary once exceeded and reports time_boxed. CI's tier-3
  /// nightly uses this to stay inside its slot.
  double time_box_seconds = 0.0;

  /// Throws std::invalid_argument when `threads` is not 0 or 1 (an epoch's
  /// chip steps serially). epoch_spec() calls this.
  void validate() const;
};

/// Per-epoch record kept in the report.
struct SoakEpochResult {
  std::int64_t epoch = 0;
  std::string mix;
  std::string traffic_profile;
  ChaosResult chaos;
};

struct SoakReport {
  bool pass = false;
  std::string failure;  // "" on pass
  std::uint64_t seed = 0;
  std::int64_t epochs_run = 0;
  common::Cycle total_cycles = 0;  // target
  common::Cycle cycles_run = 0;    // chip cycles actually simulated
  bool time_boxed = false;
  double wall_seconds = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t invariant_sweeps = 0;
  std::uint64_t checkpoints_captured = 0;
  std::uint64_t link_retransmits = 0;
  std::uint64_t recoveries = 0;  // epochs that ended degraded
  // Cycles stepped densely, summed over epochs: 0 unless the spec forces
  // dense stepping, since every fault the rotation injects is sparse-exact.
  std::uint64_t dense_sweeps = 0;
  std::uint64_t rss_first = 0;
  std::uint64_t rss_last = 0;
  std::uint64_t rss_peak = 0;
  bool mem_flat = true;
  std::string bundle_path;  // failure artifacts actually written
  std::string flight_path;
  /// On a deterministic invariant failure, run_soak replays the failing
  /// epoch's bundle (replay_repro) before it returns.
  struct Replay {
    bool attempted = false;
    bool ok = false;
    std::string detail;  // what differed; "" when ok
  } replay;
  std::vector<SoakEpochResult> epochs;

  /// Serializes as a self-contained "soak/v1" JSON document.
  [[nodiscard]] std::string to_json() const;
};

/// The deterministic per-epoch chaos spec: epoch-derived seed, the rotation
/// table's (mix, traffic profile, load), endurance armed, and the injected
/// failure translated to an epoch-relative cycle when it lands here.
/// Exposed for tests; run_soak calls it per epoch.
[[nodiscard]] ChaosSpec epoch_spec(const SoakSpec& spec, std::int64_t epoch);

/// Runs the soak. Deterministic modulo wall-clock effects (the time box and
/// the RSS sentinel); everything the pass/fail verdict and any bundle rests
/// on is seed-derived.
SoakReport run_soak(const SoakSpec& spec);

}  // namespace raw::router
