// Deterministic chaos replay: record a run's fault schedule and outcome
// signature as JSON, replay it bit-identically, and delta-debug (ddmin) the
// schedule down to a minimal event subset that reproduces the same
// signature.
//
// The signature deliberately captures only the *shape* of the outcome (did
// it pass, which invariant broke, how the run ended, which tile got the
// blame) and not incidental damage counts: a minimized schedule that stalls
// the same tile the same way is the same bug, even if dropping the
// bit-flip events changed how many packets were mangled along the way.
//
// Everything here is deterministic: run_chaos_events drives a fully seeded
// router, so the same (spec, events) pair produces the same ChaosResult —
// and the same RawRouter::state_digest() — under either engine. That is
// what makes a recorded repro replayable and a minimization trustworthy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "router/chaos.h"
#include "sim/fault_plan.h"

namespace raw::router {

/// Outcome shape of a chaos run, for "fails identically" comparisons.
struct ChaosSignature {
  bool pass = true;
  /// Failure class: ChaosResult::failure up to the first ':' (the part
  /// before run-specific numbers). Empty on pass.
  std::string category;
  DrainOutcome outcome = DrainOutcome::kDrained;
  bool stalled_in_run = false;
  bool degraded = false;
  /// Tile the StallReport blamed as frozen (-1 when none).
  int stall_tile = -1;

  friend bool operator==(const ChaosSignature&, const ChaosSignature&) = default;
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] ChaosSignature signature_of(const ChaosResult& r);

/// A replayable chaos repro: the spec, the explicit fault schedule, and the
/// signature + state digest the run produced. Schema v2 adds the endurance
/// bundle fields (checkpoint anchors, the invariant failure, soak context);
/// they stay empty/zero for v1 documents and for runs without endurance.
struct ChaosRepro {
  ChaosSpec spec;
  std::vector<sim::FaultEvent> events;
  ChaosSignature signature;
  std::uint64_t digest = 0;
  /// Checkpoint anchors (oldest first): replay must reproduce each
  /// (cycle -> chip/router digest) pair on its way to the failure.
  std::vector<ReplayAnchor> anchors;
  /// The invariant failure this bundle pins ("" when the run failed some
  /// other way or passed), and the chip cycle it fired at.
  std::string failure;
  common::Cycle failure_cycle = 0;
  /// Soak context: which epoch of which soak produced this bundle (-1 when
  /// the bundle did not come from a soak) and the soak-absolute cycle the
  /// epoch started at.
  std::int64_t soak_epoch = -1;
  common::Cycle soak_start_cycle = 0;
};

/// Serializes a repro as a self-contained JSON document (schema version 2;
/// digests are written as hex strings because 64-bit values exceed JSON's
/// interoperable integer range). from_json reads v1 and v2.
[[nodiscard]] std::string to_json(const ChaosRepro& repro);

/// Parses a document produced by to_json. On failure returns false and, if
/// `error` is non-null, stores a one-line description.
bool from_json(const std::string& text, ChaosRepro* out,
               std::string* error = nullptr);

struct MinimizeStats {
  std::size_t original_events = 0;
  std::size_t minimized_events = 0;
  /// run_chaos_events invocations the minimizer spent.
  int runs = 0;
};

/// Delta-debugs `events` to a (1-minimal w.r.t. ddmin chunking) subset whose
/// replay under `spec` reproduces `target`. Returns the subset — `events`
/// itself if no smaller reproducer exists. Deterministic: same inputs, same
/// subset.
[[nodiscard]] std::vector<sim::FaultEvent> minimize_events(
    const ChaosSpec& spec, const std::vector<sim::FaultEvent>& events,
    const ChaosSignature& target, MinimizeStats* stats = nullptr);

}  // namespace raw::router
