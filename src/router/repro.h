// Deterministic chaos replay, one layer for chip and cluster bundles:
// record a run's fault schedule and outcome signature as JSON, replay it
// bit-identically, and delta-debug (ddmin) the schedule down to a minimal
// event subset that reproduces the same signature.
//
// Both chaos targets report a ChaosResult, so one bundle type (Repro<Spec>)
// and one make_repro, replay_repro and minimize_repro serve both. Each
// target supplies, found by argument-dependent lookup on its spec type,
// run_chaos_events(spec, events) (the run under an explicit schedule),
// check_schedule(spec, events) (throws std::invalid_argument naming the
// first event that targets something the chip or fabric does not have) and
// its to_json / from_json codec, which writes the shared signature object.
// The chip's are here and in router/chaos.h, the cluster's in
// cluster/chaos.h.
//
// The signature deliberately captures only the *shape* of the outcome (did
// it pass, which invariant broke, how the run ended, which tile got the
// blame) and not incidental damage counts: a minimized schedule that stalls
// the same tile the same way is the same bug, even if dropping the
// bit-flip events changed how many packets were mangled along the way.
//
// Everything here is deterministic: the same (spec, events) pair produces
// the same ChaosResult and digest under either engine and at any cluster
// worker count. That is what makes a recorded repro replayable and a
// minimization trustworthy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "router/chaos.h"
#include "sim/fault_plan.h"

namespace raw::common::json {
struct Parser;
}

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

/// The failure class of a failure message: the text before its first ':'
/// (the part without run-specific numbers).
[[nodiscard]] std::string failure_category(const std::string& failure);

[[nodiscard]] ChaosSignature signature_of(const ChaosResult& r);

/// The signature object both bundle codecs write.
void append_signature(std::string& s, const ChaosSignature& sig);
/// Reads the object append_signature writes.
bool parse_signature(common::json::Parser& p, ChaosSignature* sig);

/// What a bundle records besides its spec and schedule: the outcome a
/// replay must reproduce, and where the bundle came from. The anchors,
/// invariant failure and soak context stay empty/zero on a cluster bundle
/// and on a chip run without endurance.
struct ReproRecord {
  ChaosSignature signature;
  std::uint64_t digest = 0;
  /// Checkpoint anchors (oldest first): replay must reproduce each
  /// (cycle -> chip/router digest) triple on its way to the failure.
  std::vector<sim::Checkpoint> anchors;
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

/// A replayable chaos repro: the spec, the explicit fault schedule, and the
/// record of what the run produced.
template <typename Spec>
struct Repro : ReproRecord {
  Spec spec;
  std::vector<sim::FaultEvent> events;
};

/// A chip bundle. Schema version 2 added the endurance fields (anchors, the
/// invariant failure, soak context).
using ChaosRepro = Repro<ChaosSpec>;

/// The explicit fault schedule run_chaos derives from `spec`'s seed, so a
/// run can be recorded (and replayed) event for event.
[[nodiscard]] std::vector<sim::FaultEvent> make_fault_events(
    const ChaosSpec& spec);

/// Throws std::invalid_argument naming the first event of `events` that
/// `spec`'s chip does not have: binds the whole schedule to a router.
void check_schedule(const ChaosSpec& spec,
                    const std::vector<sim::FaultEvent>& events);

/// The bundle for a run of `spec` under `events` that produced `r`. A chip
/// spec's run-local attachments (monitor, profiler) are dropped.
template <typename Spec>
[[nodiscard]] Repro<Spec> make_repro(const Spec& spec,
                                     const std::vector<sim::FaultEvent>& events,
                                     const ChaosResult& r) {
  Repro<Spec> repro;
  repro.signature = signature_of(r);
  repro.digest = r.digest;
  repro.anchors = r.anchors;
  repro.failure = r.invariant_failure;
  repro.failure_cycle = r.invariant_failure_cycle;
  repro.spec = spec;
  if constexpr (requires { repro.spec.monitor; }) {
    repro.spec.monitor = nullptr;
    repro.spec.profiler = nullptr;
  }
  repro.events = events;
  return repro;
}

/// Serializes a repro as a self-contained JSON document (schema version 2;
/// digests are written as hex strings because 64-bit values exceed JSON's
/// interoperable integer range). from_json reads v1 and v2.
[[nodiscard]] std::string to_json(const ChaosRepro& repro);

/// Parses a document produced by to_json. A missing "version" reads as v1;
/// any version other than 1 or 2 is rejected. On failure returns false and,
/// if `error` is non-null, stores a one-line description.
bool from_json(const std::string& text, ChaosRepro* out,
               std::string* error = nullptr);

/// The first way `replayed` differs from `recorded` (its signature, final
/// digest, invariant-failure cycle, then each checkpoint anchor), or "" when
/// the replay reproduced the record.
[[nodiscard]] std::string replay_mismatch(const ChaosResult& replayed,
                                          const ReproRecord& recorded);

/// Replays a recorded bundle once and verifies the run reproduces its
/// record (replay_mismatch). `why` (if non-null) is left empty on a match
/// and otherwise names the first thing that differed. Returns the replay's
/// own result.
template <typename Spec>
ChaosResult replay_repro(const Repro<Spec>& repro, std::string* why = nullptr) {
  ChaosResult r = run_chaos_events(repro.spec, repro.events);
  std::string mismatch = replay_mismatch(r, repro);
  if (why != nullptr) *why = std::move(mismatch);
  return r;
}

struct MinimizeStats {
  std::size_t original_events = 0;
  std::size_t minimized_events = 0;
  /// Replays the minimizer spent.
  int runs = 0;
};

/// Classic ddmin (Zeller & Hildebrandt): returns a subset of `events`
/// (1-minimal w.r.t. ddmin chunking) for which `reproduces(subset)` holds,
/// `events` itself if no smaller reproducer exists. Deterministic when
/// `reproduces` is.
[[nodiscard]] std::vector<sim::FaultEvent> ddmin(
    const std::vector<sim::FaultEvent>& events,
    const std::function<bool(const std::vector<sim::FaultEvent>&)>& reproduces,
    MinimizeStats* stats = nullptr);

/// ddmin over a schedule: the subset's run under `spec` must reproduce
/// `target`. The whole schedule is checked first (check_schedule), so a bad
/// fault target is reported by its index in `events`, as a replay reports
/// it, not by its index in the first subset ddmin runs.
template <typename Spec>
[[nodiscard]] std::vector<sim::FaultEvent> minimize_events(
    const Spec& spec, const std::vector<sim::FaultEvent>& events,
    const ChaosSignature& target, MinimizeStats* stats = nullptr) {
  check_schedule(spec, events);
  return ddmin(
      events,
      [&](const std::vector<sim::FaultEvent>& subset) {
        return signature_of(run_chaos_events(spec, subset)) == target;
      },
      stats);
}

/// minimize_events over `target`'s schedule and signature, re-run so the
/// returned bundle carries the minimal schedule's own digest (damage counts,
/// and so the digest, may differ from the full schedule's).
template <typename Spec>
[[nodiscard]] Repro<Spec> minimize_repro(const Repro<Spec>& target,
                                         MinimizeStats* stats = nullptr) {
  const std::vector<sim::FaultEvent> minimal =
      minimize_events(target.spec, target.events, target.signature, stats);
  return make_repro(target.spec, minimal,
                    run_chaos_events(target.spec, minimal));
}

}  // namespace raw::router
