// Deterministic chaos replay: record a run's fault schedule and outcome
// signature as JSON, replay it bit-identically, and delta-debug (ddmin) the
// schedule down to a minimal event subset that reproduces the same
// signature. The JSON codec is common/json; ddmin below is the one
// minimizer, which cluster schedules (cluster/chaos.h) share.
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

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
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

/// The failure class of a failure message: the text before its first ':'
/// (the part without run-specific numbers).
[[nodiscard]] std::string failure_category(const std::string& failure);

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

/// The explicit fault schedule run_chaos derives from `spec`'s seed, so a
/// run can be recorded (and replayed) event for event.
[[nodiscard]] std::vector<sim::FaultEvent> make_fault_events(
    const ChaosSpec& spec);

/// The bundle for a run of `spec` under `events` that produced `r`. The
/// spec's run-local attachments (monitor, profiler) are dropped.
[[nodiscard]] ChaosRepro make_repro(const ChaosSpec& spec,
                                    const std::vector<sim::FaultEvent>& events,
                                    const ChaosResult& r);

/// Serializes a repro as a self-contained JSON document (schema version 2;
/// digests are written as hex strings because 64-bit values exceed JSON's
/// interoperable integer range). from_json reads v1 and v2.
[[nodiscard]] std::string to_json(const ChaosRepro& repro);

/// Parses a document produced by to_json. A missing "version" reads as v1;
/// any version other than 1 or 2 is rejected. On failure returns false and,
/// if `error` is non-null, stores a one-line description.
bool from_json(const std::string& text, ChaosRepro* out,
               std::string* error = nullptr);

/// Replays a recorded bundle once and verifies the run reproduces its
/// signature, final state digest, invariant-failure cycle and every
/// checkpoint anchor (cycle, chip digest, router digest). `why` (if
/// non-null) is left empty on a match and otherwise names the first thing
/// that differed. Returns the replay's own result.
ChaosResult replay_repro(const ChaosRepro& repro, std::string* why = nullptr);

struct MinimizeStats {
  std::size_t original_events = 0;
  std::size_t minimized_events = 0;
  /// Replays the minimizer spent.
  int runs = 0;
};

/// Classic ddmin (Zeller & Hildebrandt) over any fault-event type: returns a
/// subset of `events` (1-minimal w.r.t. ddmin chunking) for which
/// `reproduces(subset)` holds — `events` itself if no smaller reproducer
/// exists. Deterministic when `reproduces` is.
template <typename Event, typename Reproduces>
[[nodiscard]] std::vector<Event> ddmin(const std::vector<Event>& events,
                                       Reproduces&& reproduces,
                                       MinimizeStats* stats = nullptr) {
  MinimizeStats local;
  MinimizeStats& st = stats != nullptr ? *stats : local;
  st.original_events = events.size();
  st.runs = 0;
  const auto test = [&](const std::vector<Event>& subset) {
    ++st.runs;
    return reproduces(subset);
  };

  // Split into n chunks, try each chunk alone, then each complement; on a
  // reduction restart with finer or coarser granularity, stop when chunks
  // are single events and nothing reduces.
  std::vector<Event> current = events;
  std::size_t n = 2;
  while (current.size() >= 2) {
    const std::size_t sz = current.size();
    n = std::min(n, sz);
    const std::size_t base = sz / n;
    const std::size_t rem = sz % n;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;  // [begin, end)
    for (std::size_t k = 0, pos = 0; k < n; ++k) {
      const std::size_t len = base + (k < rem ? 1 : 0);
      chunks.emplace_back(pos, pos + len);
      pos += len;
    }
    const auto slice = [&current](std::size_t b, std::size_t e) {
      return std::vector<Event>(
          current.begin() + static_cast<std::ptrdiff_t>(b),
          current.begin() + static_cast<std::ptrdiff_t>(e));
    };

    bool reduced = false;
    for (const auto& [b, e] : chunks) {
      std::vector<Event> subset = slice(b, e);
      if (test(subset)) {
        current = std::move(subset);
        n = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced && n > 2) {
      for (const auto& [b, e] : chunks) {
        std::vector<Event> complement = slice(0, b);
        std::vector<Event> tail = slice(e, sz);
        complement.insert(complement.end(), tail.begin(), tail.end());
        if (test(complement)) {
          current = std::move(complement);
          n = std::max<std::size_t>(n - 1, 2);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) {
      if (n >= sz) break;
      n = std::min(sz, n * 2);
    }
  }
  st.minimized_events = current.size();
  return current;
}

/// ddmin over a chip schedule: the subset's replay under `spec` must
/// reproduce `target`.
[[nodiscard]] std::vector<sim::FaultEvent> minimize_events(
    const ChaosSpec& spec, const std::vector<sim::FaultEvent>& events,
    const ChaosSignature& target, MinimizeStats* stats = nullptr);

/// minimize_events over `target`'s schedule and signature, re-run so the
/// returned bundle carries the minimal schedule's own digest (damage counts,
/// and so the digest, may differ from the full schedule's).
[[nodiscard]] ChaosRepro minimize_repro(const ChaosRepro& target,
                                        MinimizeStats* stats = nullptr);

}  // namespace raw::router
