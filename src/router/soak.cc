#include "router/soak.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/assert.h"
#include "common/json.h"
#include "common/profiler.h"
#include "common/resource.h"
#include "common/rng.h"

namespace raw::router {
namespace {

namespace json = common::json;

// common::mix64: the epoch seed derivation. Every epoch's entire behaviour
// is a pure function of (master seed, epoch index).
using common::mix64;

// The rotating endurance schedule: every 8 epochs the soak has exercised a
// clean baseline, every transient fault kind, the reliable-link repair path
// under corruption, a recovery (permanent freeze), and every traffic
// profile including the heavy-tailed Pareto flows.
struct Rotation {
  const char* mix;
  const char* profile;
  double load;
};
constexpr Rotation kRotation[] = {
    {"", "uniform", 0.90},
    {"flip", "imix", 0.85},
    {"stall", "hotspot", 0.80},
    {"flip+stall", "pareto", 0.90},
    {"freeze", "bursty", 0.85},
    {"overrun", "permutation", 0.95},
    {"flip+stall+freeze+overrun", "uniform", 0.80},
    {"permafreeze", "imix", 0.90},
};
constexpr std::size_t kRotationSize = sizeof(kRotation) / sizeof(kRotation[0]);

}  // namespace

void SoakSpec::validate() const {
  if (threads < 0 || threads > 1) {
    throw std::invalid_argument(
        "SoakSpec.threads must be 0 or 1 (an epoch's chip steps serially); "
        "got " + std::to_string(threads));
  }
}

ChaosSpec epoch_spec(const SoakSpec& spec, std::int64_t epoch) {
  spec.validate();
  RAW_ASSERT_MSG(epoch >= 0, "epoch index must be non-negative");
  const Rotation& rot =
      kRotation[static_cast<std::size_t>(epoch) % kRotationSize];
  ChaosSpec c;
  c.seed = mix64(spec.seed ^ mix64(static_cast<std::uint64_t>(epoch) + 1));
  const bool mix_ok = parse_mix(rot.mix, &c.mix);
  RAW_ASSERT_MSG(mix_ok, "rotation table mix must parse");
  // A permanent freeze without recovery is a *designed* wedge — correct for
  // the chaos suite, wrong for a soak meant to keep running. Substitute a
  // transient freeze when recovery is off.
  if (c.mix.permanent_freeze && !spec.recovery) {
    c.mix.permanent_freeze = false;
    c.mix.freezes = true;
  }
  c.run_cycles = spec.epoch_cycles;
  c.drain_cycles = spec.drain_cycles;
  c.faults_per_kind = spec.faults_per_kind;
  c.load = rot.load;
  c.reliable_links = spec.reliable_links;
  c.recovery = spec.recovery;
  c.force_dense = spec.force_dense;
  c.traffic_profile = rot.profile;
  c.endurance.enabled = true;
  c.endurance.invariant_cadence = spec.invariant_cadence;
  c.endurance.checkpoint_interval = spec.checkpoint_interval;
  c.endurance.checkpoint_ring = spec.checkpoint_ring;
  c.endurance.checkpoint_grace = spec.checkpoint_grace;
  // The injected failure lands in exactly one epoch; translate the
  // soak-absolute cycle to this epoch's chip clock (clamped away from 0,
  // which means "off").
  const common::Cycle start =
      static_cast<common::Cycle>(epoch) * spec.epoch_cycles;
  if (spec.inject_invariant_failure_at > 0 &&
      spec.inject_invariant_failure_at >= start &&
      spec.inject_invariant_failure_at < start + spec.epoch_cycles) {
    c.inject_invariant_failure_at =
        std::max<common::Cycle>(1, spec.inject_invariant_failure_at - start);
  }
  return c;
}

AnchoredReplayResult replay_from_checkpoint(const ChaosRepro& bundle) {
  AnchoredReplayResult v;
  v.attempted = true;

  const ReplayAnchor* anchor = nullptr;
  for (const ReplayAnchor& a : bundle.anchors) {
    if (a.cycle <= bundle.failure_cycle &&
        (anchor == nullptr || a.cycle > anchor->cycle)) {
      anchor = &a;
    }
  }
  // A failure before the first checkpoint is due anchors at the epoch
  // start: a freshly constructed router *is* the cycle-0 checkpoint (an
  // epoch is fully reconstructible from its seed), so the anchored leg
  // simply begins at zero.
  v.anchor_cycle = anchor != nullptr ? anchor->cycle : 0;

  ChaosSpec spec = bundle.spec;
  spec.monitor = nullptr;
  spec.profiler = nullptr;
  spec.checkpoint_spill_dir.clear();
  if (!spec.endurance.enabled) {
    v.detail = "bundle spec has endurance disabled: nothing to anchor";
    return v;
  }

  // Reconstruct the epoch's router exactly as run_chaos_events would.
  RawRouter router(router_config_for(spec), net::RouteTable::simple4(),
                   traffic_for(spec), spec.seed);
  if (spec.force_dense) router.chip().set_force_dense(true);
  sim::InvariantMonitor monitor;
  if (spec.inject_invariant_failure_at > 0) {
    const common::Cycle at = spec.inject_invariant_failure_at;
    sim::Chip* chip = &router.chip();
    monitor.add_check("soak/injected_failure", [chip, at]() -> std::string {
      if (chip->cycle() < at) return "";
      return "injected invariant failure (soak self-test) armed at cycle " +
             std::to_string(at);
    });
  }
  router.arm_endurance(&monitor);
  sim::FaultPlan plan(bundle.events);
  router.set_fault_plan(&plan);

  // Leg 1: run to the anchor. The run loop schedules everything as
  // absolute cycles, so run(anchor); run(rest) walks the identical
  // trajectory of the original single run — including captures deferred by
  // a busy network — and lands exactly on the anchor's capture cycle.
  if (anchor != nullptr) {
    const RunStatus rs1 = router.run(anchor->cycle);
    if (rs1 == RunStatus::kStalled || rs1 == RunStatus::kInvariantViolation) {
      v.detail = "replay failed before reaching the anchor (cycle " +
                 std::to_string(router.chip().cycle()) + ")";
      return v;
    }
    if (router.chip().cycle() != anchor->cycle) {
      v.detail = "replay landed at cycle " +
                 std::to_string(router.chip().cycle()) + ", anchor is at " +
                 std::to_string(anchor->cycle);
      return v;
    }
    if (router.chip().state_digest() != anchor->chip_digest ||
        router.state_digest() != anchor->router_digest) {
      v.detail = "digest mismatch at the anchor (cycle " +
                 std::to_string(anchor->cycle) + "): divergent trajectory";
      return v;
    }
  }

  // Leg 2: continue to the failure (or the end of the epoch).
  RunStatus rs2 = RunStatus::kOk;
  if (spec.run_cycles > router.chip().cycle()) {
    rs2 = router.run(spec.run_cycles - router.chip().cycle());
  }
  if (rs2 != RunStatus::kStalled && rs2 != RunStatus::kInvariantViolation) {
    (void)router.drain(spec.drain_cycles);
  }
  v.anchored_digest = router.state_digest();

  if (!bundle.failure.empty()) {
    if (!router.invariant_violation().has_value()) {
      v.detail = "replay did not reproduce the invariant violation";
      return v;
    }
    const sim::InvariantViolation& viol = *router.invariant_violation();
    if (viol.cycle != bundle.failure_cycle) {
      v.detail = "violation fired at cycle " + std::to_string(viol.cycle) +
                 ", bundle recorded " + std::to_string(bundle.failure_cycle);
      return v;
    }
  }
  if (v.anchored_digest != bundle.digest) {
    v.detail = "final state digest mismatch (anchored replay diverged after "
               "the anchor)";
    return v;
  }
  // The regenerated ring must reproduce the bundle's anchor trajectory.
  if (const sim::CheckpointRing* ring = router.checkpoint_ring()) {
    const std::vector<const sim::Checkpoint*> entries = ring->entries();
    if (entries.size() != bundle.anchors.size()) {
      v.detail = "replay captured " + std::to_string(entries.size()) +
                 " checkpoints, bundle has " +
                 std::to_string(bundle.anchors.size());
      return v;
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i]->cycle != bundle.anchors[i].cycle ||
          entries[i]->chip_digest != bundle.anchors[i].chip_digest ||
          entries[i]->owner_digest != bundle.anchors[i].router_digest) {
        v.detail = "checkpoint anchor " + std::to_string(i) +
                   " does not match the bundle";
        return v;
      }
    }
  }
  v.ok = true;
  return v;
}

AnchoredReplayResult verify_bundle_replay(const ChaosRepro& bundle) {
  AnchoredReplayResult v = replay_from_checkpoint(bundle);

  ChaosSpec zero_spec = bundle.spec;
  zero_spec.monitor = nullptr;
  zero_spec.profiler = nullptr;
  zero_spec.checkpoint_spill_dir.clear();
  const ChaosResult z = run_chaos_events(zero_spec, bundle.events);
  v.from_zero_digest = z.digest;

  if (!v.ok) return v;
  if (z.digest != bundle.digest) {
    v.ok = false;
    v.detail = "from-zero replay digest does not match the bundle";
  } else if (!bundle.failure.empty() &&
             z.invariant_failure_cycle != bundle.failure_cycle) {
    v.ok = false;
    v.detail = "from-zero replay violation cycle " +
               std::to_string(z.invariant_failure_cycle) +
               " does not match the bundle's " +
               std::to_string(bundle.failure_cycle);
  }
  return v;
}

SoakReport run_soak(const SoakSpec& spec) {
  SoakReport rep;
  rep.seed = spec.seed;
  rep.total_cycles = spec.total_cycles;
  RAW_ASSERT_MSG(spec.epoch_cycles > 0, "epoch_cycles must be positive");

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // One sentinel across every epoch: the whole point is the trend over the
  // soak, not within one epoch.
  common::MemTrend mem;
  mem.sample(common::rss_bytes());

  const std::int64_t num_epochs = static_cast<std::int64_t>(
      (spec.total_cycles + spec.epoch_cycles - 1) / spec.epoch_cycles);

  for (std::int64_t e = 0; e < num_epochs; ++e) {
    if (spec.time_box_seconds > 0 && elapsed_s() >= spec.time_box_seconds) {
      rep.time_boxed = true;
      break;
    }

    ChaosSpec cs = epoch_spec(spec, e);
    sim::InvariantMonitor monitor;
    monitor.add_check(
        "soak/memory_flat",
        [&mem, &spec]() -> std::string {
          mem.sample(common::rss_bytes());
          if (mem.flat(spec.mem_slack_bytes, spec.mem_slack_fraction)) {
            return "";
          }
          return "rss not flat: " + mem.summary();
        },
        /*deterministic=*/false);
    cs.monitor = &monitor;
    if (!spec.checkpoint_dir.empty()) {
      cs.checkpoint_spill_dir = spec.checkpoint_dir;
    }

    // Materialize the seed-derived fault schedule as explicit events so a
    // failure bundle replays through run_chaos_events directly.
    const std::vector<sim::FaultEvent> events = make_fault_events(cs);

    common::Profiler prof;
    prof.enable_flight(/*capacity=*/256, /*interval=*/8192);
    cs.profiler = &prof;

    ChaosResult r = run_chaos_events(cs, events);

    ++rep.epochs_run;
    rep.cycles_run += r.end_cycle;
    rep.offered += r.offered;
    rep.delivered += r.delivered;
    rep.faults_injected += r.faults_injected;
    rep.invariant_sweeps += r.invariant_sweeps;
    rep.checkpoints_captured += r.checkpoints_captured;
    rep.checkpoints_skipped += r.checkpoints_skipped;
    rep.link_retransmits += r.link_retransmits;
    if (r.degraded) ++rep.recoveries;

    const bool passed = r.pass;
    SoakEpochResult er;
    er.epoch = e;
    er.mix = cs.mix.name();
    er.traffic_profile = cs.traffic_profile;
    er.chaos = std::move(r);
    rep.epochs.push_back(std::move(er));

    if (!passed) {
      const ChaosResult& fr = rep.epochs.back().chaos;
      rep.failure = "epoch " + std::to_string(e) + " (" + cs.mix.name() +
                    "/" + cs.traffic_profile + "): " + fr.failure;

      // Emit the replay bundle (always built; written when a dir is given).
      ChaosRepro bundle = make_repro(cs, events, fr);
      bundle.soak_epoch = e;
      bundle.soak_start_cycle =
          static_cast<common::Cycle>(e) * spec.epoch_cycles;
      if (!spec.bundle_dir.empty()) {
        const std::string path =
            spec.bundle_dir + "/soak_epoch" + std::to_string(e) + ".json";
        if (json::write_file(path, to_json(bundle))) {
          rep.bundle_path = path;
        } else {
          std::fprintf(stderr, "soak: cannot write replay bundle %s\n",
                       path.c_str());
        }
      }
      if (!spec.flight_dir.empty() && prof.flight_recorded() > 0) {
        const std::string path = spec.flight_dir + "/soak_epoch" +
                                 std::to_string(e) + "_flight.jsonl";
        if (json::write_file(path, prof.flight_jsonl())) {
          rep.flight_path = path;
        } else {
          std::fprintf(stderr, "soak: cannot write flight dump %s\n",
                       path.c_str());
        }
      }

      // The acceptance gate: a deterministic invariant failure must replay
      // identically from its nearest anchor and from zero.
      if (spec.verify_failure_replay && !fr.invariant_failure.empty() &&
          fr.invariant_deterministic) {
        rep.replay = verify_bundle_replay(bundle);
      }
      break;
    }
  }

  mem.sample(common::rss_bytes());
  rep.rss_first = mem.first();
  rep.rss_last = mem.last();
  rep.rss_peak = mem.peak();
  rep.mem_flat = mem.flat(spec.mem_slack_bytes, spec.mem_slack_fraction);
  if (rep.failure.empty() && !rep.mem_flat) {
    rep.failure = "memory not flat over the soak: " + mem.summary();
  }
  rep.wall_seconds = elapsed_s();
  rep.pass = rep.failure.empty();
  return rep;
}

std::string SoakReport::to_json() const {
  std::string s = "{\n  \"schema\": \"soak/v1\",\n  \"pass\": ";
  json::append_value(s, pass);
  json::append_field(s, "failure", failure, ",\n  ");
  json::append_field(s, "seed", seed, ",\n  ");
  json::append_field(s, "epochs_run", epochs_run, ",\n  ");
  json::append_field(s, "total_cycles", total_cycles, ",\n  ");
  json::append_field(s, "cycles_run", cycles_run, ",\n  ");
  json::append_field(s, "time_boxed", time_boxed, ",\n  ");
  s += ",\n  \"wall_seconds\": ";
  json::append_double(s, wall_seconds, 6);
  s += ",\n  \"totals\": {\"offered\": ";
  s += std::to_string(offered);
  json::append_field(s, "delivered", delivered);
  json::append_field(s, "faults_injected", faults_injected);
  json::append_field(s, "invariant_sweeps", invariant_sweeps);
  json::append_field(s, "checkpoints_captured", checkpoints_captured);
  json::append_field(s, "checkpoints_skipped", checkpoints_skipped);
  json::append_field(s, "link_retransmits", link_retransmits);
  json::append_field(s, "recoveries", recoveries);
  s += "},\n  \"memory\": {\"rss_first\": ";
  s += std::to_string(rss_first);
  json::append_field(s, "rss_last", rss_last);
  json::append_field(s, "rss_peak", rss_peak);
  json::append_field(s, "flat", mem_flat);
  s += "},\n  \"replay\": {\"attempted\": ";
  json::append_value(s, replay.attempted);
  json::append_field(s, "ok", replay.ok);
  json::append_field(s, "anchor_cycle", replay.anchor_cycle);
  s += ", \"anchored_digest\": ";
  json::append_hex64(s, replay.anchored_digest);
  s += ", \"from_zero_digest\": ";
  json::append_hex64(s, replay.from_zero_digest);
  json::append_field(s, "detail", replay.detail);
  s += "},\n  \"bundle\": ";
  json::append_escaped(s, bundle_path);
  json::append_field(s, "flight", flight_path, ",\n  ");
  s += ",\n  \"epochs\": [";
  for (std::size_t n = 0; n < epochs.size(); ++n) {
    const SoakEpochResult& e = epochs[n];
    s += n == 0 ? "\n" : ",\n";
    s += "    {\"epoch\": ";
    s += std::to_string(e.epoch);
    json::append_field(s, "mix", e.mix);
    json::append_field(s, "profile", e.traffic_profile);
    json::append_field(s, "pass", e.chaos.pass);
    json::append_field(s, "outcome", drain_outcome_name(e.chaos.outcome));
    json::append_field(s, "cycles", e.chaos.end_cycle);
    json::append_field(s, "delivered", e.chaos.delivered);
    json::append_field(s, "faults", e.chaos.faults_injected);
    json::append_field(s, "sweeps", e.chaos.invariant_sweeps);
    json::append_field(s, "checkpoints", e.chaos.checkpoints_captured);
    json::append_field(s, "degraded", e.chaos.degraded);
    s += ", \"digest\": ";
    json::append_hex64(s, e.chaos.digest);
    s += "}";
  }
  s += "\n  ]\n}\n";
  return s;
}

}  // namespace raw::router
