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

// Memory-flatness slack: the recent-window mean RSS may exceed the first
// window's by this many bytes plus this fraction.
constexpr std::uint64_t kMemSlackBytes = 64ull << 20;
constexpr double kMemSlackFraction = 0.10;

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
        [&mem]() -> std::string {
          mem.sample(common::rss_bytes());
          if (mem.flat(kMemSlackBytes, kMemSlackFraction)) {
            return "";
          }
          return "rss not flat: " + mem.summary();
        },
        /*deterministic=*/false);
    cs.monitor = &monitor;

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
    rep.link_retransmits += r.link_retransmits;
    if (r.degraded) ++rep.recoveries;
    rep.dense_sweeps += prof.dense_sweeps();

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
      // to the same anchors, failure cycle and digest.
      if (!fr.invariant_failure.empty() && fr.invariant_deterministic) {
        rep.replay.attempted = true;
        (void)replay_repro(bundle, &rep.replay.detail);
        rep.replay.ok = rep.replay.detail.empty();
      }
      break;
    }
  }

  mem.sample(common::rss_bytes());
  rep.rss_first = mem.first();
  rep.rss_last = mem.last();
  rep.rss_peak = mem.peak();
  rep.mem_flat = mem.flat(kMemSlackBytes, kMemSlackFraction);
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
  json::append_field(s, "link_retransmits", link_retransmits);
  json::append_field(s, "recoveries", recoveries);
  json::append_field(s, "dense_sweeps", dense_sweeps);
  s += "},\n  \"memory\": {\"rss_first\": ";
  s += std::to_string(rss_first);
  json::append_field(s, "rss_last", rss_last);
  json::append_field(s, "rss_peak", rss_peak);
  json::append_field(s, "flat", mem_flat);
  s += "},\n  \"replay\": {\"attempted\": ";
  json::append_value(s, replay.attempted);
  json::append_field(s, "ok", replay.ok);
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
