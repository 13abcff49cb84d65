// Endurance soak CLI (router/soak.h): billions of cycles as a deterministic
// sequence of epochs, each a fresh router under a rotating chaos mix and
// traffic profile with the invariant monitor armed, the checkpoint ring
// recording digest anchors, and the RSS flatness sentinel watching for
// leaks.
//
//   ./rawsoak                                  # 1e9 cycles, links+recovery
//   ./rawsoak --cycles 4000000000 --seed 7
//   ./rawsoak --time-box 540 --report soak.json      # CI nightly shape
//   ./rawsoak --inject-failure-at 6000000 --bundle-dir .   # self-test:
//       violation -> bundle -> replay must reproduce it
//
// The multi-chip fabric's fault mixes are swept by rawchaos --cluster.
//
// Exit status 0 only when the soak passes (for the self-test shape above:
// when the injected failure produced a bundle whose replay reproduces the
// failure cycle, every checkpoint anchor and the final digest); 2 on bad
// usage — a count flag that is not a whole number in range, a --time-box
// that is not a number >= 0 (tools/count_flag.h), or a configuration the
// router rejects.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "count_flag.h"
#include "router/soak.h"

namespace {

using raw::common::json::write_file;
using raw::tools::non_negative;
using raw::tools::positive;
using raw::tools::real_flag;
using raw::tools::unknown_flag;

void usage() {
  std::fprintf(
      stderr,
      "usage: rawsoak [--cycles N] [--epoch N] [--drain N] [--seed S]\n"
      "               [--no-links] [--no-recovery]\n"
      "               [--force-dense] [--cadence N] [--checkpoint-interval N]\n"
      "               [--ring K] [--time-box SECONDS]\n"
      "               [--inject-failure-at CYCLE]\n"
      "               [--report FILE] [--bundle-dir DIR] [--flight-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  raw::router::SoakSpec spec;
  const char* report_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return !std::strcmp(argv[i], name) && i + 1 < argc;
    };
    // Count flags, parsed into the field's own type (or usage + exit 2).
    const auto at_least_one = [&]<typename T>(T* field) {
      const char* flag = argv[i];
      *field = positive<T>(flag, argv[++i], usage);
    };
    const auto zero_or_more = [&]<typename T>(T* field) {
      const char* flag = argv[i];
      *field = non_negative<T>(flag, argv[++i], usage);
    };
    if (arg("--cycles")) {
      at_least_one(&spec.total_cycles);
    } else if (arg("--epoch")) {
      at_least_one(&spec.epoch_cycles);
    } else if (arg("--drain")) {
      zero_or_more(&spec.drain_cycles);
    } else if (arg("--seed")) {
      zero_or_more(&spec.seed);
    } else if (!std::strcmp(argv[i], "--no-links")) {
      spec.reliable_links = false;
    } else if (!std::strcmp(argv[i], "--no-recovery")) {
      spec.recovery = false;
    } else if (!std::strcmp(argv[i], "--force-dense")) {
      spec.force_dense = true;
    } else if (arg("--cadence")) {
      at_least_one(&spec.invariant_cadence);
    } else if (arg("--checkpoint-interval")) {
      at_least_one(&spec.checkpoint_interval);
    } else if (arg("--ring")) {
      at_least_one(&spec.checkpoint_ring);
    } else if (arg("--time-box")) {
      spec.time_box_seconds =
          real_flag("--time-box", argv[++i], 0.0, /*min_open=*/false,
                    std::numeric_limits<double>::infinity(), usage);
    } else if (arg("--inject-failure-at")) {
      zero_or_more(&spec.inject_invariant_failure_at);
    } else if (arg("--report")) {
      report_path = argv[++i];
    } else if (arg("--bundle-dir")) {
      spec.bundle_dir = argv[++i];
    } else if (arg("--flight-dir")) {
      spec.flight_dir = argv[++i];
    } else {
      unknown_flag(argv[i], usage);
    }
  }

  std::printf("rawsoak: %llu cycles in %llu-cycle epochs, seed %llu, "
              "links %s, recovery %s%s\n",
              static_cast<unsigned long long>(spec.total_cycles),
              static_cast<unsigned long long>(spec.epoch_cycles),
              static_cast<unsigned long long>(spec.seed),
              spec.reliable_links ? "on" : "off",
              spec.recovery ? "on" : "off",
              spec.time_box_seconds > 0 ? " (time-boxed)" : "");

  raw::router::SoakReport rep;
  try {
    rep = raw::router::run_soak(spec);
  } catch (const std::invalid_argument& e) {
    // A configuration validate() rejects (say, an invariant cadence below
    // the watchdog interval): a usage error, not a crash.
    std::fprintf(stderr, "rawsoak: %s\n", e.what());
    return 2;
  }

  for (const raw::router::SoakEpochResult& e : rep.epochs) {
    std::printf("  epoch %-4lld %-28s %-12s %-5s %-18s dlv %-8llu "
                "sweeps %-5llu ckpts %llu\n",
                static_cast<long long>(e.epoch), e.mix.c_str(),
                e.traffic_profile.c_str(), e.chaos.pass ? "PASS" : "FAIL",
                raw::router::drain_outcome_name(e.chaos.outcome),
                static_cast<unsigned long long>(e.chaos.delivered),
                static_cast<unsigned long long>(e.chaos.invariant_sweeps),
                static_cast<unsigned long long>(e.chaos.checkpoints_captured));
  }

  std::printf("soak: %s — %lld epochs, %llu cycles (%.1fs wall%s), "
              "%llu delivered, %llu faults, %llu sweeps, %llu checkpoints, "
              "rss %llu -> %llu (peak %llu, %s)\n",
              rep.pass ? "PASS" : "FAIL",
              static_cast<long long>(rep.epochs_run),
              static_cast<unsigned long long>(rep.cycles_run),
              rep.wall_seconds, rep.time_boxed ? ", time-boxed" : "",
              static_cast<unsigned long long>(rep.delivered),
              static_cast<unsigned long long>(rep.faults_injected),
              static_cast<unsigned long long>(rep.invariant_sweeps),
              static_cast<unsigned long long>(rep.checkpoints_captured),
              static_cast<unsigned long long>(rep.rss_first),
              static_cast<unsigned long long>(rep.rss_last),
              static_cast<unsigned long long>(rep.rss_peak),
              rep.mem_flat ? "flat" : "NOT FLAT");
  if (!rep.failure.empty()) std::printf("  -> %s\n", rep.failure.c_str());
  if (!rep.bundle_path.empty()) {
    std::printf("  bundle: %s\n", rep.bundle_path.c_str());
  }
  if (!rep.flight_path.empty()) {
    std::printf("  flight: %s\n", rep.flight_path.c_str());
  }
  if (rep.replay.attempted) {
    std::printf("  replay: %s%s\n", rep.replay.ok ? "MATCH" : "MISMATCH — ",
                rep.replay.detail.c_str());
  }

  if (report_path != nullptr && !write_file(report_path, rep.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", report_path);
    return 2;
  }

  // Self-test shape: an injected failure is *supposed* to fail the soak —
  // success means the bundle's replay reproduced it exactly.
  if (spec.inject_invariant_failure_at > 0) {
    const bool injected_ok =
        !rep.pass && rep.replay.attempted && rep.replay.ok;
    std::printf("injected-failure self-test: %s\n",
                injected_ok ? "PASS" : "FAIL");
    return injected_ok ? 0 : 1;
  }
  return rep.pass ? 0 : 1;
}
