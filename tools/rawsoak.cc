// Endurance soak CLI (router/soak.h): billions of cycles as a deterministic
// sequence of epochs, each a fresh router under a rotating chaos mix and
// traffic profile with the invariant monitor armed, checkpoint ring
// capturing replay anchors, and the RSS flatness sentinel watching for
// leaks.
//
//   ./rawsoak                                  # 1e9 cycles, links+recovery
//   ./rawsoak --cycles 4000000000 --seed 7
//   ./rawsoak --time-box 540 --report soak.json      # CI nightly shape
//   ./rawsoak --inject-failure-at 6000000 --bundle-dir .   # self-test:
//       violation -> bundle -> anchored replay must agree
//
// Cluster mode soaks the *multi-chip* fabric instead: each epoch is a fresh
// cluster under the next of the 8 standard inter-chip mixes (rotating), with
// reliable links + fail-over armed and every recovery invariant checked. A
// failing epoch writes a replayable repro bundle to --bundle-dir.
//
//   ./rawsoak --cluster --epochs 16 --chips 8 --threads 4
//   ./rawsoak --cluster --time-box 540 --bundle-dir bundles
//
// Exit status 0 only when the soak passes (for the self-test shape above:
// when the injected failure produced a bundle whose anchored replay and
// from-zero replay both reproduce the recorded digest trajectory).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "common/json.h"
#include "router/soak.h"

namespace {

using raw::common::json::write_file;

void usage() {
  std::fprintf(
      stderr,
      "usage: rawsoak [--cycles N] [--epoch N] [--drain N] [--seed S]\n"
      "               [--no-links] [--no-recovery]\n"
      "               [--force-dense] [--cadence N] [--checkpoint-interval N]\n"
      "               [--ring K] [--grace N] [--time-box SECONDS]\n"
      "               [--inject-failure-at CYCLE] [--no-verify-replay]\n"
      "               [--report FILE] [--bundle-dir DIR] [--flight-dir DIR]\n"
      "               [--checkpoint-dir DIR]\n"
      "       rawsoak --cluster [--epochs N] [--chips N] [--seed S]\n"
      "               [--threads T] [--epoch CYCLES] [--time-box SECONDS]\n"
      "               [--bundle-dir DIR]\n");
}

/// Cluster soak: rotate the standard inter-chip mixes across epochs, each
/// epoch a fresh fabric with recovery armed. Stops early on a failed epoch
/// (after writing its bundle) or when the time box expires.
int run_cluster_soak(int epochs, int chips, std::uint64_t seed, int threads,
                     raw::common::Cycle epoch_cycles, double time_box_seconds,
                     const char* bundle_dir) {
  const std::vector<raw::cluster::ClusterChaosMix> mixes =
      raw::cluster::standard_cluster_mixes();
  std::printf("rawsoak --cluster: %d epochs, %d chips, seed %llu, "
              "%llu cycles/epoch%s\n",
              epochs, chips, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(epoch_cycles),
              time_box_seconds > 0 ? " (time-boxed)" : "");
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t delivered = 0;
  std::uint64_t faults = 0;
  std::uint64_t retransmits = 0;
  int degraded_epochs = 0;
  int run = 0;
  bool pass = true;
  for (int e = 0; e < epochs; ++e) {
    raw::cluster::ClusterChaosSpec spec;
    spec.seed = seed + static_cast<std::uint64_t>(e);
    spec.mix = mixes[static_cast<std::size_t>(e) % mixes.size()];
    spec.num_chips = chips;
    spec.run_cycles = epoch_cycles;
    spec.threads = threads;
    spec.reliable_links = true;
    spec.failover = true;
    const std::vector<raw::cluster::ClusterFaultEvent> events =
        raw::cluster::make_cluster_fault_events(spec);
    const raw::cluster::ClusterChaosResult r =
        raw::cluster::run_cluster_chaos_events(spec, events);
    ++run;
    delivered += r.delivered;
    faults += r.faults_injected;
    retransmits += r.retransmits;
    if (r.degraded) ++degraded_epochs;
    std::printf("  epoch %-4d %-28s %-5s %-10s dlv %-8llu faults %-3llu "
                "rexmit %llu\n",
                e, r.mix.empty() ? "clean" : r.mix.c_str(),
                r.pass ? "PASS" : "FAIL",
                r.degraded ? "DEGRADED" : "healthy",
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.retransmits));
    if (!r.pass) {
      std::printf("    -> %s\n", r.failure.c_str());
      pass = false;
      if (bundle_dir != nullptr) {
        const std::string path = std::string(bundle_dir) + "/cluster_epoch" +
                                 std::to_string(e) + ".repro.json";
        if (write_file(path, raw::cluster::to_json(raw::cluster::make_repro(
                                 spec, events, r)))) {
          std::printf("    bundle: %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
        }
      }
      break;
    }
    if (time_box_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= time_box_seconds) {
        std::printf("  time box expired after epoch %d\n", e);
        break;
      }
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("cluster soak: %s — %d epochs (%.1fs wall), %llu delivered, "
              "%llu faults, %llu retransmits, %d degraded epochs\n",
              pass ? "PASS" : "FAIL", run, wall,
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(retransmits), degraded_epochs);
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  raw::router::SoakSpec spec;
  const char* report_path = nullptr;
  bool cluster = false;
  int cluster_epochs = 8;
  int cluster_chips = 4;
  int cluster_threads = 0;  // thread-per-chip workers (0: RAWSIM_THREADS)
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return !std::strcmp(argv[i], name) && i + 1 < argc;
    };
    if (arg("--cycles")) {
      spec.total_cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--epoch")) {
      spec.epoch_cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--drain")) {
      spec.drain_cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--seed")) {
      spec.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--threads")) {
      cluster_threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--no-links")) {
      spec.reliable_links = false;
    } else if (!std::strcmp(argv[i], "--no-recovery")) {
      spec.recovery = false;
    } else if (!std::strcmp(argv[i], "--force-dense")) {
      spec.force_dense = true;
    } else if (arg("--cadence")) {
      spec.invariant_cadence = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--checkpoint-interval")) {
      spec.checkpoint_interval = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--ring")) {
      spec.checkpoint_ring = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--grace")) {
      spec.checkpoint_grace = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--time-box")) {
      spec.time_box_seconds = std::atof(argv[++i]);
    } else if (arg("--inject-failure-at")) {
      spec.inject_invariant_failure_at = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--no-verify-replay")) {
      spec.verify_failure_replay = false;
    } else if (arg("--report")) {
      report_path = argv[++i];
    } else if (arg("--bundle-dir")) {
      spec.bundle_dir = argv[++i];
    } else if (arg("--flight-dir")) {
      spec.flight_dir = argv[++i];
    } else if (arg("--checkpoint-dir")) {
      spec.checkpoint_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--cluster")) {
      cluster = true;
    } else if (arg("--epochs")) {
      cluster_epochs = std::atoi(argv[++i]);
    } else if (arg("--chips")) {
      cluster_chips = std::atoi(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }

  if (cluster_threads != 0 && !cluster) {
    std::fprintf(stderr, "--threads needs --cluster (a chip steps serially)\n");
    return 2;
  }
  if (cluster) {
    // The router soak's epoch default (millions of cycles) is too long for
    // a per-epoch fresh cluster; use a cluster-sized default unless --epoch
    // was given explicitly.
    const raw::common::Cycle cluster_epoch_cycles =
        spec.epoch_cycles == raw::router::SoakSpec{}.epoch_cycles
            ? 20000
            : spec.epoch_cycles;
    return run_cluster_soak(cluster_epochs, cluster_chips, spec.seed,
                            cluster_threads, cluster_epoch_cycles,
                            spec.time_box_seconds,
                            spec.bundle_dir.empty() ? nullptr
                                                    : spec.bundle_dir.c_str());
  }

  std::printf("rawsoak: %llu cycles in %llu-cycle epochs, seed %llu, "
              "links %s, recovery %s%s\n",
              static_cast<unsigned long long>(spec.total_cycles),
              static_cast<unsigned long long>(spec.epoch_cycles),
              static_cast<unsigned long long>(spec.seed),
              spec.reliable_links ? "on" : "off",
              spec.recovery ? "on" : "off",
              spec.time_box_seconds > 0 ? " (time-boxed)" : "");

  const raw::router::SoakReport rep = raw::router::run_soak(spec);

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
    std::printf("  anchored replay: %s (anchor @%llu, digest %016llx, "
                "from-zero %016llx)%s%s\n",
                rep.replay.ok ? "MATCH" : "MISMATCH",
                static_cast<unsigned long long>(rep.replay.anchor_cycle),
                static_cast<unsigned long long>(rep.replay.anchored_digest),
                static_cast<unsigned long long>(rep.replay.from_zero_digest),
                rep.replay.ok ? "" : " — ",
                rep.replay.ok ? "" : rep.replay.detail.c_str());
  }

  if (report_path != nullptr && !write_file(report_path, rep.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", report_path);
    return 2;
  }

  // Self-test shape: an injected failure is *supposed* to fail the soak —
  // success means the bundle's anchored replay reproduced it exactly.
  if (spec.inject_invariant_failure_at > 0) {
    const bool injected_ok =
        !rep.pass && rep.replay.attempted && rep.replay.ok;
    std::printf("injected-failure self-test: %s\n",
                injected_ok ? "PASS" : "FAIL");
    return injected_ok ? 0 : 1;
  }
  return rep.pass ? 0 : 1;
}
