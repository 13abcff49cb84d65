// Chaos soak: sweep seeds x the standard fault mixes through the full
// router and verify the self-protection invariants on every combination
// (see router/chaos.h). The default sweep is 16 seeds x 13 mixes = 208
// combinations; the tier2 ctest runs a bounded version.
//
//   ./chaos_soak [--seeds N] [--cycles N]
//                [--links] [--recovery] [--invariants]
//                [--repro-dir DIR] [--flight-dir DIR]
//   ./chaos_soak --cluster [--seeds N] [--cycles N] [--chips N]
//                [--threads T] [--repro-dir DIR]
//
// --cluster sweeps the *inter-chip* fault mixes (cluster/chaos.h) instead:
// seeds x 8 mixes against a multi-chip fabric with reliable trunks and
// fail-over armed, every recovery invariant checked; --threads sets its
// thread-per-chip worker count.
//
// --links/--recovery run the whole sweep with the self-healing layers on
// (reliable links + fault-adaptive reconfiguration). With --invariants,
// every combination arms the endurance invariant monitor
// (sim/invariants.h) at a cadence of cycles/8, so the ledger/credit-book
// identities are swept *during* each run, not just at drain exit; the
// rollup gains sweep and checkpoint columns. With --repro-dir, the
// first failing combination (chip or cluster) is delta-debugged down to a
// minimal fault schedule and written there as a replayable JSON repro
// (rawchaos --replay).
// With --flight-dir, every combination runs with the engine flight recorder
// armed (common/profiler.h) and any run that fails an invariant or exits
// without a clean drain dumps its recent engine history there as
// <mix>_seed<S>.flight.jsonl. DIR must exist.
//
// Exit status 0 only when every combination passes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "common/json.h"
#include "common/profiler.h"
#include "router/chaos.h"
#include "router/repro.h"

namespace {

using raw::common::json::write_file;

struct Args {
  int seeds = 16;
  raw::common::Cycle cycles = 40000;
  int threads = 0;  // cluster thread-per-chip workers (0: RAWSIM_THREADS)
  bool links = false;
  bool recovery = false;
  bool invariants = false;
  bool cluster = false;
  int chips = 4;
  const char* repro_dir = nullptr;
  const char* flight_dir = nullptr;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc) {
      a.seeds = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      a.cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      a.threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--links")) {
      a.links = true;
    } else if (!std::strcmp(argv[i], "--recovery")) {
      a.recovery = true;
    } else if (!std::strcmp(argv[i], "--invariants")) {
      a.invariants = true;
    } else if (!std::strcmp(argv[i], "--cluster")) {
      a.cluster = true;
    } else if (!std::strcmp(argv[i], "--chips") && i + 1 < argc) {
      a.chips = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--repro-dir") && i + 1 < argc) {
      a.repro_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--flight-dir") && i + 1 < argc) {
      a.flight_dir = argv[++i];
    }
  }
  if (a.threads != 0 && !a.cluster) {
    std::fprintf(stderr, "--threads needs --cluster (a chip steps serially)\n");
    std::exit(2);
  }
  return a;
}

/// Rebuilds the spec a sweep combination ran under (sweep semantics).
raw::router::ChaosSpec spec_for(const Args& args,
                                const raw::router::ChaosResult& r) {
  raw::router::ChaosSpec spec;
  spec.seed = r.seed;
  (void)raw::router::parse_mix(r.mix, &spec.mix);
  spec.run_cycles = args.cycles;
  spec.reliable_links = args.links;
  spec.recovery = args.recovery;
  return spec;
}

/// Writes a minimized bundle as `dir/<name>.min.json`. Returns false on I/O
/// failure.
bool write_minimized(const char* dir, const std::string& name,
                     const std::string& json,
                     const raw::router::MinimizeStats& stats) {
  const std::string path = std::string(dir) + "/" + name + ".min.json";
  if (!write_file(path, json)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("minimized %zu -> %zu events (%d runs); wrote %s\n",
              stats.original_events, stats.minimized_events, stats.runs,
              path.c_str());
  return true;
}

/// Minimizes the first failing combination's fault schedule and writes it as
/// a replayable repro JSON under `dir`. Returns false on I/O failure.
bool write_minimized_repro(const Args& args, const raw::router::ChaosResult& r,
                           const char* dir) {
  // The sweep derived its schedule from the seed; rebuild the same events
  // explicitly so the minimizer (and the written repro) can replay them.
  const raw::router::ChaosSpec spec = spec_for(args, r);
  raw::router::MinimizeStats stats;
  const raw::router::ChaosRepro repro = raw::router::minimize_repro(
      raw::router::make_repro(spec, raw::router::make_fault_events(spec), r),
      &stats);
  return write_minimized(dir, r.mix + "_seed" + std::to_string(r.seed),
                         raw::router::to_json(repro), stats);
}

/// Sweeps standard_mixes() x seeds (mix-major), optionally with a
/// per-combination flight recorder and/or the endurance invariant monitor
/// riding along: under --flight-dir any combination that fails an invariant
/// or exits without a clean drain dumps its recent engine history there.
std::vector<raw::router::ChaosResult> sweep(const Args& args) {
  const char* dir = args.flight_dir;
  std::vector<raw::router::ChaosResult> results;
  for (const raw::router::ChaosMix& mix : raw::router::standard_mixes()) {
    for (int s = 1; s <= args.seeds; ++s) {
      raw::router::ChaosSpec spec;
      spec.seed = static_cast<std::uint64_t>(s);
      spec.mix = mix;
      spec.run_cycles = args.cycles;
      spec.reliable_links = args.links;
      spec.recovery = args.recovery;
      if (args.invariants) {
        spec.endurance.enabled = true;
        // Cadence floor: validate() rejects a cadence below the watchdog
        // check interval.
        spec.endurance.invariant_cadence =
            std::max<raw::common::Cycle>(2048, args.cycles / 8);
        spec.endurance.checkpoint_interval =
            std::max<raw::common::Cycle>(1, args.cycles / 2);
        spec.endurance.checkpoint_ring = 2;
      }

      raw::common::Profiler profiler;
      if (dir != nullptr) {
        profiler.enable_flight(
            /*capacity=*/64,
            /*interval=*/std::max<raw::common::Cycle>(1, args.cycles / 64));
        spec.profiler = &profiler;
      }

      raw::router::ChaosResult r = raw::router::run_chaos(spec);
      if (dir != nullptr &&
          (!r.pass || r.outcome != raw::router::DrainOutcome::kDrained)) {
        const std::string path = std::string(dir) + "/" + r.mix + "_seed" +
                                 std::to_string(r.seed) + ".flight.jsonl";
        if (!write_file(path, profiler.flight_jsonl())) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
        } else {
          std::printf("flight: %-28s seed %-4llu %llu snapshots (of %llu recorded) -> %s\n",
                      r.mix.c_str(), static_cast<unsigned long long>(r.seed),
                      static_cast<unsigned long long>(profiler.flight().size()),
                      static_cast<unsigned long long>(profiler.flight_recorded()),
                      path.c_str());
        }
      }
      results.push_back(std::move(r));
    }
  }
  return results;
}

/// The cluster twin of write_minimized_repro: rebuilds the spec
/// cluster_chaos_sweep ran `r` under, minimizes its schedule and writes it.
bool write_minimized_cluster_repro(const Args& args,
                                   const raw::cluster::ClusterChaosResult& r,
                                   const char* dir) {
  raw::cluster::ClusterChaosSpec spec;
  spec.seed = r.seed;
  (void)raw::cluster::parse_cluster_mix(r.mix, &spec.mix);
  spec.num_chips = args.chips;
  spec.run_cycles = args.cycles;
  spec.threads = args.threads;
  spec.reliable_links = true;
  spec.failover = true;
  const std::vector<raw::cluster::ClusterFaultEvent> events =
      raw::cluster::make_cluster_fault_events(spec);
  raw::router::MinimizeStats stats;
  const raw::cluster::ClusterChaosRepro repro = raw::cluster::minimize_repro(
      raw::cluster::make_repro(spec, events, r), &stats);
  return write_minimized(dir,
                         "cluster_" + r.mix + "_seed" + std::to_string(r.seed),
                         raw::cluster::to_json(repro), stats);
}

/// Cluster sweep: seeds x the 8 standard inter-chip mixes with reliable
/// trunks + fail-over armed (cluster_chaos_sweep). The first failing
/// combination is minimized and written to --repro-dir, as the chip sweep
/// does.
int run_cluster_sweep(const Args& args) {
  std::printf("cluster chaos soak: %d seeds x %zu mixes, %d chips, "
              "%llu cycles per run\n\n",
              args.seeds, raw::cluster::standard_cluster_mixes().size(),
              args.chips, static_cast<unsigned long long>(args.cycles));
  const raw::cluster::ClusterChaosSweepSummary summary =
      raw::cluster::cluster_chaos_sweep(args.seeds, args.cycles, args.chips,
                                        args.threads);

  struct MixAgg {
    int runs = 0, passed = 0, degraded = 0;
    std::uint64_t delivered = 0, errors = 0, lost = 0, retransmits = 0,
                  written_off = 0, abandoned = 0;
  };
  std::map<std::string, MixAgg> by_mix;
  bool repro_written = false;
  for (const raw::cluster::ClusterChaosResult& r : summary.results) {
    MixAgg& agg = by_mix[r.mix];
    ++agg.runs;
    if (r.pass) ++agg.passed;
    if (r.degraded) ++agg.degraded;
    agg.delivered += r.delivered;
    agg.errors += r.errors;
    agg.lost += r.lost;
    agg.retransmits += r.retransmits;
    agg.written_off += r.written_off_words;
    agg.abandoned += r.abandoned_packets;
    if (!r.pass) {
      std::printf("FAIL %s seed %llu: %s\n", r.mix.c_str(),
                  static_cast<unsigned long long>(r.seed), r.failure.c_str());
      if (args.repro_dir != nullptr && !repro_written) {
        repro_written = write_minimized_cluster_repro(args, r, args.repro_dir);
      }
    }
  }

  std::printf("%-28s %9s %10s %6s %6s %7s %7s %7s %5s\n", "mix", "pass",
              "delivered", "errors", "lost", "retrans", "wroff", "aband",
              "degr");
  for (const auto& [mix, agg] : by_mix) {
    std::printf("%-28s %4d/%-4d %10llu %6llu %6llu %7llu %7llu %7llu %5d\n",
                mix.c_str(), agg.passed, agg.runs,
                static_cast<unsigned long long>(agg.delivered),
                static_cast<unsigned long long>(agg.errors),
                static_cast<unsigned long long>(agg.lost),
                static_cast<unsigned long long>(agg.retransmits),
                static_cast<unsigned long long>(agg.written_off),
                static_cast<unsigned long long>(agg.abandoned), agg.degraded);
  }
  std::printf("\n%d/%d combinations passed\n", summary.passed, summary.total);
  return summary.all_passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.cluster) return run_cluster_sweep(args);
  std::printf("chaos soak: %d seeds x %zu mixes, %llu cycles per run%s%s%s\n\n",
              args.seeds, raw::router::standard_mixes().size(),
              static_cast<unsigned long long>(args.cycles),
              args.links ? ", reliable links" : "",
              args.recovery ? ", fault-adaptive recovery" : "",
              args.invariants ? ", invariant monitor" : "");

  const std::vector<raw::router::ChaosResult> results = sweep(args);

  // Per-mix rollup.
  struct MixAgg {
    int runs = 0, passed = 0, degraded = 0;
    std::uint64_t delivered = 0, errors = 0, lost = 0, malformed = 0,
                  resyncs = 0, trips = 0, retransmits = 0, sweeps = 0,
                  ckpts = 0;
  };
  std::map<std::string, MixAgg> by_mix;
  int passed = 0;
  for (const raw::router::ChaosResult& r : results) {
    MixAgg& agg = by_mix[r.mix];
    ++agg.runs;
    if (r.pass) {
      ++agg.passed;
      ++passed;
    }
    if (r.degraded) ++agg.degraded;
    agg.delivered += r.delivered;
    agg.errors += r.errors;
    agg.lost += r.lost;
    agg.malformed += r.malformed;
    agg.resyncs += r.resyncs;
    agg.trips += r.watchdog_trips;
    agg.retransmits += r.link_retransmits;
    agg.sweeps += r.invariant_sweeps;
    agg.ckpts += r.checkpoints_captured;
  }
  std::printf("%-28s %9s %10s %6s %5s %5s %6s %6s %6s %7s", "mix", "pass",
              "delivered", "errors", "lost", "malf", "resync", "trips", "degr",
              "retrans");
  if (args.invariants) std::printf(" %6s %5s", "sweeps", "ckpts");
  std::printf("\n");
  for (const auto& [mix, agg] : by_mix) {
    std::printf("%-28s %4d/%-4d %10llu %6llu %5llu %5llu %6llu %6llu %6d %7llu",
                mix.c_str(), agg.passed, agg.runs,
                static_cast<unsigned long long>(agg.delivered),
                static_cast<unsigned long long>(agg.errors),
                static_cast<unsigned long long>(agg.lost),
                static_cast<unsigned long long>(agg.malformed),
                static_cast<unsigned long long>(agg.resyncs),
                static_cast<unsigned long long>(agg.trips), agg.degraded,
                static_cast<unsigned long long>(agg.retransmits));
    if (args.invariants) {
      std::printf(" %6llu %5llu", static_cast<unsigned long long>(agg.sweeps),
                  static_cast<unsigned long long>(agg.ckpts));
    }
    std::printf("\n");
  }

  bool repro_written = false;
  for (const raw::router::ChaosResult& r : results) {
    if (!r.pass) {
      std::printf("\nFAIL %s seed %llu: %s\n", r.mix.c_str(),
                  static_cast<unsigned long long>(r.seed), r.failure.c_str());
      if (!r.stall_summary.empty()) std::printf("%s\n", r.stall_summary.c_str());
      if (args.repro_dir != nullptr && !repro_written) {
        repro_written = write_minimized_repro(args, r, args.repro_dir);
      }
    }
  }

  const int total = static_cast<int>(results.size());
  std::printf("\n%d/%d combinations passed\n", passed, total);
  return passed == total ? 0 : 1;
}
