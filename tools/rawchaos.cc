// Chaos harness CLI: run the router under seeded fault mixes and check the
// self-protection invariants (packet conservation, no silent hang, no
// unexplained damage — see router/chaos.h).
//
//   ./rawchaos                          # standard mixes x 4 seeds
//   ./rawchaos --seeds 16 --cycles 40000      # the full 16 x 13 sweep
//   ./rawchaos --mix flip+stall --seed 7 -v   # one combination, verbose
//   ./rawchaos --mix permafreeze --seed 3     # permanent-freeze detection
//   ./rawchaos --links --recovery             # self-healing fabric enabled
//
// Deterministic replay workflow (router/repro.h, cluster/chaos.h):
//
//   ./rawchaos --mix flip+permafreeze --seed 7 --record bug.json
//   ./rawchaos --replay bug.json              # re-runs, checks sig + digest
//   ./rawchaos --minimize bug.json --out min.json   # ddmin the schedule
//
// A soak failure bundle (rawsoak --bundle-dir) replays the same way:
// --replay also checks the failure cycle and every checkpoint anchor.
//
// --replay and --minimize read either kind of bundle (chip or cluster; the
// document's own marker says which), so they need no --cluster.
//
// Cluster mode (cluster/chaos.h) injects *inter-chip* faults — trunk word
// corruption, link flaps, permanent trunk cuts, whole-chip freezes — into a
// multi-chip fabric with reliable links and fail-over always armed (so
// --links/--recovery are chip-only):
//
//   ./rawchaos --cluster                      # 8 cluster mixes x 4 seeds
//   ./rawchaos --cluster --chips 8 --mix corrupt+cut --seed 3 --threads 4
//   ./rawchaos --cluster --mix freeze --seed 5 --record bug.json
//   ./rawchaos --replay bug.json              # digest/status must reproduce
//   ./rawchaos --minimize bug.json            # ddmin the cluster schedule
//
// In sweep mode --record captures the first *failing* combination; with a
// single --mix/--seed combination it always records. Sweeping, recording
// the first failure and shrinking it to a minimal schedule is therefore:
//
//   ./rawchaos --seeds 8 --links --recovery --record repro/first.json
//   ./rawchaos --minimize repro/first.json
//
// With --flight-dir DIR every combination runs with the engine flight
// recorder armed (common/profiler.h): any run that fails an invariant or
// exits without a clean drain writes its recent performance history to
// DIR/<mix>_seed<S>.flight.jsonl, so a wedged or lossy run carries its own
// "what was the engine doing" evidence. DIR must exist.
//
// Exit status is 0 only when every combination passes (or the replay /
// minimize reproduced the recorded signature); 2 on bad usage — a count
// flag that is not a whole number in range (tools/count_flag.h), a
// configuration the harness rejects, or a bundle whose fault event targets
// something the chip or fabric does not have.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "cluster/chaos.h"
#include "common/json.h"
#include "common/profiler.h"
#include "count_flag.h"
#include "router/chaos.h"
#include "router/repro.h"

namespace {

using raw::cluster::ClusterChaosMix;
using raw::cluster::ClusterChaosRepro;
using raw::cluster::ClusterChaosResult;
using raw::cluster::ClusterChaosSpec;
using raw::common::json::write_file;
using raw::router::ChaosMix;
using raw::router::ChaosRepro;
using raw::router::ChaosResult;
using raw::router::ChaosSpec;
using raw::tools::non_negative;
using raw::tools::positive;
using raw::tools::unknown_flag;

struct Args {
  int seeds = 4;
  raw::common::Cycle cycles = 40000;
  std::uint64_t seed = 0;    // nonzero: run a single seed
  const char* mix = nullptr; // run a single mix, e.g. "flip+stall"
  bool verbose = false;
  int threads = 0;  // cluster thread-per-chip workers (0: RAWSIM_THREADS)
  bool links = false;        // reliable links: CRC + NACK/retransmit
  bool recovery = false;     // fault-adaptive crossbar reconfiguration
  bool force_dense = false;  // dense reference engine (differential runs)
  bool cluster = false;      // inter-chip chaos on a multi-chip fabric
  int chips = 4;             // cluster mode: fabric size
  const char* record = nullptr;    // write a replayable repro JSON here
  const char* replay = nullptr;    // re-run a recorded repro
  const char* minimize = nullptr;  // ddmin a recorded repro
  const char* out = nullptr;       // minimized-repro output path
  const char* flight_dir = nullptr;  // flight-recorder dumps for bad exits
};

void usage() {
  std::fprintf(stderr,
               "usage: rawchaos [--seeds N] [--cycles N] [--seed S]\n"
               "                [--mix flip+stall+freeze+overrun+permafreeze]\n"
               "                [--links] [--recovery] [--force-dense] [-v]\n"
               "                [--record FILE] [--flight-dir DIR]\n"
               "       rawchaos --cluster [--chips N] [--seeds N] [--seed S]\n"
               "                [--mix corrupt+stall+cut+freeze] [--cycles N]\n"
               "                [--threads T] [--record FILE]\n"
               "       rawchaos --replay FILE          (chip or cluster bundle)\n"
               "       rawchaos --minimize FILE [--out FILE]\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc) {
      a.seeds = positive<int>("--seeds", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      a.cycles = positive<raw::common::Cycle>("--cycles", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      a.seed = positive<std::uint64_t>("--seed", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--mix") && i + 1 < argc) {
      a.mix = argv[++i];
    } else if (!std::strcmp(argv[i], "--links")) {
      a.links = true;
    } else if (!std::strcmp(argv[i], "--recovery")) {
      a.recovery = true;
    } else if (!std::strcmp(argv[i], "--force-dense")) {
      a.force_dense = true;
    } else if (!std::strcmp(argv[i], "--cluster")) {
      a.cluster = true;
    } else if (!std::strcmp(argv[i], "--chips") && i + 1 < argc) {
      a.chips = positive<int>("--chips", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      a.threads = non_negative<int>("--threads", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--record") && i + 1 < argc) {
      a.record = argv[++i];
    } else if (!std::strcmp(argv[i], "--replay") && i + 1 < argc) {
      a.replay = argv[++i];
    } else if (!std::strcmp(argv[i], "--minimize") && i + 1 < argc) {
      a.minimize = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      a.out = argv[++i];
    } else if (!std::strcmp(argv[i], "--flight-dir") && i + 1 < argc) {
      a.flight_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "-v") || !std::strcmp(argv[i], "--verbose")) {
      a.verbose = true;
    } else {
      unknown_flag(argv[i], usage);
    }
  }
  if (a.threads != 0 && !a.cluster) {
    std::fprintf(stderr, "--threads needs --cluster (a chip steps serially)\n");
    std::exit(2);
  }
  if (a.cluster && (a.links || a.recovery || a.force_dense ||
                    a.flight_dir != nullptr)) {
    std::fprintf(stderr, "--links, --recovery, --force-dense and --flight-dir "
                         "are chip-only (cluster runs always arm reliable "
                         "links and fail-over)\n");
    std::exit(2);
  }
  return a;
}

raw::cluster::Repro load_repro_or_die(const char* path) {
  raw::cluster::Repro repro;
  std::string error;
  if (!raw::cluster::load_repro(path, &repro, &error)) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    std::exit(2);
  }
  return repro;
}

/// True when a combination's exit deserves its flight history on disk: an
/// invariant failure, or any ending other than a clean full drain (losses,
/// stalls, timeouts, and degraded fabrics all count).
bool flight_worthy(const ChaosResult& r) {
  return !r.pass || r.outcome != raw::router::DrainOutcome::kDrained;
}

bool dump_flight(const char* dir, const ChaosResult& r,
                 const raw::common::Profiler& prof) {
  const std::string path = std::string(dir) + "/" + r.mix + "_seed" +
                           std::to_string(r.seed) + ".flight.jsonl";
  if (!write_file(path.c_str(), prof.flight_jsonl())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("  flight: %llu snapshots (of %llu recorded) -> %s\n",
              static_cast<unsigned long long>(prof.flight().size()),
              static_cast<unsigned long long>(prof.flight_recorded()),
              path.c_str());
  return true;
}

void print_result(const ChaosResult& r, bool verbose) {
  std::printf("%-28s seed %-4llu %-5s %-14s dlv %-7llu err %-4llu lost %-4llu "
              "mal %-3llu rsync %-3llu faults %llu\n",
              r.mix.c_str(), static_cast<unsigned long long>(r.seed),
              r.pass ? "PASS" : "FAIL",
              raw::router::drain_outcome_name(r.outcome),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.malformed),
              static_cast<unsigned long long>(r.resyncs),
              static_cast<unsigned long long>(r.faults_injected));
  if (!r.pass) std::printf("  -> %s\n", r.failure.c_str());
  if (r.degraded || r.link_retransmits > 0 || r.link_delivered_corrupt > 0) {
    std::printf("  recovery: %s (schedule gen %d), link retransmits %llu, "
                "delivered corrupt %llu\n",
                r.degraded ? "DEGRADED" : "full fabric", r.schedule_generation,
                static_cast<unsigned long long>(r.link_retransmits),
                static_cast<unsigned long long>(r.link_delivered_corrupt));
  }
  if (verbose && !r.stall_summary.empty()) {
    std::printf("  %s\n", r.stall_summary.c_str());
  }
}

void print_cluster_result(const ClusterChaosResult& r) {
  std::printf("%-28s seed %-4llu %-5s %-10s dlv %-7llu err %-4llu lost %-4llu "
              "faults %llu\n",
              r.mix.empty() ? "clean" : r.mix.c_str(),
              static_cast<unsigned long long>(r.seed),
              r.pass ? "PASS" : "FAIL", r.degraded ? "DEGRADED" : "healthy",
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.faults_injected));
  if (!r.pass) std::printf("  -> %s\n", r.failure.c_str());
  if (r.retransmits > 0 || r.failover_generation > 0) {
    std::printf("  recovery: %llu retransmits, reroute gen %d, "
                "%llu words written off, %llu packets abandoned, "
                "%llu hosts unreachable\n",
                static_cast<unsigned long long>(r.retransmits),
                r.failover_generation,
                static_cast<unsigned long long>(r.written_off_words),
                static_cast<unsigned long long>(r.abandoned_packets),
                static_cast<unsigned long long>(r.unreachable_hosts));
  }
}

int do_replay(const Args& args) {
  const raw::cluster::Repro bundle = load_repro_or_die(args.replay);
  if (const auto* cluster = std::get_if<ClusterChaosRepro>(&bundle)) {
    std::printf("replaying %zu cluster events: recorded digest %016llx, %s\n",
                cluster->events.size(),
                static_cast<unsigned long long>(cluster->digest),
                cluster->degraded ? "degraded" : "healthy");
    std::string why;
    const ClusterChaosResult r =
        raw::cluster::replay_cluster_repro(*cluster, &why);
    print_cluster_result(r);
    std::printf("digest: %016llx (%s)\n",
                static_cast<unsigned long long>(r.digest),
                why.empty() ? "match" : why.c_str());
    return why.empty() ? 0 : 1;
  }
  const ChaosRepro& repro = std::get<ChaosRepro>(bundle);
  std::printf("replaying %zu events: recorded %s, digest %016llx, "
              "%zu anchors\n",
              repro.events.size(), repro.signature.to_string().c_str(),
              static_cast<unsigned long long>(repro.digest),
              repro.anchors.size());
  std::string why;
  const ChaosResult r = raw::router::replay_repro(repro, &why);
  print_result(r, args.verbose);
  std::printf("signature: %s\n",
              raw::router::signature_of(r).to_string().c_str());
  std::printf("digest:    %016llx\n", static_cast<unsigned long long>(r.digest));
  std::printf("replay:    %s%s\n", why.empty() ? "match" : "MISMATCH: ",
              why.c_str());
  return why.empty() ? 0 : 1;
}

int do_minimize(const Args& args) {
  const raw::cluster::Repro bundle = load_repro_or_die(args.minimize);
  raw::router::MinimizeStats stats;
  std::string json;
  bool reproduced = false;
  if (const auto* cluster = std::get_if<ClusterChaosRepro>(&bundle)) {
    std::printf("minimizing %zu cluster events against: %s%s\n",
                cluster->events.size(),
                cluster->pass ? "pass" : cluster->failure.c_str(),
                cluster->degraded ? ", degraded" : "");
    const ClusterChaosRepro out = raw::cluster::minimize_repro(*cluster, &stats);
    reproduced = raw::cluster::same_outcome(out, *cluster);
    json = raw::cluster::to_json(out);
  } else {
    const ChaosRepro& repro = std::get<ChaosRepro>(bundle);
    std::printf("minimizing %zu events against: %s\n", repro.events.size(),
                repro.signature.to_string().c_str());
    const ChaosRepro out = raw::router::minimize_repro(repro, &stats);
    reproduced = out.signature == repro.signature;
    json = raw::router::to_json(out);
  }

  const std::string out_path = args.out != nullptr
                                   ? std::string(args.out)
                                   : std::string(args.minimize) + ".min.json";
  if (!write_file(out_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("%zu -> %zu events in %d runs; wrote %s\n", stats.original_events,
              stats.minimized_events, stats.runs, out_path.c_str());
  if (!reproduced) {
    std::printf("WARNING: minimal schedule no longer reproduces the recorded "
                "outcome\n");
    return 1;
  }
  return 0;
}

/// One combination's verdict and, when recording, its bundle.
struct Combination {
  bool pass = false;
  std::size_t events = 0;
  std::string label;   // how the record line names the bundle
  std::string bundle;  // JSON, built only under --record
};

/// The sweep both targets share: every mix x seed, mix-major. --record
/// writes the first failing combination's bundle (with a single --mix/--seed
/// combination it always records).
template <typename Mix, typename Run>
int sweep(const Args& args, const std::vector<Mix>& mixes, Run&& run) {
  std::vector<std::uint64_t> seeds;
  if (args.seed != 0) {
    seeds.push_back(args.seed);
  } else {
    for (int s = 1; s <= args.seeds; ++s) {
      seeds.push_back(static_cast<std::uint64_t>(s));
    }
  }
  const bool single = mixes.size() == 1 && seeds.size() == 1;

  int total = 0;
  int passed = 0;
  bool recorded = false;
  for (const Mix& mix : mixes) {
    for (const std::uint64_t seed : seeds) {
      const Combination c = run(mix, seed);
      ++total;
      if (c.pass) ++passed;
      if (args.record != nullptr && !recorded && (single || !c.pass)) {
        if (!write_file(args.record, c.bundle)) {
          std::fprintf(stderr, "cannot write %s\n", args.record);
          return 2;
        }
        std::printf("  recorded %zu-event %s to %s\n", c.events,
                    c.label.c_str(), args.record);
        recorded = true;
      }
    }
  }
  std::printf("\n%d/%d %scombinations passed\n", passed, total,
              args.cluster ? "cluster " : "");
  return passed == total ? 0 : 1;
}

int run_cluster(const Args& args) {
  std::vector<ClusterChaosMix> mixes;
  if (args.mix != nullptr) {
    ClusterChaosMix m;
    if (!raw::cluster::parse_cluster_mix(args.mix, &m)) {
      std::fprintf(stderr, "unknown cluster fault mix '%s'\n", args.mix);
      return 2;
    }
    mixes.push_back(m);
  } else {
    mixes = raw::cluster::standard_cluster_mixes();
  }
  return sweep(args, mixes, [&](const ClusterChaosMix& mix, std::uint64_t seed) {
    ClusterChaosSpec spec;
    spec.seed = seed;
    spec.mix = mix;
    spec.num_chips = args.chips;
    spec.run_cycles = args.cycles;
    spec.threads = args.threads;
    // Cluster chaos is about the *recovery* machinery, so reliable links and
    // fail-over are always on.
    spec.reliable_links = true;
    spec.failover = true;
    const std::vector<raw::sim::FaultEvent> events =
        raw::cluster::make_cluster_fault_events(spec);
    const ClusterChaosResult r =
        raw::cluster::run_cluster_chaos_events(spec, events);
    print_cluster_result(r);
    Combination c{r.pass, events.size(), "cluster repro", {}};
    if (args.record != nullptr) {
      c.bundle = raw::cluster::to_json(raw::cluster::make_repro(spec, events, r));
    }
    return c;
  });
}

int run_chip(const Args& args) {
  std::vector<ChaosMix> mixes;
  if (args.mix != nullptr) {
    ChaosMix m;
    if (!raw::router::parse_mix(args.mix, &m)) {
      std::fprintf(stderr, "unknown fault mix '%s'\n", args.mix);
      return 2;
    }
    mixes.push_back(m);
  } else {
    mixes = raw::router::standard_mixes();
  }
  return sweep(args, mixes, [&](const ChaosMix& mix, std::uint64_t seed) {
    ChaosSpec spec;
    spec.seed = seed;
    spec.mix = mix;
    spec.run_cycles = args.cycles;
    spec.reliable_links = args.links;
    spec.recovery = args.recovery;
    spec.force_dense = args.force_dense;

    // Per-combination flight recorder: ~64 snapshots across the run (the
    // drain keeps snapping and the ring keeps the most recent history,
    // which is the part a post-mortem wants).
    raw::common::Profiler profiler;
    if (args.flight_dir != nullptr) {
      profiler.enable_flight(
          /*capacity=*/64,
          /*interval=*/std::max<raw::common::Cycle>(1, args.cycles / 64));
      spec.profiler = &profiler;
    }

    Combination c;
    ChaosResult r;
    if (args.record != nullptr) {
      // Record mode runs the explicit-schedule path so the events written
      // to disk are exactly the events that produced the result.
      const std::vector<raw::sim::FaultEvent> events =
          raw::router::make_fault_events(spec);
      r = raw::router::run_chaos_events(spec, events);
      const ChaosRepro repro = raw::router::make_repro(spec, events, r);
      c.events = events.size();
      c.label = "repro (" + repro.signature.to_string() + ")";
      c.bundle = raw::router::to_json(repro);
    } else {
      r = raw::router::run_chaos(spec);
    }
    c.pass = r.pass;
    print_result(r, args.verbose);
    if (args.flight_dir != nullptr && flight_worthy(r) &&
        !dump_flight(args.flight_dir, r, profiler)) {
      std::exit(2);
    }
    return c;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.replay != nullptr) return do_replay(args);
    if (args.minimize != nullptr) return do_minimize(args);
    return args.cluster ? run_cluster(args) : run_chip(args);
  } catch (const std::invalid_argument& e) {
    // A configuration validate() rejects (cluster geometry, an unknown
    // traffic profile) or a fault target the chip or fabric does not have:
    // a usage error, not a crash.
    std::fprintf(stderr, "rawchaos: %s\n", e.what());
    return 2;
  }
}
