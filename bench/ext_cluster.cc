// Experiment E17 — multi-chip cluster fabric: leaf-spine topologies of
// rotating-crossbar routers over token-throttled inter-chip links.
//
// Sweeps cluster sizes 2 -> 16 chips (leaf-spine), reporting aggregate
// delivered throughput, end-to-end latency percentiles (host to host,
// across every chip on the path), and the deterministic cluster digest.
// For each size the sweep runs serial first, then re-runs thread-per-chip
// at 2/4/8 workers and checks the digests are bit-identical — the epoch
// synchronisation contract — while measuring the parallel speedup.
//
//   ./ext_cluster [--chips "2 4 8 16"] [--cycles N] [--workers "2 4 8"]
//                 [--latency L] [--throttle N/D] [--remote F] [--load F]
//                 [--bytes B] [--seed S] [--serial-only]
//
// A flag value that is not a number in range prints usage and exits 2
// (tools/count_flag.h), as does a fabric the cluster config rejects.
//
// With --faults "0 1 2 ..." the sweep becomes a throughput-degradation
// curve instead: for each chip count and each k in the list, the first k
// trunk *pairs* are cut a third of the way into the run with reliable
// links + fail-over armed, and the table reports aggregate Gbps against
// failed-trunk count. The serial-vs-parallel digest gate still applies to
// every (chips, k, workers) point — recovery must be deterministic too.
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/topology.h"
#include "count_flag.h"

namespace {

using raw::cluster::ClusterConfig;
using raw::cluster::ClusterFabric;
using raw::tools::count_list;
using raw::tools::non_negative;
using raw::tools::positive;
using raw::tools::real_flag;
using raw::tools::unknown_flag;

struct Options {
  std::vector<int> chips{2, 4, 8, 16};
  std::vector<int> workers{2, 4, 8};
  raw::common::Cycle cycles = 30000;
  raw::common::Cycle link_latency = 16;
  std::uint64_t throttle_numer = 1;
  std::uint64_t throttle_denom = 1;
  double remote_fraction = 0.5;
  double load = 0.6;
  raw::common::ByteCount bytes = 512;
  std::uint64_t seed = 42;
  bool serial_only = false;
  std::vector<int> fault_trunks;  // --faults: cut-k degradation curve
};

void usage() {
  std::fprintf(stderr,
               "usage: ext_cluster [--chips \"2 4 8 16\"] [--cycles N]\n"
               "                   [--workers \"2 4 8\"] [--latency L]\n"
               "                   [--throttle N/D] [--remote F] [--load F]\n"
               "                   [--bytes B] [--seed S] [--serial-only]\n"
               "                   [--faults \"0 1 2\"]\n");
}

ClusterConfig make_config(const Options& opt, int chips, int threads) {
  ClusterConfig cfg;
  cfg.num_chips = chips;
  cfg.threads = threads;
  cfg.link_latency = opt.link_latency;
  cfg.throttle_numer = opt.throttle_numer;
  cfg.throttle_denom = opt.throttle_denom;
  cfg.traffic.load = opt.load;
  cfg.traffic.fixed_bytes = opt.bytes;
  cfg.traffic.remote_fraction = opt.remote_fraction;
  return cfg;
}

struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  double gbps = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double wall_secs = 0.0;
  int hosts = 0;
  std::size_t links = 0;
  int workers = 1;  // after the fabric clamps the request to the chip count
  bool drained = false;
};

RunResult run_config(const ClusterConfig& cfg, const Options& opt) {
  ClusterFabric fabric(cfg, opt.seed);
  const auto t0 = std::chrono::steady_clock::now();
  fabric.run(opt.cycles);
  const bool drained = fabric.drain(40 * opt.cycles);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.digest = fabric.cluster_digest();
  r.delivered = fabric.delivered_packets();
  r.gbps = fabric.aggregate_gbps();
  const raw::common::Histogram lat = fabric.latency_histogram();
  r.p50 = lat.quantile(0.50);
  r.p95 = lat.quantile(0.95);
  r.p99 = lat.quantile(0.99);
  r.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  r.hosts = fabric.num_hosts();
  r.links = fabric.num_links();
  r.workers = fabric.workers();
  r.drained = drained;
  return r;
}

RunResult run_once(const Options& opt, int chips, int threads) {
  return run_config(make_config(opt, chips, threads), opt);
}

/// Degradation-curve config: reliable links + fail-over armed, the first
/// `cut_trunks` trunk pairs (both directions each) cut a third of the way
/// into the run.
ClusterConfig make_fault_config(const Options& opt, int chips, int threads,
                                int cut_trunks) {
  ClusterConfig cfg = make_config(opt, chips, threads);
  cfg.reliable_links = true;
  cfg.failover = true;
  const raw::common::Cycle at = opt.cycles / 3;
  for (int t = 0; t < cut_trunks; ++t) {
    for (int dir = 0; dir < 2; ++dir) {
      cfg.faults.push_back({.kind = raw::sim::FaultKind::kLinkStall,
                            .at = at, .permanent = true, .link = 2 * t + dir});
    }
  }
  return cfg;
}

/// The degradation curve: Gbps against failed-trunk count, digest-gated
/// serial vs parallel at every point. Returns false on any digest
/// mismatch.
bool run_degradation_curve(const Options& opt) {
  std::printf("%6s | %6s | %6s | %10s | %9s | %9s | %8s | %18s\n", "chips",
              "trunks", "cut", "delivered", "agg Gbps", "vs k=0", "status",
              "cluster digest");
  bool all_match = true;
  for (const int chips : opt.chips) {
    const std::size_t trunks =
        raw::cluster::Topology::build(make_config(opt, chips, 1)).links.size() /
        2;
    double baseline_gbps = 0.0;
    for (const int k : opt.fault_trunks) {
      if (static_cast<std::size_t>(k) >= trunks) {
        std::printf("%6d | %6zu | %6d | (skipped: only %zu trunk pairs)\n",
                    chips, trunks, k, trunks);
        continue;
      }
      const ClusterConfig serial_cfg = make_fault_config(opt, chips, 1, k);
      const RunResult serial = run_config(serial_cfg, opt);
      if (k == 0) baseline_gbps = serial.gbps;
      std::printf("%6d | %6zu | %6d | %10" PRIu64
                  " | %9.2f | %8.1f%% | %8s | 0x%016" PRIx64 "\n",
                  chips, trunks, k, serial.delivered, serial.gbps,
                  baseline_gbps > 0 ? 100.0 * serial.gbps / baseline_gbps
                                    : 100.0,
                  k > 0 ? "degraded" : "healthy", serial.digest);
      if (opt.serial_only) continue;
      for (const int w : opt.workers) {
        const RunResult par =
            run_config(make_fault_config(opt, chips, w, k), opt);
        const bool match = par.digest == serial.digest;
        all_match = all_match && match;
        if (!match) {
          std::printf("%6s | %6s | %6s | workers=%d: DIGEST MISMATCH "
                      "(0x%016" PRIx64 ")\n",
                      "", "", "", w, par.digest);
        }
      }
    }
  }
  return all_match;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--chips") && i + 1 < argc) {
      opt.chips = count_list<int>("--chips", argv[++i], 2, usage);
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      opt.workers = count_list<int>("--workers", argv[++i], 1, usage);
    } else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      opt.cycles = positive<raw::common::Cycle>("--cycles", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--latency") && i + 1 < argc) {
      opt.link_latency =
          positive<raw::common::Cycle>("--latency", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--throttle") && i + 1 < argc) {
      const std::string v = argv[++i];
      const std::size_t slash = v.find('/');
      opt.throttle_numer = positive<std::uint64_t>(
          "--throttle", v.substr(0, slash).c_str(), usage);
      opt.throttle_denom =
          slash == std::string::npos
              ? 1
              : positive<std::uint64_t>("--throttle",
                                        v.substr(slash + 1).c_str(), usage);
    } else if (!std::strcmp(argv[i], "--remote") && i + 1 < argc) {
      opt.remote_fraction = real_flag("--remote", argv[++i], 0.0, false, 1.0,
                                      usage);
    } else if (!std::strcmp(argv[i], "--load") && i + 1 < argc) {
      opt.load = real_flag("--load", argv[++i], 0.0, true, 1.0, usage);
    } else if (!std::strcmp(argv[i], "--bytes") && i + 1 < argc) {
      // An IPv4 total length is 16 bits.
      opt.bytes = positive<std::uint16_t>("--bytes", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      opt.seed = non_negative<std::uint64_t>("--seed", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--serial-only")) {
      opt.serial_only = true;
    } else if (!std::strcmp(argv[i], "--faults") && i + 1 < argc) {
      opt.fault_trunks = count_list<int>("--faults", argv[++i], 0, usage);
    } else {
      unknown_flag(argv[i], usage);
    }
  }
  return opt;
}

int run(const Options& opt) {
  std::printf(
      "E17: leaf-spine cluster sweep (%" PRIu64
      " cycles, link latency %" PRIu64 ", throttle %" PRIu64 "/%" PRIu64
      ", remote %.2f, load %.2f, %" PRIu64 "B, seed %" PRIu64 ")\n\n",
      static_cast<std::uint64_t>(opt.cycles),
      static_cast<std::uint64_t>(opt.link_latency), opt.throttle_numer,
      opt.throttle_denom, opt.remote_fraction, opt.load,
      static_cast<std::uint64_t>(opt.bytes), opt.seed);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host machine: %u hardware thread(s) — speedups need as many "
              "cores as workers\n\n",
              cores);

  if (!opt.fault_trunks.empty()) {
    std::printf("degradation curve: first k trunk pairs cut at cycle %" PRIu64
                " with reliable links + fail-over armed\n\n",
                static_cast<std::uint64_t>(opt.cycles / 3));
    const bool ok = run_degradation_curve(opt);
    std::printf(
        "\nreading: each cut removes both directions of a trunk; the\n"
        "watchdog confirms the loss of signal within one interval, reroutes\n"
        "the survivors, and the run finishes degraded with the in-flight\n"
        "words written off conservation-exactly. Recovery is part of the\n"
        "deterministic schedule, so the digest gate holds at every worker\n"
        "count even mid-fail-over.\n");
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: cluster digest diverged across worker counts\n");
      return 1;
    }
    std::printf("\nPASS\n");
    return 0;
  }

  std::printf("%6s | %6s | %6s | %10s | %9s | %7s | %7s | %7s | %18s\n",
              "chips", "hosts", "links", "delivered", "agg Gbps", "lat p50",
              "lat p95", "lat p99", "cluster digest");

  bool all_match = true;
  bool all_drained = true;
  for (const int chips : opt.chips) {
    const RunResult serial = run_once(opt, chips, 1);
    all_drained = all_drained && serial.drained;
    std::printf("%6d | %6d | %6zu | %10" PRIu64
                " | %9.2f | %7.0f | %7.0f | %7.0f | 0x%016" PRIx64 "%s\n",
                chips, serial.hosts, serial.links, serial.delivered,
                serial.gbps, serial.p50, serial.p95, serial.p99, serial.digest,
                serial.drained ? "" : " (!drain)");
    if (opt.serial_only) continue;
    for (const int w : opt.workers) {
      const RunResult par = run_once(opt, chips, w);
      const bool match = par.digest == serial.digest;
      all_match = all_match && match;
      all_drained = all_drained && par.drained;
      // A speedup is evidence only when every worker that ran had a core.
      const std::string ran =
          par.workers != w ? " (ran " + std::to_string(par.workers) + ")" : "";
      const bool oversubscribed =
          cores != 0 && static_cast<unsigned>(par.workers) > cores;
      std::printf("%6s | %6s | %6s | %10s | %9s | workers=%d%s: %s, speedup "
                  "%.2fx%s\n",
                  "", "", "", "", "", w, ran.c_str(),
                  match ? "digest ok" : "DIGEST MISMATCH",
                  serial.wall_secs / par.wall_secs,
                  oversubscribed ? "  oversubscribed: not evidence" : "");
    }
  }

  std::printf(
      "\nreading: every chip is a full 16-tile rotating-crossbar router, so\n"
      "aggregate bandwidth grows with the chip count while the leaf-spine\n"
      "trunks add one or two store-and-forward hops (the latency tail).\n"
      "Thread-per-chip runs commit inter-chip links only at conservative\n"
      "epoch barriers (epoch <= link latency), so the cluster digest is\n"
      "bit-identical to the serial schedule at every worker count.\n");

  if (!all_match) {
    std::fprintf(stderr, "FAIL: cluster digest diverged across worker counts\n");
    return 1;
  }
  if (!all_drained) {
    std::fprintf(stderr, "FAIL: a sweep point failed to drain\n");
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::invalid_argument& e) {
    // A fabric the cluster config rejects (e.g. more chips than it wires).
    std::fprintf(stderr, "ext_cluster: %s\n", e.what());
    return 2;
  }
}
