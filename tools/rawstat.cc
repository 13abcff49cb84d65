// rawstat — run a configured Raw Router scenario and watch it live.
//
// Prints a refreshing text dashboard (per-port Gbps/Mpps, drop %, latency
// percentiles, per-tile busy/blocked/idle) sourced from the MetricRegistry
// the router exports into, and can dump the full registry as JSON/CSV or a
// packet-lifecycle Chrome trace (chrome://tracing / Perfetto).
//
//   rawstat                         # default: 4 ports, uniform, 256 B, load 1.0
//   rawstat --bytes 1024 --pattern permutation
//   rawstat --json > metrics.json   # machine-readable registry dump
//   rawstat --trace trace.json      # packet-lifecycle Chrome trace
//   rawstat --chaos flip+stall      # seeded fault injection + faults panel
//   rawstat --profile               # live engine panel: where wall time goes
//
// With --profile an engine profiler rides along (common/profiler.h): the
// dashboard grows a per-phase wall-clock attribution panel, --json includes
// the profile/... metric section, and --trace merges the engine-profile
// counter tracks (from the flight recorder, one snapshot per interval) into
// the packet-lifecycle Chrome trace.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "cluster/chaos.h"
#include "cluster/fabric.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace_event.h"
#include "count_flag.h"
#include "router/chaos.h"
#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace {

using raw::common::Cycle;
using raw::common::MetricRegistry;
using raw::tools::non_negative;
using raw::tools::positive;
using raw::tools::real_flag;
using raw::tools::unknown_flag;

struct Args {
  Cycle cycles = 200000;
  Cycle interval = 0;  // 0: cycles / 10
  raw::common::ByteCount bytes = 256;
  double load = 1.0;
  raw::net::DestPattern pattern = raw::net::DestPattern::kUniform;
  std::uint64_t seed = 1;
  std::uint32_t quantum = 256;
  bool json = false;
  bool csv = false;
  bool channel_stats = false;
  bool no_refresh = false;
  const char* trace_path = nullptr;
  std::size_t trace_budget = 1 << 16;
  const char* chaos = nullptr;  // fault mix, e.g. "flip+stall"
  std::uint64_t chaos_seed = 1;
  int threads = 0;  // cluster thread-per-chip workers (0: RAWSIM_THREADS)
  bool links = false;     // reliable-link layer (CRC + NACK/retransmit)
  bool recovery = false;  // fault-adaptive crossbar reconfiguration
  bool profile = false;   // engine profiler + live attribution panel
  int cluster_chips = 0;      // > 0: run a leaf-spine cluster instead
  double cluster_remote = 0.5;  // fraction of traffic crossing chips
};

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: rawstat [options]\n"
      "  --cycles N        chip cycles to run (default 200000)\n"
      "  --interval N      dashboard refresh interval in cycles (default cycles/10)\n"
      "  --bytes B         fixed packet size in bytes (default 256)\n"
      "  --load L          offered load in (0,1] (default 1.0)\n"
      "  --pattern P       uniform | permutation (default uniform)\n"
      "  --quantum W       max words per routing quantum (>= 9, default 256)\n"
      "  --seed S          traffic RNG seed (default 1)\n"
      "  --json            dump the full metric registry as JSON (no dashboard)\n"
      "  --csv             dump the full metric registry as CSV (no dashboard)\n"
      "  --trace FILE      write a packet-lifecycle Chrome trace to FILE\n"
      "  --trace-budget N  tracer ring-buffer size in events (default 65536)\n"
      "  --chaos MIX       inject a seeded fault mix while running\n"
      "                    (flip | stall | freeze | overrun | permafreeze,\n"
      "                    '+'-separated; shows the faults/... panel)\n"
      "  --chaos-seed S    fault-schedule RNG seed (default 1)\n"
      "  --links           reliable links: per-word CRC + NACK/retransmit\n"
      "                    (bit flips become retransmits; recovery panel)\n"
      "  --recovery        fault-adaptive reconfiguration: a permanently\n"
      "                    frozen tile is routed around (Degraded) instead\n"
      "                    of stalling the fabric\n"
      "  --profile         attach the engine profiler: live per-phase\n"
      "                    wall-clock attribution panel, profile/... metrics\n"
      "                    in --json, engine tracks merged into --trace\n"
      "  --cluster N       run an N-chip leaf-spine cluster fabric instead\n"
      "                    of a single chip: per-chip throughput, link\n"
      "                    occupancy, and slowest-chip epoch lag panels\n"
      "                    (honours --cycles/--bytes/--load/--seed/--threads;\n"
      "                    --links arms CRC+retransmit trunks, --recovery\n"
      "                    the watchdog + fail-over reroute, --chaos takes\n"
      "                    cluster mixes corrupt|stall|cut|freeze and shows\n"
      "                    the recovery panel)\n"
      "  --remote F        cluster mode: fraction of traffic whose\n"
      "                    destination is on another chip (default 0.5)\n"
      "  --channel-stats   sample per-channel occupancy/backpressure\n"
      "  --threads T       cluster mode: thread-per-chip workers (default:\n"
      "                    RAWSIM_THREADS, else serial; results identical)\n"
      "  --no-refresh      append dashboard frames instead of redrawing\n");
}

/// A usage error's usage text goes to stderr, so a --json/--csv reader of
/// stdout never mistakes it for a document; --help prints it on stdout.
void usage() { print_usage(stderr); }

Args parse(int argc, char** argv) {
  Args a;
  const char* chip_flag = nullptr;  // a flag only the chip path reads
  bool remote = false;
  for (int i = 1; i < argc; ++i) {
    for (const char* f : {"--trace", "--trace-budget", "--profile", "--pattern",
                          "--quantum", "--channel-stats"}) {
      if (!std::strcmp(argv[i], f)) chip_flag = f;
    }
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      a.cycles = positive<Cycle>("--cycles", next("--cycles"), usage);
    } else if (!std::strcmp(argv[i], "--interval")) {
      a.interval = non_negative<Cycle>("--interval", next("--interval"), usage);
    } else if (!std::strcmp(argv[i], "--bytes")) {
      // An IPv4 total length is 16 bits.
      a.bytes = positive<std::uint16_t>("--bytes", next("--bytes"), usage);
    } else if (!std::strcmp(argv[i], "--load")) {
      a.load = real_flag("--load", next("--load"), 0.0, /*min_open=*/true,
                         1.0, usage);
    } else if (!std::strcmp(argv[i], "--pattern")) {
      const char* p = next("--pattern");
      if (!std::strcmp(p, "uniform")) {
        a.pattern = raw::net::DestPattern::kUniform;
      } else if (!std::strcmp(p, "permutation")) {
        a.pattern = raw::net::DestPattern::kPermutation;
      } else {
        std::fprintf(stderr, "unknown pattern '%s'\n", p);
        std::exit(2);
      }
    } else if (!std::strcmp(argv[i], "--quantum")) {
      a.quantum =
          positive<std::uint32_t>("--quantum", next("--quantum"), usage);
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = non_negative<std::uint64_t>("--seed", next("--seed"), usage);
    } else if (!std::strcmp(argv[i], "--json")) {
      a.json = true;
    } else if (!std::strcmp(argv[i], "--csv")) {
      a.csv = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace_path = next("--trace");
    } else if (!std::strcmp(argv[i], "--trace-budget")) {
      a.trace_budget = positive<std::size_t>("--trace-budget",
                                             next("--trace-budget"), usage);
    } else if (!std::strcmp(argv[i], "--chaos")) {
      a.chaos = next("--chaos");
    } else if (!std::strcmp(argv[i], "--chaos-seed")) {
      a.chaos_seed = non_negative<std::uint64_t>("--chaos-seed",
                                                 next("--chaos-seed"), usage);
    } else if (!std::strcmp(argv[i], "--links")) {
      a.links = true;
    } else if (!std::strcmp(argv[i], "--recovery")) {
      a.recovery = true;
    } else if (!std::strcmp(argv[i], "--profile")) {
      a.profile = true;
    } else if (!std::strcmp(argv[i], "--cluster")) {
      a.cluster_chips = positive<int>("--cluster", next("--cluster"), usage);
    } else if (!std::strcmp(argv[i], "--remote")) {
      remote = true;
      a.cluster_remote = real_flag("--remote", next("--remote"), 0.0,
                                   /*min_open=*/false, 1.0, usage);
    } else if (!std::strcmp(argv[i], "--channel-stats")) {
      a.channel_stats = true;
    } else if (!std::strcmp(argv[i], "--threads")) {
      a.threads = non_negative<int>("--threads", next("--threads"), usage);
    } else if (!std::strcmp(argv[i], "--no-refresh")) {
      a.no_refresh = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      print_usage(stdout);
      std::exit(0);
    } else {
      unknown_flag(argv[i], usage);
    }
  }
  if (a.threads != 0 && a.cluster_chips == 0) {
    std::fprintf(stderr, "--threads needs --cluster (a chip steps serially)\n");
    std::exit(2);
  }
  if (remote && a.cluster_chips == 0) {
    std::fprintf(stderr, "--remote needs --cluster (chip traffic is local)\n");
    std::exit(2);
  }
  if (chip_flag != nullptr && a.cluster_chips > 0) {
    std::fprintf(stderr, "%s does not apply to --cluster (chip path only)\n",
                 chip_flag);
    std::exit(2);
  }
  if (a.interval == 0) a.interval = a.cycles / 10 > 0 ? a.cycles / 10 : a.cycles;
  return a;
}

/// Publishes the Figure 7-3-style per-tile utilization of the last traced
/// window into the registry, so the dashboard reads everything from one
/// place.
void export_tile_utilization(const raw::sim::Trace& trace, MetricRegistry& reg) {
  if (!trace.enabled()) return;
  for (int t = 0; t < trace.num_tiles(); ++t) {
    const auto u = trace.utilization(t);
    const std::string base = "router/chip/tile" + std::to_string(t);
    reg.gauge(base + "/busy_frac").set(u.busy);
    reg.gauge(base + "/blocked_frac").set(u.blocked);
    reg.gauge(base + "/idle_frac").set(u.idle);
  }
}

void print_dashboard(const Args& args, const MetricRegistry& reg, Cycle now,
                     bool redraw) {
  if (redraw) std::printf("\x1b[H\x1b[J");
  std::printf("rawstat — %s traffic, %llu B packets, load %.2f, cycle %llu/%llu\n\n",
              args.pattern == raw::net::DestPattern::kUniform ? "uniform"
                                                              : "permutation",
              static_cast<unsigned long long>(args.bytes), args.load,
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(args.cycles));

  std::printf("%-5s %8s %7s %7s %8s %8s %8s %8s\n", "port", "Gbps", "Mpps",
              "drop%", "p50", "p95", "p99", "max");
  for (int p = 0; p < raw::router::kNumPorts; ++p) {
    const std::string base = "router/port" + std::to_string(p);
    std::printf("%-5d %8.2f %7.3f %6.2f%% %8.0f %8.0f %8.0f %8.0f\n", p,
                reg.gauge_value(base + "/gbps"), reg.gauge_value(base + "/mpps"),
                100.0 * reg.gauge_value(base + "/drop_fraction"),
                reg.gauge_value(base + "/latency/p50"),
                reg.gauge_value(base + "/latency/p95"),
                reg.gauge_value(base + "/latency/p99"),
                reg.gauge_value(base + "/latency/max"));
  }
  std::printf("%-5s %8.2f %7.3f   (latency percentiles in cycles)\n", "all",
              reg.gauge_value("router/gbps"), reg.gauge_value("router/mpps"));

  std::printf("\nper-tile busy/blocked/idle %% (last %llu-cycle window):\n",
              static_cast<unsigned long long>(args.interval));
  for (int row = 0; row < 4; ++row) {
    std::printf("  ");
    for (int col = 0; col < 4; ++col) {
      const int t = row * 4 + col;
      const std::string base = "router/chip/tile" + std::to_string(t);
      std::printf("t%-2d %3.0f/%3.0f/%3.0f   ", t,
                  100.0 * reg.gauge_value(base + "/busy_frac"),
                  100.0 * reg.gauge_value(base + "/blocked_frac"),
                  100.0 * reg.gauge_value(base + "/idle_frac"));
    }
    std::printf("\n");
  }

  const std::uint64_t errors = reg.counter_value("router/errors");
  if (errors > 0) {
    std::printf("\nVALIDATION ERRORS: %llu\n",
                static_cast<unsigned long long>(errors));
  }
  std::fflush(stdout);
}

/// The fault-injection / self-protection panel: shown whenever a fault plan
/// is attached (every counter sourced from the registry's faults/... and
/// router/... entries the router exports).
void print_fault_panel(const MetricRegistry& reg) {
  const auto c = [&reg](const char* name) {
    return static_cast<unsigned long long>(reg.counter_value(name));
  };
  std::printf(
      "\nfaults: %llu injected (flips %llu applied / %llu missed, "
      "stalls %llu, freezes %llu, overruns %llu; frozen-tile cycles %llu)\n",
      c("faults/injected"), c("faults/bit_flips"), c("faults/bit_flips_missed"),
      c("faults/link_stalls"), c("faults/tile_freezes"),
      c("faults/overrun_bursts"), c("faults/frozen_tile_cycles"));
  std::printf(
      "self-protection: malformed %llu  resyncs %llu  invalid %llu  "
      "lost %llu  watchdog trips %llu\n",
      c("router/conservation/ingress_drops"),
      c("router/port0/egress/resyncs") + c("router/port1/egress/resyncs") +
          c("router/port2/egress/resyncs") + c("router/port3/egress/resyncs"),
      c("router/conservation/invalid"), c("router/conservation/lost"),
      c("router/watchdog/trips"));
  // With reliable links on, split the damage into what the link layer won
  // back (retransmitted words) versus what the fabric still lost.
  if (reg.counter_value("faults/recovered/retransmits") > 0 ||
      reg.counter_value("faults/recovered/delivered_corrupt") > 0) {
    std::printf("recovered-vs-lost: %llu words retransmitted clean, "
                "%llu delivered corrupt, %llu packets lost\n",
                c("faults/recovered/retransmits"),
                c("faults/recovered/delivered_corrupt"),
                c("router/conservation/lost"));
  }
}

/// The recovery panel: reliable-link counters plus the fault-adaptive
/// reconfiguration state (shown when --links/--recovery is active or the
/// fabric has already degraded).
void print_recovery_panel(const MetricRegistry& reg,
                          const raw::router::RawRouter& router) {
  const auto c = [&reg](const char* name) {
    return static_cast<unsigned long long>(reg.counter_value(name));
  };
  std::printf(
      "recovery: links %llu retransmits / %llu corrupt / %llu stall cycles; "
      "reconfigurations %llu (schedule gen %llu, written off %llu)\n",
      c("faults/recovered/retransmits"),
      c("faults/recovered/delivered_corrupt"),
      c("faults/recovered/stall_cycles"), c("router/recovery/recoveries"),
      c("router/recovery/schedule_generation"),
      c("router/recovery/written_off"));
  if (router.degraded()) {
    std::string tiles;
    for (const int t : router.dead_tiles()) {
      if (!tiles.empty()) tiles += ", ";
      tiles += std::to_string(t);
    }
    std::printf("status: DEGRADED — routing around dead tile(s) [%s]\n",
                tiles.c_str());
  } else {
    std::printf("status: full fabric (no dead tiles)\n");
  }
}

/// The engine-profile panel (--profile): per-phase wall-clock attribution
/// plus the sparse-efficiency counters, read between run chunks.
void print_profile_panel(const raw::common::Profiler& prof) {
  using raw::common::ProfPhase;
  const std::uint64_t wall = prof.wall_ns();
  const double denom = wall > 0 ? static_cast<double>(wall) : 1.0;
  std::printf("\nengine: %.1f ms profiled wall, coverage %.1f%%\n",
              static_cast<double>(wall) / 1e6, 100.0 * prof.coverage());
  std::printf("  phases:");
  for (int p = 0; p < raw::common::kNumProfPhases; ++p) {
    const auto t = prof.phase_total(static_cast<ProfPhase>(p));
    std::printf(" %s %.1f%%",
                raw::common::prof_phase_name(static_cast<ProfPhase>(p)),
                100.0 * static_cast<double>(t.ns) / denom);
  }
  std::printf("\n");
  const std::uint64_t batches = prof.commit_batches();
  std::printf(
      "  sparse: %llu parks, %llu wakes, %llu commit batches "
      "(avg %.1f dirty), %llu dense sweeps / %llu sparse cycles, "
      "%llu flight snapshots\n",
      static_cast<unsigned long long>(prof.parks()),
      static_cast<unsigned long long>(prof.wakes()),
      static_cast<unsigned long long>(batches),
      batches > 0 ? static_cast<double>(prof.dirty_channels()) /
                        static_cast<double>(batches)
                  : 0.0,
      static_cast<unsigned long long>(prof.dense_sweeps()),
      static_cast<unsigned long long>(prof.sparse_cycles()),
      static_cast<unsigned long long>(prof.flight_recorded()));
}

/// The cluster dashboard (--cluster N): aggregate throughput plus the three
/// panels the fabric exports — per-chip throughput, inter-chip link
/// occupancy, and the slowest-chip epoch lag (thread-per-chip load balance).
void print_cluster_dashboard(const Args& args, const MetricRegistry& reg,
                             const raw::cluster::ClusterFabric& fabric,
                             Cycle now, bool redraw) {
  if (redraw) std::printf("\x1b[H\x1b[J");
  const auto c = [&reg](const std::string& name) {
    return static_cast<unsigned long long>(reg.counter_value(name));
  };
  std::printf(
      "rawstat --cluster — leaf-spine, %d chips / %d hosts / %zu links, "
      "%d worker%s, epoch %llu, cycle %llu/%llu\n",
      fabric.num_chips(), fabric.num_hosts(), fabric.num_links(),
      fabric.workers(), fabric.workers() == 1 ? "" : "s",
      static_cast<unsigned long long>(fabric.epoch_cycles()),
      static_cast<unsigned long long>(now),
      static_cast<unsigned long long>(args.cycles));
  std::printf(
      "cluster: %8.2f Gbps %7.3f Mpps  delivered %llu  errors %llu  "
      "latency p50/p95/p99 %.0f/%.0f/%.0f\n\n",
      reg.gauge_value("cluster/gbps"), reg.gauge_value("cluster/mpps"),
      c("cluster/delivered_packets"), c("cluster/errors"),
      reg.gauge_value("cluster/latency/p50"),
      reg.gauge_value("cluster/latency/p95"),
      reg.gauge_value("cluster/latency/p99"));

  std::printf("%-5s %9s %10s %8s %9s %9s\n", "chip", "offered", "delivered",
              "Gbps", "wall ms", "lag ms");
  for (int i = 0; i < fabric.num_chips(); ++i) {
    const std::string base = "cluster/chip" + std::to_string(i);
    std::printf("%-5d %9llu %10llu %8.2f %9.2f %9.2f\n", i,
                c(base + "/offered_packets"), c(base + "/delivered_packets"),
                reg.gauge_value(base + "/gbps"),
                static_cast<double>(c(base + "/wall_ns")) / 1e6,
                static_cast<double>(c(base + "/epoch_lag_ns")) / 1e6);
  }
  std::printf("(lag = wall time behind the slowest chip; big lags mean "
              "thread-per-chip workers idle at the epoch barrier)\n");

  const bool recovery_armed = fabric.config().reliable_links ||
                              fabric.config().failover ||
                              !fabric.config().faults.empty();
  std::printf("\n%-6s %-12s %10s %12s %10s", "link", "route", "sent",
              "delivered", "in-flight");
  if (recovery_armed) {
    std::printf(" %9s %8s %5s\n", "rexmit", "wroff", "dead");
  } else {
    std::printf(" %9s\n", "occ");
  }
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    const auto& plan = fabric.topology().links[l];
    const std::string base = "cluster/link" + std::to_string(l);
    char route[16];
    std::snprintf(route, sizeof route, "%d.%d -> %d.%d", plan.src_chip,
                  plan.src_port, plan.dst_chip, plan.dst_port);
    std::printf("%-6zu %-12s %10llu %12llu %10llu", l, route,
                c(base + "/sent_words"), c(base + "/delivered_words"),
                c(base + "/in_flight"));
    if (recovery_armed) {
      std::printf(" %9llu %8llu %5s\n", c(base + "/retransmits"),
                  c(base + "/written_off"),
                  c(base + "/dead") != 0 ? "DEAD" : "-");
    } else {
      std::printf(" %9llu\n", c(base + "/occupancy"));
    }
  }
  std::printf("trunk egress elastic buffers: %llu words queued "
              "(peak %llu)\n",
              c("cluster/trunk_queued_words"),
              c("cluster/trunk_peak_queued_words"));

  // Recovery panel: what the self-healing machinery has done so far — CRC
  // repairs on the trunks, faults fired, and the fail-over ledger when a
  // confirmed failure degraded the fabric.
  if (recovery_armed) {
    std::printf("\nrecovery: %s  retransmits %llu  delivered-corrupt %llu  "
                "faults fired %llu\n",
                fabric.degraded() ? "DEGRADED" : "healthy",
                c("cluster/recovered/retransmits"),
                c("cluster/recovered/delivered_corrupt"),
                c("cluster/faults/injected"));
    if (fabric.failover_generation() > 0) {
      std::printf("  reroute gen %llu: %llu dead links, %llu dead chips, "
                  "%llu unreachable hosts, %llu words written off, "
                  "%llu packets abandoned\n",
                  c("cluster/failover/generation"),
                  c("cluster/failover/dead_links"),
                  c("cluster/failover/dead_chips"),
                  c("cluster/failover/unreachable_hosts"),
                  c("cluster/failover/written_off_words"),
                  c("cluster/failover/abandoned_packets"));
    }
  }

  const std::uint64_t lost = reg.counter_value("cluster/conservation/lost");
  const std::uint64_t errors = reg.counter_value("cluster/errors");
  if (lost > 0 || errors > 0) {
    std::printf("\nVALIDATION: %llu errors, %llu lost\n",
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(lost));
  }
  std::fflush(stdout);
}

int run_cluster(const Args& args) {
  raw::cluster::ClusterConfig cfg;
  cfg.num_chips = args.cluster_chips;
  cfg.threads = args.threads;
  cfg.traffic.size = raw::net::SizeDist::kFixed;
  cfg.traffic.fixed_bytes = args.bytes;
  cfg.traffic.load = args.load;
  cfg.traffic.remote_fraction = args.cluster_remote;
  cfg.reliable_links = args.links;
  cfg.failover = args.recovery;
  if (args.chaos != nullptr) {
    // Cluster chaos mixes name inter-chip fault kinds; the schedule is the
    // same seeded one the chaos harness would build for this geometry.
    raw::cluster::ClusterChaosSpec spec;
    if (!raw::cluster::parse_cluster_mix(args.chaos, &spec.mix)) {
      std::fprintf(stderr,
                   "unknown cluster fault mix '%s' (corrupt|stall|cut|freeze)\n",
                   args.chaos);
      return 2;
    }
    spec.seed = args.chaos_seed;
    spec.num_chips = args.cluster_chips;
    spec.run_cycles = args.cycles;
    cfg.faults = raw::cluster::make_cluster_fault_events(spec);
  }
  raw::cluster::ClusterFabric fabric(cfg, args.seed);

  MetricRegistry registry;
  const bool quiet = args.json || args.csv;
  const bool redraw = !quiet && !args.no_refresh && isatty(STDOUT_FILENO) != 0;
  Cycle now = 0;
  while (now < args.cycles) {
    const Cycle chunk = std::min(args.interval, args.cycles - now);
    fabric.run(chunk);
    now = fabric.cycle();
    fabric.export_metrics(registry);
    if (!quiet) print_cluster_dashboard(args, registry, fabric, now, redraw);
  }
  if (args.json) std::printf("%s", registry.to_json().c_str());
  if (args.csv) std::printf("%s", registry.to_csv().c_str());
  return fabric.errors() != 0 ? 1 : 0;
}

int run_router(const Args& args) {
  raw::router::RouterConfig cfg;
  cfg.runtime.quantum_max_words = args.quantum;
  cfg.channel_stats = args.channel_stats;
  cfg.link.enabled = args.links;
  cfg.recovery.enabled = args.recovery;

  raw::net::TrafficConfig traffic;
  traffic.num_ports = raw::router::kNumPorts;
  traffic.pattern = args.pattern;
  traffic.size = raw::net::SizeDist::kFixed;
  traffic.fixed_bytes = args.bytes;
  traffic.load = args.load;

  raw::router::RawRouter router(cfg, raw::net::RouteTable::simple4(), traffic,
                                args.seed);

  raw::common::PacketTracer tracer;
  if (args.trace_path != nullptr) {
    router.set_tracer(&tracer);
    tracer.enable(args.trace_budget);
  }

  // One flight snapshot per dashboard interval, so the merged Chrome trace's
  // engine counter track lines up with the refresh cadence.
  raw::common::Profiler profiler;
  if (args.profile) {
    profiler.enable_flight(/*capacity=*/512, /*interval=*/args.interval);
    router.set_profiler(&profiler);
  }

  raw::sim::FaultPlan fault_plan;
  if (args.chaos != nullptr) {
    raw::router::ChaosMix mix;
    if (!raw::router::parse_mix(args.chaos, &mix)) {
      std::fprintf(stderr, "unknown fault mix '%s'\n", args.chaos);
      return 2;
    }
    raw::router::ChaosSpec spec;
    spec.seed = args.chaos_seed;
    spec.mix = mix;
    spec.run_cycles = args.cycles;
    fault_plan = raw::router::make_fault_plan(spec, router);
    router.set_fault_plan(&fault_plan);
  }

  MetricRegistry registry;
  const bool quiet = args.json || args.csv;
  const bool redraw = !quiet && !args.no_refresh && isatty(STDOUT_FILENO) != 0;

  Cycle now = 0;
  bool stalled = false;
  while (now < args.cycles && !stalled) {
    const Cycle chunk = std::min(args.interval, args.cycles - now);
    router.chip().trace().configure(now, now + chunk, 16);
    if (args.profile) profiler.start();
    stalled = router.run(chunk) == raw::router::RunStatus::kStalled;
    if (args.profile) profiler.stop();
    now = router.chip().cycle();
    router.export_metrics(registry);
    export_tile_utilization(router.chip().trace(), registry);
    if (args.profile) profiler.export_metrics(registry);
    if (!quiet) {
      print_dashboard(args, registry, now, redraw);
      if (args.chaos != nullptr) print_fault_panel(registry);
      if (args.links || args.recovery || router.degraded()) {
        print_recovery_panel(registry, router);
      }
      if (args.profile) print_profile_panel(profiler);
    }
  }
  if (!quiet && router.stall_report().has_value()) {
    std::printf("\n%s\n", router.stall_report()->to_string().c_str());
  }

  if (args.json) std::printf("%s", registry.to_json().c_str());
  if (args.csv) std::printf("%s", registry.to_csv().c_str());

  if (args.trace_path != nullptr) {
    const std::string json =
        args.profile
            ? raw::common::merged_chrome_json(&tracer, &profiler)
            : tracer.chrome_json();
    if (!raw::common::json::write_file(args.trace_path, json)) {
      std::fprintf(stderr, "cannot open %s\n", args.trace_path);
      return 1;
    }
    if (!quiet) {
      std::printf("\nwrote %zu trace events (%llu recorded, %llu overwritten) "
                  "to %s%s\n",
                  tracer.size(),
                  static_cast<unsigned long long>(tracer.recorded()),
                  static_cast<unsigned long long>(tracer.overwritten()),
                  args.trace_path,
                  args.profile ? " (engine-profile tracks merged)" : "");
    }
  }

  // Validation errors are the interesting output of a chaos run, not a tool
  // failure; without fault injection they mean the router misbehaved.
  return (args.chaos == nullptr && router.errors() != 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return args.cluster_chips > 0 ? run_cluster(args) : run_router(args);
  } catch (const std::invalid_argument& e) {
    // A configuration validate() rejects (a cluster size the fabric cannot
    // build, a quantum below the router's fragment floor): a usage error,
    // not a crash.
    std::fprintf(stderr, "rawstat: %s\n", e.what());
    return 2;
  }
}
