// Experiment E1/E2/E6/E7 — Figure 7-1: router performance vs the Click
// router, peak (conflict-free permutation destinations) and average
// (uniform-random destinations), for 64..1,024-byte packets.
//
//   ./fig7_1_throughput [--cycles N] [--quantum W] [--seed S]
//                       [--metrics-json FILE]
//
// Prints the same rows the thesis plots, alongside the paper's reported
// numbers and the closed-form analytic model's prediction. A bad value or
// an unknown flag prints usage and exits 2 (tools/count_flag.h).
#include <cstdio>
#include <cstring>
#include <string>

#include "click/click_router.h"
#include "common/json.h"
#include "common/metrics.h"
#include "router/analytic.h"
#include "router/raw_router.h"

#include "count_flag.h"

namespace {

using raw::common::ByteCount;
using raw::common::Cycle;
using raw::tools::non_negative;
using raw::tools::positive;
using raw::tools::unknown_flag;

struct Args {
  Cycle cycles = 200000;
  std::uint32_t quantum = 256;
  std::uint64_t seed = 2003;
  const char* metrics_json = nullptr;
};

void usage() {
  std::fprintf(stderr,
               "usage: fig7_1_throughput [--cycles N] [--quantum W] [--seed S]\n"
               "                         [--metrics-json FILE]\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      a.cycles = positive<Cycle>("--cycles", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--quantum") && i + 1 < argc) {
      a.quantum = positive<std::uint32_t>("--quantum", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      a.seed = non_negative<std::uint64_t>("--seed", argv[++i], usage);
    } else if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
      a.metrics_json = argv[++i];
    } else {
      unknown_flag(argv[i], usage);
    }
  }
  return a;
}

struct Result {
  double gbps = 0.0;
  double mpps = 0.0;
};

Result run_router(const Args& args, raw::net::DestPattern pattern,
                  ByteCount bytes, raw::common::MetricRegistry* reg,
                  const std::string& prefix) {
  raw::router::RouterConfig cfg;
  cfg.runtime.quantum_max_words = args.quantum;
  raw::net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = pattern;
  t.size = raw::net::SizeDist::kFixed;
  t.fixed_bytes = bytes;
  t.load = 1.0;
  raw::router::RawRouter router(cfg, raw::net::RouteTable::simple4(), t,
                                args.seed);
  router.run(args.cycles);
  if (router.errors() != 0) {
    std::fprintf(stderr, "validation errors: %llu\n",
                 static_cast<unsigned long long>(router.errors()));
  }
  if (reg != nullptr) router.export_metrics(*reg, prefix);
  return {router.gbps(), router.mpps()};
}

Result run_click(const Args& args, ByteCount bytes) {
  raw::click::ClickRouter click(raw::click::ClickConfig{},
                                raw::net::RouteTable::simple4());
  raw::net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = raw::net::DestPattern::kUniform;
  raw::net::TrafficGen gen(t, args.seed);
  click.run_traffic(gen, 3000, bytes);
  return {click.gbps(), click.mpps()};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Paper-reported values (Figure 7-1).
  const ByteCount sizes[] = {64, 128, 256, 512, 1024};
  const double paper_peak[] = {7.3, 14.4, 20.1, 24.7, 26.9};
  const double paper_avg[] = {5.0, 9.9, 13.8, 16.9, 18.6};

  const raw::router::AnalyticModel model;
  raw::common::MetricRegistry registry;
  raw::common::MetricRegistry* reg =
      args.metrics_json != nullptr ? &registry : nullptr;

  std::printf("Figure 7-1: Raw Router performance vs the Click router\n");
  std::printf("(250 MHz Raw chip, 4 ports, quantum %u words, %llu cycles per point)\n\n",
              args.quantum, static_cast<unsigned long long>(args.cycles));

  const Result click = run_click(args, 64);
  if (reg != nullptr) {
    reg->gauge("fig7_1/click/64B/gbps").set(click.gbps);
    reg->gauge("fig7_1/click/64B/mpps").set(click.mpps);
  }
  std::printf("%-10s %18s %18s %12s\n", "workload", "peak Gbps (paper)",
              "avg Gbps (paper)", "model Gbps");
  std::printf("%-10s %11.2f %6s %11.2f %6s %12s\n", "Click 64B", click.gbps,
              "(0.23)", click.gbps, "(0.23)", "-");

  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const std::string size_tag = std::to_string(sizes[i]) + "B";
    const Result peak = run_router(args, raw::net::DestPattern::kPermutation,
                                   sizes[i], reg, "fig7_1/peak/" + size_tag);
    const Result avg = run_router(args, raw::net::DestPattern::kUniform,
                                  sizes[i], reg, "fig7_1/avg/" + size_tag);
    char label[16];
    std::snprintf(label, sizeof label, "%llu B",
                  static_cast<unsigned long long>(sizes[i]));
    std::printf("%-10s %11.2f (%5.1f) %11.2f (%5.1f) %12.2f\n", label,
                peak.gbps, paper_peak[i], avg.gbps, paper_avg[i],
                model.peak_gbps(sizes[i]));
    if (sizes[i] == 1024) {
      std::printf("\nheadline: %.2f Mpps / %.1f Gbps peak at 1,024 B "
                  "(paper: 3.3 Mpps / 26.9 Gbps); average/peak = %.0f%% "
                  "(paper: 69%%)\n",
                  peak.mpps, peak.gbps, 100.0 * avg.gbps / peak.gbps);
    }
  }

  if (reg != nullptr) {
    if (!raw::common::json::write_file(args.metrics_json, reg->to_json())) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json);
      return 1;
    }
    std::printf("\nwrote %zu metrics to %s\n", reg->size(), args.metrics_json);
  }
  return 0;
}
