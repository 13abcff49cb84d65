// Experiment E4 — Figure 7-3: per-tile utilization of the Raw processor
// over an 800-cycle window, routing 64-byte and 1,024-byte packets at
// saturation. '#' = busy, 'r'/'s'/'m' = blocked on receive/send/memory,
// '.' = idle. The thesis's observation to reproduce: at 64 bytes the
// ingress tiles (4, 7, 8, 11) spend most of the window blocked by the
// crossbar, while at 1,024 bytes the fabric approaches the static-network
// streaming limit.
//
//   ./fig7_3_utilization [--csv] [--metrics-json FILE]
#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "router/raw_router.h"

#include "count_flag.h"

namespace {

void run_case(raw::common::ByteCount bytes, bool csv,
              raw::common::MetricRegistry* reg) {
  raw::router::RouterConfig cfg;
  raw::net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = raw::net::DestPattern::kUniform;
  t.size = raw::net::SizeDist::kFixed;
  t.fixed_bytes = bytes;
  raw::router::RawRouter router(cfg, raw::net::RouteTable::simple4(), t, 7);

  // Warm up past the pipeline fill, then trace 800 cycles.
  constexpr raw::common::Cycle kWarmup = 4000;
  router.chip().trace().configure(kWarmup, kWarmup + 800, 16);
  router.run(kWarmup + 800);

  if (reg != nullptr) {
    const std::string prefix =
        "fig7_3/" + std::to_string(bytes) + "B";
    router.export_metrics(*reg, prefix);
    for (int tile = 0; tile < 16; ++tile) {
      const auto u = router.chip().trace().utilization(tile);
      const std::string tp = prefix + "/tile" + std::to_string(tile);
      reg->gauge(tp + "/busy_frac").set(u.busy);
      reg->gauge(tp + "/blocked_frac").set(u.blocked);
      reg->gauge(tp + "/idle_frac").set(u.idle);
    }
  }

  if (csv) {
    std::printf("%s", router.chip().trace().csv().c_str());
    return;
  }
  std::printf("\n--- %llu-byte packets, cycles %llu..%llu ---\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(kWarmup),
              static_cast<unsigned long long>(kWarmup + 800));
  std::printf("%s", router.chip().trace().ascii(100).c_str());

  std::printf("\nper-tile utilization (busy / blocked / idle):\n");
  for (int tile = 0; tile < 16; ++tile) {
    const auto u = router.chip().trace().utilization(tile);
    std::printf("  tile %2d: %5.1f%% / %5.1f%% / %5.1f%%\n", tile,
                100.0 * u.busy, 100.0 * u.blocked, 100.0 * u.idle);
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: fig7_3_utilization [--csv] [--metrics-json FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  const char* metrics_json = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--csv")) {
      csv = true;
    } else if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
      metrics_json = argv[++i];
    } else {
      raw::tools::unknown_flag(argv[i], usage);
    }
  }
  raw::common::MetricRegistry registry;
  raw::common::MetricRegistry* reg =
      metrics_json != nullptr ? &registry : nullptr;

  std::printf("Figure 7-3: per-tile utilization, 800-cycle window\n");
  run_case(64, csv, reg);
  run_case(1024, csv, reg);

  if (reg != nullptr) {
    if (!raw::common::json::write_file(metrics_json, reg->to_json())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_json);
      return 1;
    }
    std::printf("\nwrote %zu metrics to %s\n", reg->size(), metrics_json);
  }
  return 0;
}
