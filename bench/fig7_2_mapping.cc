// Experiment E3 — Figure 7-2: mapping of router functional elements to Raw
// tile numbers, plus the compiled switch-program footprint per tile class.
//
//   ./fig7_2_mapping [--metrics-json FILE]
#include <cstdio>
#include <cstring>

#include "common/json.h"
#include "common/metrics.h"
#include "router/schedule_compiler.h"

#include "count_flag.h"

namespace {

void usage() {
  std::fprintf(stderr, "usage: fig7_2_mapping [--metrics-json FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raw::router;
  const char* metrics_json = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
      metrics_json = argv[++i];
    } else {
      raw::tools::unknown_flag(argv[i], usage);
    }
  }
  const Layout layout;
  const ScheduleCompiler compiler(layout);

  std::printf("Figure 7-2: mapping of router functional elements to Raw tiles\n\n");
  std::printf("grid (tile numbers are row-major on the 4x4 mesh):\n\n");

  const char* role[16] = {};
  char labels[16][24];
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles t = layout.port(p);
    std::snprintf(labels[t.ingress], sizeof labels[0], "In%d", p);
    std::snprintf(labels[t.lookup], sizeof labels[0], "Lookup%d", p);
    std::snprintf(labels[t.crossbar], sizeof labels[0], "Xbar%d", p);
    std::snprintf(labels[t.egress], sizeof labels[0], "Out%d", p);
    role[t.ingress] = labels[t.ingress];
    role[t.lookup] = labels[t.lookup];
    role[t.crossbar] = labels[t.crossbar];
    role[t.egress] = labels[t.egress];
  }
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int t = r * 4 + c;
      std::printf("  %2d:%-8s", t, role[t] != nullptr ? role[t] : "-");
    }
    std::printf("\n");
  }

  std::printf("\nper-port tile assignment:\n");
  std::printf("  port | ingress | lookup | crossbar | egress\n");
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles t = layout.port(p);
    std::printf("  %4d | %7d | %6d | %8d | %6d\n", p, t.ingress, t.lookup,
                t.crossbar, t.egress);
  }
  std::printf("\n(thesis Figure 7-3 confirms ingress tiles 4, 7, 8, 11; the\n"
              "crossbar ring runs clockwise through tiles 5 -> 6 -> 10 -> 9)\n");

  std::printf("\ncompiled switch-program sizes (of %zu-word switch imem):\n",
              raw::sim::kSwitchImemWords);
  const auto cb = compiler.compile_crossbar(0);
  const auto in = compiler.compile_ingress(0);
  const auto eg = compiler.compile_egress(0);
  std::printf("  crossbar: %4zu instructions (%zu code blocks)\n",
              cb.program->size(), cb.blocks.size());
  std::printf("  ingress : %4zu instructions\n", in.program->size());
  std::printf("  egress  : %4zu instructions\n", eg.program->size());

  if (metrics_json != nullptr) {
    raw::common::MetricRegistry reg;
    reg.counter("fig7_2/program_words/crossbar")
        .set(static_cast<std::uint64_t>(cb.program->size()));
    reg.counter("fig7_2/program_words/ingress")
        .set(static_cast<std::uint64_t>(in.program->size()));
    reg.counter("fig7_2/program_words/egress")
        .set(static_cast<std::uint64_t>(eg.program->size()));
    reg.counter("fig7_2/switch_imem_words")
        .set(static_cast<std::uint64_t>(raw::sim::kSwitchImemWords));
    if (!raw::common::json::write_file(metrics_json, reg.to_json())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_json);
      return 1;
    }
    std::printf("\nwrote %zu metrics to %s\n", reg.size(), metrics_json);
  }
  return 0;
}
