// Metric-name lint: every name any subsystem exports into a MetricRegistry
// obeys the ^[a-z0-9_/]+$ grammar (lowercase path segments, no dots or
// spaces — see common::sanitize_metric_name) and is unique. The registry is
// populated the expensive way — a full router with channel stats, reliable
// links, recovery, an attached fault plan, and the engine profiler — so a
// new exporter that leaks an unsanitized name (channel names carry dots and
// uppercase) fails here instead of in downstream dashboards.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/metrics.h"
#include "common/profiler.h"
#include "router/chaos.h"
#include "router/raw_router.h"

namespace raw::router {
namespace {

bool lint_ok(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
          c == '/')) {
      return false;
    }
  }
  return true;
}

TEST(MetricLintTest, EveryExportedNameIsWellFormedAndUnique) {
  RouterConfig cfg;
  cfg.channel_stats = true;  // per-channel names come from the chip wires
  cfg.link.enabled = true;
  cfg.recovery.enabled = true;

  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 256;
  t.load = 0.9;
  RawRouter router(cfg, net::RouteTable::simple4(), t, 1);

  ChaosSpec spec;
  spec.mix.bitflips = true;
  spec.mix.stalls = true;
  spec.run_cycles = 4000;
  sim::FaultPlan plan = make_fault_plan(spec, router);
  router.set_fault_plan(&plan);

  common::Profiler prof;
  prof.enable_flight(/*capacity=*/8, /*interval=*/1000);
  router.set_profiler(&prof);

  prof.start();
  router.run(4000);
  prof.stop();

  common::MetricRegistry reg;
  router.export_metrics(reg);
  prof.export_metrics(reg);

  const auto snap = reg.snapshot();
  // The fully-populated registry is large (ports, tiles, channels, faults,
  // recovery, profile); a small count means something failed to export.
  ASSERT_GT(snap.size(), 100u);
  std::set<std::string> seen;
  for (const auto& s : snap) {
    EXPECT_TRUE(lint_ok(s.name)) << "bad metric name: " << s.name;
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate name: " << s.name;
  }
}

}  // namespace
}  // namespace raw::router
