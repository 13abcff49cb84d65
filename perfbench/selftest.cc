// Self-tests of the benchmark itself: metric names, the span and ratio
// arithmetic on a deterministic clock, the correctness gate, and the
// repeatability of every exact-count metric.
//
//   perfbench_selftest        (exit 0 when every check passes)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  const bool ok = std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  expect(ok, what + ": got " + std::to_string(got) + ", want " +
                 std::to_string(want));
}

// A clock that advances exactly 1000 ns per read.
std::uint64_t g_tick = 0;
std::uint64_t tick_clock() { return g_tick += 1000; }

// Tiny runs of every workload, small enough for a test.
perfbench::Params tiny(bool trace) {
  perfbench::Params p;
  p.seed = 7;
  p.seconds = 0.0;
  p.min_reps = 2;
  p.trace = trace;
  p.inputs = 2;
  p.router_cycles = 4000;
  p.run_chunk_cycles = 1000;
  p.soak_epoch_cycles = 4000;
  p.cluster_cycles = 2000;
  p.cluster_workers = 1;
  p.config_timed_rings = {4};
  p.config_once_rings = {6};
  return p;
}

void test_metric_names() {
  for (const auto* list :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    for (const perfbench::MetricSpec& m : *list) {
      expect(perfbench::valid_metric_name(m.name), "metric name " + m.name);
    }
  }
  for (const char* bad : {"", "a b", "x/y", "_lead", "p99%", "naïve"}) {
    expect(!perfbench::valid_metric_name(bad),
           std::string("rejects metric name '") + bad + "'");
  }
  expect(perfbench::valid_metric_name("soak.ns_per_cycle.flip-stall"),
         "accepts dots, dashes and underscores");
}

void test_span_self_time() {
  g_tick = 0;
  perfbench::SpanLog log(true, tick_clock);
  const perfbench::SpanLog::Open a = log.open("bench", "op");   // t=1000
  const perfbench::SpanLog::Open b = log.open("router", "run");  // t=2000
  expect(log.close(b) == 1000, "child span lasts one tick");     // t=3000
  log.attribute(b, "sim", 400);
  expect(log.close(a) == 3000, "parent span lasts three ticks");  // t=4000
  const auto self = log.self_ns_by_layer();
  expect(self.at("bench") == 2000, "bench self time excludes its child");
  expect(self.at("router") == 600, "router self time excludes sim");
  expect(self.at("sim") == 400, "sim gets its attributed time");
  expect(log.spans()[1].parent == 0, "child records its parent");

  perfbench::SpanLog off(false, tick_clock);
  const perfbench::SpanLog::Open o = off.open("bench", "op");
  expect(off.close(o) == 1000, "an unrecorded span is still timed");
  expect(off.spans().empty(), "an unrecorded span is not stored");
}

// On the tick clock every timed call, the host calibration included, lasts
// exactly 1000 ns, so the per-layer ratios follow from the run's exact counts
// and the host-time scale is kCalibrationRefNs / 1000.
void test_router_ratios() {
  g_tick = 0;
  perfbench::Params p = tiny(false);
  p.clock = tick_clock;
  p.inputs = 1;  // every repetition identical, so medians are exact
  const perfbench::Result r = perfbench::run_workload("router_64B", p);
  expect(r.gate.failed() == 0, "tiny router run passes its checks");
  const perfbench::Report& l = r.per_layer;
  const perfbench::Report& e = r.end_to_end;
  const double f = perfbench::kCalibrationRefNs / 1000.0;
  const double chunks = 4.0;  // 4000 cycles in 1000-cycle run calls
  const double op_ns = (chunks + 1.0) * 1000.0;  // run calls plus the drain
  expect_near(e.get("setup_s").value, f * 1000.0 / 1e9, "setup_s");
  expect_near(l.get("router.ctor_ms").value, f * 1000.0 / 1e6,
              "router.ctor_ms");
  expect_near(l.get("router.run_ns_per_cycle").value,
              f * chunks * 1000.0 / 4000.0, "router.run_ns_per_cycle");
  expect_near(l.get("router.ns_per_delivered_packet").value,
              f * op_ns / l.get("router.delivered_packets").value,
              "router.ns_per_delivered_packet");
  expect_near(l.get("router.ns_per_static_word").value,
              f * op_ns / l.get("sim.static_words").value,
              "router.ns_per_static_word");
  // work_per_s is cycles per scaled op_ns, which gives the cycle count.
  const double cycles = e.get("work_per_s").value * f * op_ns / 1e9;
  expect_near(cycles, std::round(cycles), "whole simulated cycles");
  expect_near(l.get("router.drain_ns_per_cycle").value,
              f * 1000.0 / (cycles - 4000.0), "router.drain_ns_per_cycle");
}

void test_wrong_digest_fails() {
  const perfbench::Params base = tiny(false);
  perfbench::References refs = perfbench::pinned_references();
  perfbench::Params p = base;
  p.refs = &refs;
  // Learn the tiny run's digest from a run whose seed is not pinned.
  refs.default_seed = base.seed + 1;
  const perfbench::Result learn = perfbench::run_workload("router_64B", p);
  std::uint64_t digest = 0;
  for (const std::string& n : learn.notes) {
    const std::size_t at = n.find("digest 0x");
    if (at != std::string::npos) {
      digest = std::stoull(n.substr(at + 9), nullptr, 16);
    }
  }
  expect(digest != 0, "tiny run reports its digest");

  refs.default_seed = base.seed;
  refs.router_64B_digest = digest;
  const perfbench::Result good = perfbench::run_workload("router_64B", p);
  expect(good.gate.failed() == 0, "the right pinned digest passes");

  refs.router_64B_digest = digest ^ 1;
  const perfbench::Result bad = perfbench::run_workload("router_64B", p);
  expect(bad.gate.failed() == 1, "a wrong pinned digest fails one operation");
  expect(bad.gate.attempted() == good.gate.attempted(),
         "a failed operation still counts as attempted");

  refs.config_space[4].second += 1;
  const perfbench::Result space = perfbench::run_workload("config_space", p);
  expect(space.gate.failed() >= 1, "a wrong pinned ring count fails");
}

// The second run repeats more often, as a faster host would in the same
// time budget; exact counts must not notice.
void test_exact_counts_repeat() {
  perfbench::Params longer = tiny(true);
  longer.min_reps = 3;
  for (const std::string& w : perfbench::workload_names()) {
    const perfbench::Result a = perfbench::run_workload(w, tiny(true));
    const perfbench::Result b = perfbench::run_workload(w, longer);
    expect(a.gate.failed() == 0 && b.gate.failed() == 0,
           w + " tiny runs pass their checks");
    if (!a.gate.messages().empty()) {
      std::printf("  %s: %s\n", w.c_str(), a.gate.messages().front().c_str());
    }
    for (const perfbench::MetricSpec& m : perfbench::per_layer_metrics()) {
      if (!m.exact) continue;
      const double va = a.per_layer.get(m.name).value;
      const double vb = b.per_layer.get(m.name).value;
      expect(va == vb, w + " " + m.name + " repeats: " + std::to_string(va) +
                           " vs " + std::to_string(vb));
    }
    expect(a.end_to_end.get("paper_gap_pct").value ==
               b.end_to_end.get("paper_gap_pct").value,
           w + " paper_gap_pct repeats");
  }
}

}  // namespace

int main() {
  test_metric_names();
  test_span_self_time();
  test_router_ratios();
  test_wrong_digest_fails();
  test_exact_counts_repeat();
  if (g_failures == 0) {
    std::printf("perfbench self-tests passed\n");
    return 0;
  }
  std::printf("%d perfbench self-test check(s) failed\n", g_failures);
  return 1;
}
