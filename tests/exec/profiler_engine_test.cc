// Engine-level profiler guarantees: attaching a profiler never changes what
// the simulation computes (state digests identical to an unprofiled run),
// and the flight recorder actually captures the
// stall-marked snapshot a watchdog StallReport forces.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/profiler.h"
#include "router/chaos.h"
#include "router/raw_router.h"

namespace raw::router {
namespace {

net::TrafficConfig uniform_traffic() {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 256;
  t.load = 0.9;
  return t;
}

std::uint64_t run_digest(int threads, bool profiled) {
  RouterConfig cfg;
  cfg.threads = threads;
  RawRouter router(cfg, net::RouteTable::simple4(), uniform_traffic(), 7);
  common::Profiler prof;
  if (profiled) {
    prof.enable_flight(/*capacity=*/16, /*interval=*/1000);
    router.set_profiler(&prof);
    prof.start();
  }
  router.run(12000);
  EXPECT_TRUE(router.drain(300000));
  if (profiled) {
    prof.stop();
    // The profiler really ran: it attributed time and snapped periodically.
    EXPECT_GT(prof.phase_ns_sum(), 0u);
    EXPECT_GT(prof.flight_recorded(), 0u);
  }
  return router.state_digest();
}

// RouterConfig::threads accepts 0 and 1; both step the chip serially.
TEST(ProfilerEngineTest, DigestUnchangedByProfilingAcrossWorkerCounts) {
  const std::uint64_t baseline = run_digest(/*threads=*/1, /*profiled=*/false);
  for (const int threads : {0, 1}) {
    EXPECT_EQ(run_digest(threads, /*profiled=*/true), baseline)
        << "threads=" << threads;
  }
}

TEST(ProfilerEngineTest, StallReportForcesMarkedFlightSnapshot) {
  // A permanent tile freeze without recovery wedges the fabric: the watchdog
  // raises a StallReport and the router must force a stall-marked snapshot.
  ChaosSpec spec;
  spec.seed = 3;
  spec.mix.permanent_freeze = true;
  spec.run_cycles = 20000;
  common::Profiler prof;
  prof.enable_flight(/*capacity=*/32, /*interval=*/500);
  spec.profiler = &prof;

  const ChaosResult r = run_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_FALSE(r.stall_summary.empty());

  bool saw_stall_snap = false;
  for (const auto& s : prof.flight()) saw_stall_snap |= s.on_stall;
  EXPECT_TRUE(saw_stall_snap);
  // The harness bracketed the run, so coverage is meaningful (not zero).
  EXPECT_GT(prof.wall_ns(), 0u);
  EXPECT_GT(prof.coverage(), 0.0);
}

}  // namespace
}  // namespace raw::router
