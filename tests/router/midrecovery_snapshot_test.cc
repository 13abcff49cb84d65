// Checkpoint digests on a *recovered* fabric: not the pristine early-cycle
// states the sim-level digest tests use, but a chip whose crossbar was
// reconfigured around a permanently dead tile and whose reliable-link layer
// has lived through retransmits. The post-drain degraded state is where the
// endurance soak's last checkpoint captures land in a permafreeze epoch.
// Its cycle and both digests must be identical across engines and when the
// chip is stepped on a worker thread: that is what lets a checkpoint anchor
// a replay regardless of how the original run was executed.
#include <gtest/gtest.h>

#include <thread>

#include "router/chaos.h"
#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace raw::router {
namespace {

// Bit flips (the link layer's retransmit path fires) plus a permanent tile
// freeze at run_cycles/2 (the recovery path reconfigures the crossbar
// mid-run) — the standard chaos schedule, derived from the seed so it is
// identical for both engines.
ChaosSpec mid_recovery_spec(bool force_dense) {
  ChaosSpec spec;
  spec.seed = 21;
  spec.mix = ChaosMix{.bitflips = true, .permanent_freeze = true};
  spec.run_cycles = 40000;
  spec.reliable_links = true;
  spec.recovery = true;
  spec.force_dense = force_dense;
  return spec;
}

struct MidRecoveryCapture {
  common::Cycle cycle = 0;
  std::uint64_t chip_digest = 0;
  std::uint64_t router_digest = 0;
};

MidRecoveryCapture run_to_degraded_drain(bool force_dense) {
  const ChaosSpec spec = mid_recovery_spec(force_dense);
  RawRouter router(router_config_for(spec), net::RouteTable::simple4(),
                   traffic_for(spec), spec.seed);
  sim::FaultPlan plan = make_fault_plan(spec, router);
  router.set_fault_plan(&plan);

  // The freeze lands at run_cycles/2; the default watchdog bound means the
  // trip (and the recovery) happen a little past run_cycles, so run longer.
  EXPECT_EQ(router.run(2 * spec.run_cycles), RunStatus::kDegraded);
  EXPECT_TRUE(router.degraded());
  EXPECT_TRUE(router.recovery_report().has_value());
  EXPECT_GT(router.schedule_generation(), 0);
  // The link layer retransmitted at least one corrupted word, so its replay
  // rings carry real history into the digests.
  EXPECT_GT(router.chip().link_retransmits(), 0u);

  EXPECT_TRUE(router.drain(spec.drain_cycles));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrainedDegraded);

  MidRecoveryCapture cap;
  cap.cycle = router.chip().cycle();
  cap.chip_digest = router.chip().state_digest();
  cap.router_digest = router.state_digest();
  return cap;
}

// The worker run steps the chip on a thread of its own, as a ClusterRunner
// worker steps each cluster chip.
TEST(MidRecoverySnapshotTest, RoundTripIdenticalAcrossEnginesAndWorkers) {
  const MidRecoveryCapture sparse = run_to_degraded_drain(false);
  const MidRecoveryCapture dense = run_to_degraded_drain(/*force_dense=*/true);
  MidRecoveryCapture worker;
  std::thread([&worker] {
    worker = run_to_degraded_drain(/*force_dense=*/false);
  }).join();
  for (const MidRecoveryCapture& other : {dense, worker}) {
    EXPECT_EQ(other.cycle, sparse.cycle);
    EXPECT_EQ(other.chip_digest, sparse.chip_digest);
    EXPECT_EQ(other.router_digest, sparse.router_digest);
  }
}

}  // namespace
}  // namespace raw::router
