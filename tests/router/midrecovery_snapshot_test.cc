// Snapshot/restore round-trip on a *recovered* fabric (satellite of the
// endurance work): not the pristine early-cycle captures the sim-level
// snapshot tests use, but a chip whose crossbar was reconfigured around a
// permanently dead tile and whose reliable-link layer has lived through
// retransmits. Chip::snapshot requires a quiet dynamic network, and after a
// recovery the in-flight lookup words addressed to the dead tile keep the
// network busy until a drain writes them off — so the capture point is the
// drained-degraded state, which is exactly where the endurance soak's
// checkpoint ring captures land in a permafreeze epoch. The capture cycle
// and both digests must also be identical across engines and when the chip
// is stepped on a worker thread: that is what lets a checkpoint anchor a
// replay regardless of how the original run was executed.
#include <gtest/gtest.h>

#include <thread>

#include "router/chaos.h"
#include "router/raw_router.h"
#include "sim/chip.h"
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

MidRecoveryCapture run_and_roundtrip(bool force_dense) {
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
  // rings carry real history into the snapshot.
  EXPECT_GT(router.chip().link_retransmits(), 0u);

  EXPECT_TRUE(router.drain(spec.drain_cycles));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrainedDegraded);

  sim::Chip& chip = router.chip();
  EXPECT_EQ(chip.dynamic_network()->words_in_flight(), 0u);

  MidRecoveryCapture cap;
  cap.cycle = chip.cycle();
  cap.chip_digest = chip.state_digest();
  cap.router_digest = router.state_digest();

  const sim::Chip::Snapshot snap = chip.snapshot();
  EXPECT_EQ(snap.cycle, cap.cycle);

  // Advance past the capture (drain mode keeps the cards from offering new
  // packets; the degraded switch fabric keeps executing), then rewind: the
  // restored chip must be byte-identical even though the reconfigured
  // schedule and the link replay rings all carry recovery state.
  chip.run(5000);
  EXPECT_NE(chip.cycle(), cap.cycle);
  chip.restore(snap);
  EXPECT_EQ(chip.cycle(), cap.cycle);
  EXPECT_EQ(chip.state_digest(), cap.chip_digest);
  return cap;
}

// The worker run steps the chip on a thread of its own, as a ClusterRunner
// worker steps each cluster chip.
TEST(MidRecoverySnapshotTest, RoundTripIdenticalAcrossEnginesAndWorkers) {
  const MidRecoveryCapture sparse = run_and_roundtrip(/*force_dense=*/false);
  const MidRecoveryCapture dense = run_and_roundtrip(/*force_dense=*/true);
  MidRecoveryCapture worker;
  std::thread([&worker] {
    worker = run_and_roundtrip(/*force_dense=*/false);
  }).join();
  for (const MidRecoveryCapture& other : {dense, worker}) {
    EXPECT_EQ(other.cycle, sparse.cycle);
    EXPECT_EQ(other.chip_digest, sparse.chip_digest);
    EXPECT_EQ(other.router_digest, sparse.router_digest);
  }
}

}  // namespace
}  // namespace raw::router
