// Fault-adaptive reconfiguration tests (router/recovery.h): a permanent
// tile freeze with recovery enabled must end Degraded (not Stalled), keep
// conservation, lose exactly the ports the dead tile carried, and keep
// delivering on the survivors.
#include "router/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "router/chaos.h"
#include "router/layout.h"
#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace raw::router {
namespace {

net::TrafficConfig traffic(double load = 0.9) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 256;
  t.load = load;
  return t;
}

RouterConfig recovery_config() {
  RouterConfig cfg;
  cfg.recovery.enabled = true;
  return cfg;
}

sim::FaultPlan permafreeze(int tile, common::Cycle at) {
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kTileFreeze;
  e.at = at;
  e.permanent = true;
  e.tile = tile;
  plan.add(std::move(e));
  return plan;
}

struct DegradedRun {
  RunStatus status = RunStatus::kOk;
  DrainOutcome outcome = DrainOutcome::kDrained;
  RecoveryReport report;
  std::uint64_t delivered = 0;
  std::uint64_t watchdog_trips = 0;
  bool conserved = false;
};

DegradedRun run_with_dead_tile(int tile, std::uint64_t seed) {
  RawRouter router(recovery_config(), net::RouteTable::simple4(), traffic(),
                   seed);
  sim::FaultPlan plan = permafreeze(tile, 8000);
  router.set_fault_plan(&plan);

  DegradedRun out;
  out.status = router.run(40000);
  out.outcome = router.drain(400000) ? router.drain_outcome()
                                     : router.drain_outcome();
  EXPECT_TRUE(router.recovery_report().has_value());
  if (router.recovery_report().has_value()) {
    out.report = *router.recovery_report();
  }
  out.delivered = router.delivered_packets();
  out.watchdog_trips = router.watchdog_trips();
  const PacketLedger& ledger = router.ledger();
  out.conserved = router.offered_packets() ==
                  router.dropped_at_card() + ledger.erased_total() +
                      ledger.in_flight.size();
  EXPECT_TRUE(router.degraded());
  EXPECT_EQ(router.recoveries(), 1u);
  EXPECT_EQ(router.schedule_generation(), 1);
  EXPECT_EQ(router.dead_tiles(), std::vector<int>{tile});
  return out;
}

TEST(RecoveryTest, DeadCrossbarTileEndsDegradedWithNoPortLoss) {
  // Tile 5 is port 0's crossbar-ring slot: the degraded fabric bypasses the
  // ring entirely, so no port is lost.
  const DegradedRun r = run_with_dead_tile(5, 11);
  EXPECT_EQ(r.status, RunStatus::kDegraded);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrainedDegraded);
  EXPECT_EQ(r.watchdog_trips, 0u);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.report.lost_rx_ports.empty());
  EXPECT_TRUE(r.report.lost_tx_ports.empty());
  // Forwarding resumed after reconfiguration, on every port.
  EXPECT_GT(r.delivered, r.report.delivered_at_reconfigure);
}

TEST(RecoveryTest, DeadLookupTileEndsDegradedWithNoPortLoss) {
  // Corner tiles run the shared-lookup engines; degraded ingress does the
  // lookup locally, so a dead corner costs nothing but latency.
  const DegradedRun r = run_with_dead_tile(0, 12);
  EXPECT_EQ(r.status, RunStatus::kDegraded);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrainedDegraded);
  EXPECT_EQ(r.watchdog_trips, 0u);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.report.lost_rx_ports.empty());
  EXPECT_TRUE(r.report.lost_tx_ports.empty());
  EXPECT_GT(r.delivered, r.report.delivered_at_reconfigure);
}

TEST(RecoveryTest, DeadIngressTileLosesOnlyItsRxPort) {
  const Layout layout;
  int port = -1;
  for (int p = 0; p < kNumPorts; ++p) {
    if (layout.port(p).ingress == 4) port = p;
  }
  ASSERT_GE(port, 0);

  const DegradedRun r = run_with_dead_tile(4, 13);
  EXPECT_EQ(r.status, RunStatus::kDegraded);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrainedDegraded);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.report.lost_rx_ports, std::vector<int>{port});
  EXPECT_TRUE(r.report.lost_tx_ports.empty());
  // The surviving three rx ports still reach all four tx ports.
  EXPECT_GT(r.delivered, r.report.delivered_at_reconfigure);
}

TEST(RecoveryTest, DeadEgressTileLosesOnlyItsTxPort) {
  const Layout layout;
  int port = -1;
  for (int p = 0; p < kNumPorts; ++p) {
    if (layout.port(p).egress == 1) port = p;
  }
  ASSERT_GE(port, 0);

  const DegradedRun r = run_with_dead_tile(1, 14);
  EXPECT_EQ(r.status, RunStatus::kDegraded);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrainedDegraded);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.report.lost_rx_ports.empty());
  EXPECT_EQ(r.report.lost_tx_ports, std::vector<int>{port});
  EXPECT_GT(r.delivered, r.report.delivered_at_reconfigure);
}

TEST(RecoveryTest, RecoveryDisabledStillStalls) {
  // Same schedule without recovery: the watchdog trips and the run stalls —
  // recovery must be opt-in.
  RouterConfig cfg = recovery_config();
  cfg.recovery.enabled = false;
  RawRouter router(cfg, net::RouteTable::simple4(), traffic(), 11);
  sim::FaultPlan plan = permafreeze(5, 8000);
  router.set_fault_plan(&plan);
  EXPECT_EQ(router.run(40000), RunStatus::kStalled);
  EXPECT_GE(router.watchdog_trips(), 1u);
  EXPECT_FALSE(router.degraded());
  EXPECT_FALSE(router.recovery_report().has_value());
}

TEST(RecoveryTest, ChaosPermafreezeWithRecoveryPasses) {
  ChaosSpec spec;
  spec.seed = 4;
  spec.mix.permanent_freeze = true;
  spec.run_cycles = 20000;
  spec.recovery = true;
  const ChaosResult r = run_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.watchdog_trips, 0u);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrainedDegraded);
  EXPECT_GT(r.delivered, 0u);
}

TEST(RecoveryTest, AllMixesCompleteWithLinksAndRecovery) {
  // The acceptance sweep: every standard mix, reliable links + recovery on.
  // Transient mixes must finish clean (zero watchdog stalls); permanent
  // mixes must end degraded and still deliver. run_chaos validates all of
  // that internally — a pass here is the full invariant set.
  for (const ChaosMix& mix : standard_mixes()) {
    ChaosSpec spec;
    spec.seed = 5;
    spec.mix = mix;
    spec.run_cycles = 20000;
    spec.reliable_links = true;
    spec.recovery = true;
    const ChaosResult r = run_chaos(spec);
    EXPECT_TRUE(r.pass) << mix.name() << ": " << r.failure;
    EXPECT_GT(r.delivered, 0u) << mix.name();
    if (mix.permanent_freeze) {
      EXPECT_TRUE(r.degraded) << mix.name();
    } else {
      EXPECT_EQ(r.watchdog_trips, 0u) << mix.name();
      EXPECT_FALSE(r.degraded) << mix.name();
    }
  }
}

}  // namespace
}  // namespace raw::router
