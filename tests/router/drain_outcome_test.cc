// Every DrainOutcome path, exercised under the (default) sparse engine at
// both values RouterConfig::threads accepts (0 and 1, each a serial chip).
// Each crafted scenario must produce the same outcome at both.
#include <gtest/gtest.h>

#include <vector>

#include "router/layout.h"
#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace raw::router {
namespace {

net::TrafficConfig traffic() {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 256;
  t.load = 0.9;
  return t;
}

class DrainOutcomeTest : public ::testing::TestWithParam<int> {
 protected:
  RouterConfig config(bool recovery = false) const {
    RouterConfig cfg;
    cfg.threads = GetParam();
    cfg.recovery.enabled = recovery;
    return cfg;
  }
};

TEST_P(DrainOutcomeTest, CleanRunDrains) {
  RawRouter router(config(), net::RouteTable::simple4(), traffic(), 31);
  EXPECT_EQ(router.run(8000), RunStatus::kOk);
  EXPECT_TRUE(router.drain(400000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrained);
}

TEST_P(DrainOutcomeTest, ZeroBudgetWithWorkPendingTimesOut) {
  RawRouter router(config(), net::RouteTable::simple4(), traffic(), 31);
  (void)router.run(5000);
  ASSERT_FALSE(router.ledger().in_flight.empty());
  EXPECT_FALSE(router.drain(0));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kTimeout);
}

TEST_P(DrainOutcomeTest, FreezeDuringDrainStalls) {
  // The permanent freeze lands after run() returns, so the watchdog trip —
  // and the Stalled outcome — belong to the drain itself.
  RawRouter router(config(), net::RouteTable::simple4(), traffic(), 31);
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kTileFreeze;
  e.at = 9000;
  e.permanent = true;
  e.tile = 6;
  plan.add(std::move(e));
  router.set_fault_plan(&plan);

  EXPECT_EQ(router.run(8000), RunStatus::kOk);
  EXPECT_FALSE(router.drain(400000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kStalled);
  EXPECT_TRUE(router.stall_report().has_value());
}

TEST_P(DrainOutcomeTest, FreezeDuringDrainWithRecoveryDrainsDegraded) {
  // Same schedule with recovery enabled: the mid-drain trip reconfigures
  // instead of stalling and the drain completes on the degraded fabric.
  RawRouter router(config(/*recovery=*/true), net::RouteTable::simple4(),
                   traffic(), 31);
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kTileFreeze;
  e.at = 9000;
  e.permanent = true;
  e.tile = 6;
  plan.add(std::move(e));
  router.set_fault_plan(&plan);

  EXPECT_EQ(router.run(8000), RunStatus::kOk);
  EXPECT_TRUE(router.drain(400000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrainedDegraded);
  EXPECT_TRUE(router.degraded());
  EXPECT_EQ(router.watchdog_trips(), 0u);
}

TEST_P(DrainOutcomeTest, CorruptedUidQuiescesWithLoss) {
  // A barrage of bit flips on port 0's ingress edge: flips that land on a
  // header word corrupt the packet's ledger identity, so the entry can never
  // be matched again and the drain must write it off as lost.
  RawRouter router(config(), net::RouteTable::simple4(), traffic(), 31);
  const PortTiles tiles = router.layout().port(0);
  const PortEdges dirs = router.layout().edges(0);
  const std::string edge =
      router.chip().io_port(0, tiles.ingress, dirs.ingress_edge).to_chip->name();

  sim::FaultPlan plan;
  for (int i = 0; i < 140; ++i) {
    sim::FaultEvent e;
    e.kind = sim::FaultKind::kBitFlip;
    e.at = 500 + static_cast<common::Cycle>(i) * 53;
    e.channel = edge;
    e.bit = 17;
    plan.add(std::move(e));
  }
  router.set_fault_plan(&plan);

  (void)router.run(8000);
  EXPECT_FALSE(router.drain(400000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kLossQuiesced);
  EXPECT_GT(router.lost_packets(), 0u);
  // The write-off keeps the conservation identity closed.
  const PacketLedger& ledger = router.ledger();
  EXPECT_EQ(router.offered_packets(),
            router.dropped_at_card() + ledger.erased_total() +
                ledger.in_flight.size());
}

INSTANTIATE_TEST_SUITE_P(Workers, DrainOutcomeTest, ::testing::Values(0, 1));

}  // namespace
}  // namespace raw::router
