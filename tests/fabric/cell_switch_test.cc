#include "fabric/cell_switch.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace raw::fabric {
namespace {

std::unique_ptr<CellSwitch> make_voq_islip(int ports = 4) {
  CellSwitchConfig cfg;
  cfg.ports = ports;
  cfg.queueing = QueueingMode::kVoq;
  return std::make_unique<CellSwitch>(cfg,
                                      std::make_unique<IslipScheduler>(ports));
}

std::vector<std::optional<ArrivingPacket>> no_arrivals(int ports) {
  return std::vector<std::optional<ArrivingPacket>>(
      static_cast<std::size_t>(ports));
}

TEST(CellSwitchTest, SingleCellCrossesInOneSlot) {
  auto sw = make_voq_islip();
  auto arrivals = no_arrivals(4);
  arrivals[0] = ArrivingPacket{2, 1};
  sw->step(arrivals);
  EXPECT_EQ(sw->delivered_cells(), 1u);
  EXPECT_EQ(sw->delivered_at_output(2), 1u);
  EXPECT_EQ(sw->delay().mean(), 0.0);
}

TEST(CellSwitchTest, CellConservation) {
  auto sw = make_voq_islip();
  common::Rng rng(1);
  sw->run_uniform(5000, 0.8, rng);
  // Drain.
  auto arrivals = no_arrivals(4);
  for (int s = 0; s < 5000; ++s) sw->step(arrivals);
  EXPECT_EQ(sw->offered_cells(),
            sw->delivered_cells() + sw->dropped_cells());
  EXPECT_EQ(sw->dropped_cells(), 0u);
  std::uint64_t outs = 0;
  for (int o = 0; o < 4; ++o) outs += sw->delivered_at_output(o);
  EXPECT_EQ(outs, sw->delivered_cells());
}

TEST(CellSwitchTest, VoqIslipNearFullThroughputAtSaturation) {
  auto sw = make_voq_islip();
  common::Rng rng(2);
  sw->run_uniform(20000, 1.0, rng);
  EXPECT_GT(sw->throughput(), 0.95);
}

TEST(CellSwitchTest, FifoHolThroughputCeiling) {
  CellSwitchConfig cfg;
  cfg.ports = 16;  // the 58.6% asymptote needs N reasonably large
  cfg.queueing = QueueingMode::kFifo;
  CellSwitch sw(cfg, std::make_unique<FifoHolScheduler>(cfg.ports));
  common::Rng rng(3);
  sw.run_uniform(20000, 1.0, rng);
  EXPECT_LT(sw.throughput(), 0.66);
  EXPECT_GT(sw.throughput(), 0.50);
}

TEST(CellSwitchTest, OutputQueuedIdealIsFullThroughput) {
  CellSwitchConfig cfg;
  cfg.ports = 4;
  cfg.output_queued_ideal = true;
  CellSwitch sw(cfg, nullptr);
  common::Rng rng(4);
  sw.run_uniform(20000, 1.0, rng);
  EXPECT_GT(sw.throughput(), 0.97);
}

TEST(CellSwitchTest, LightLoadDelaysSmall) {
  auto sw = make_voq_islip();
  common::Rng rng(5);
  sw->run_uniform(20000, 0.1, rng);
  EXPECT_LT(sw->delay().mean(), 1.0);
}

TEST(CellSwitchTest, VariableLengthHoldsConnection) {
  auto sw = make_voq_islip();
  auto arrivals = no_arrivals(4);
  arrivals[0] = ArrivingPacket{1, 3};  // 3-cell packet
  sw->step(arrivals);
  EXPECT_EQ(sw->delivered_cells(), 1u);
  EXPECT_EQ(sw->delivered_packets(), 0u);
  // While held, a competing single-cell packet to the same output must wait.
  arrivals = no_arrivals(4);
  arrivals[2] = ArrivingPacket{1, 1};
  sw->step(arrivals);
  EXPECT_EQ(sw->delivered_cells(), 2u);   // second cell of the worm only
  EXPECT_EQ(sw->delivered_at_output(1), 2u);
  sw->step(no_arrivals(4));  // tail cell
  EXPECT_EQ(sw->delivered_packets(), 1u);
  sw->step(no_arrivals(4));  // now the competing cell goes
  EXPECT_EQ(sw->delivered_packets(), 2u);
}

TEST(CellSwitchTest, DropsWhenQueueFull) {
  CellSwitchConfig cfg;
  cfg.ports = 2;
  cfg.queue_capacity_cells = 2;
  CellSwitch sw(cfg, std::make_unique<IslipScheduler>(2));
  auto arrivals = no_arrivals(2);
  // Two inputs both flood output 0; input backlog grows past capacity.
  for (int s = 0; s < 10; ++s) {
    arrivals[0] = ArrivingPacket{0, 1};
    arrivals[1] = ArrivingPacket{0, 1};
    sw.step(arrivals);
  }
  EXPECT_GT(sw.dropped_cells(), 0u);
  EXPECT_LE(sw.backlog(0), 2u);
  EXPECT_LE(sw.backlog(1), 2u);
}

TEST(CellSwitchTest, BacklogIsQueuedCellsPerInput) {
  // Multi-cell packets under overload, both queueing modes: input i's
  // backlog is the cells it accepted minus the cells it sent, and an
  // arrival is accepted exactly when it fits under the capacity.
  for (const QueueingMode mode : {QueueingMode::kVoq, QueueingMode::kFifo}) {
    CellSwitchConfig cfg;
    cfg.ports = 4;
    cfg.queueing = mode;
    cfg.queue_capacity_cells = 40;
    std::unique_ptr<Scheduler> sched;
    if (mode == QueueingMode::kVoq) {
      sched = std::make_unique<IslipScheduler>(4);
    } else {
      sched = std::make_unique<FifoHolScheduler>(4);
    }
    CellSwitch sw(cfg, std::move(sched));
    common::Rng rng(5);
    std::vector<std::uint64_t> accepted(4, 0);
    std::uint64_t offered = 0;
    auto arrivals = no_arrivals(4);
    for (int s = 0; s < 2000; ++s) {
      for (std::size_t i = 0; i < 4; ++i) {
        const int in = static_cast<int>(i);
        const std::uint64_t queued = accepted[i] - sw.delivered_from_input(in);
        ASSERT_EQ(sw.backlog(in), queued) << "slot " << s << " input " << i;
        const auto cells = static_cast<std::uint32_t>(1 + rng.below(4));
        arrivals[i] = ArrivingPacket{static_cast<int>(rng.below(4)), cells};
        offered += cells;
        if (queued + cells <= cfg.queue_capacity_cells) accepted[i] += cells;
      }
      sw.step(arrivals);
    }
    EXPECT_GT(sw.dropped_cells(), 0u);
    EXPECT_EQ(sw.dropped_cells(),
              offered - (accepted[0] + accepted[1] + accepted[2] + accepted[3]));
  }
}

TEST(CellSwitchTest, PermutationTrafficIsConflictFree) {
  auto sw = make_voq_islip();
  auto arrivals = no_arrivals(4);
  for (int s = 0; s < 1000; ++s) {
    for (int i = 0; i < 4; ++i) arrivals[static_cast<std::size_t>(i)] =
        ArrivingPacket{(i + 1) % 4, 1};
    sw->step(arrivals);
  }
  EXPECT_GT(sw->throughput(), 0.99);
  EXPECT_LT(sw->delay().max(), 3.0);
}

TEST(CellSwitchTest, DeterministicAcrossRuns) {
  auto run = []() {
    auto sw = make_voq_islip();
    common::Rng rng(42);
    sw->run_uniform(3000, 0.9, rng);
    return std::make_pair(sw->delivered_cells(), sw->delay().mean());
  };
  EXPECT_EQ(run(), run());
}

TEST(CellSwitchTest, InputFairnessUnderUniformSaturation) {
  auto sw = make_voq_islip();
  common::Rng rng(6);
  sw->run_uniform(20000, 1.0, rng);
  double per_input[4];
  for (int i = 0; i < 4; ++i) {
    per_input[i] = static_cast<double>(sw->delivered_from_input(i));
  }
  EXPECT_GT(common::jain_fairness(per_input, 4), 0.99);
}

}  // namespace
}  // namespace raw::fabric
