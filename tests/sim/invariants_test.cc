// Invariant monitor and checkpoint ring tests (sim/invariants.h): check
// registration and sweep bookkeeping, the deterministic-first violation
// preference that keeps bundle replay consistent, the chip engine checks
// staying green on a live chip, and the ring keeping the last K digests.
#include "sim/invariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/chip.h"

namespace raw::sim {
namespace {

std::shared_ptr<const SwitchProgram> prog(const std::string& text) {
  std::string error;
  SwitchProgram p = assemble(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return std::make_shared<const SwitchProgram>(std::move(p));
}

TEST(InvariantMonitorTest, PassingChecksRecordNothing) {
  InvariantMonitor mon;
  mon.add_check("always_ok", [] { return std::string(); });
  EXPECT_EQ(mon.num_checks(), 1u);
  EXPECT_FALSE(mon.sweep(10).has_value());
  EXPECT_FALSE(mon.sweep(20).has_value());
  EXPECT_TRUE(mon.ok());
  EXPECT_EQ(mon.sweeps(), 2u);
  EXPECT_EQ(mon.checks_run(), 2u);
}

TEST(InvariantMonitorTest, ViolationCarriesNameDetailAndCycle) {
  InvariantMonitor mon;
  mon.add_check("books", [] { return std::string("off by one"); });
  const auto v = mon.sweep(42);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->name, "books");
  EXPECT_EQ(v->detail, "off by one");
  EXPECT_EQ(v->cycle, 42u);
  EXPECT_TRUE(v->deterministic);
  EXPECT_FALSE(mon.ok());
  ASSERT_EQ(mon.violations().size(), 1u);
}

// The stop-violation must not depend on registration order: a
// non-deterministic sentinel (RSS) registered first must never mask the
// deterministic finding that anchors a replay bundle.
TEST(InvariantMonitorTest, DeterministicViolationPreferredOverSentinel) {
  InvariantMonitor mon;
  mon.add_check("rss", [] { return std::string("blip"); },
                /*deterministic=*/false);
  mon.add_check("ledger", [] { return std::string("leak"); });
  const auto v = mon.sweep(7);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->name, "ledger");
  EXPECT_TRUE(v->deterministic);
  // Both violations are still recorded as evidence.
  EXPECT_EQ(mon.violations().size(), 2u);
}

TEST(InvariantMonitorTest, SentinelAloneStillReported) {
  InvariantMonitor mon;
  mon.add_check("rss", [] { return std::string("grew"); },
                /*deterministic=*/false);
  const auto v = mon.sweep(9);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->name, "rss");
  EXPECT_FALSE(v->deterministic);
}

TEST(InvariantMonitorTest, EngineChecksGreenOnLiveChip) {
  Chip chip;
  for (int t : {4, 5, 6, 7}) {
    chip.tile(t).switch_proc().load(prog("loop: jump loop | W>E"));
  }
  InvariantMonitor mon;
  mon.watch_chip(chip);
  EXPECT_GE(mon.num_checks(), 2u);
  for (int i = 0; i < 4; ++i) {
    chip.run(500);
    EXPECT_FALSE(mon.sweep(chip.cycle()).has_value()) << "sweep " << i;
  }
  EXPECT_TRUE(mon.ok());
}

// A transiently frozen tile executes nothing during its freeze window, so
// its switch counters legitimately fall short of wall-clock by the window
// length. The cycle-accounting check must credit the frozen overlap instead
// of firing (this was a real false positive in a billion-cycle soak).
TEST(InvariantMonitorTest, CycleAccountingCreditsTransientFreezes) {
  Chip chip;
  for (int t : {4, 5, 6, 7}) {
    chip.tile(t).switch_proc().load(prog("loop: jump loop | W>E"));
  }
  FaultPlan plan;
  const auto freeze = [](common::Cycle at, std::uint64_t duration) {
    FaultEvent e;
    e.kind = FaultKind::kTileFreeze;
    e.at = at;
    e.duration = duration;
    e.tile = 5;
    return e;
  };
  plan.add(freeze(100, 37));
  plan.add(freeze(600, 200));
  // Overlapping windows on one tile must be unioned, not summed.
  plan.add(freeze(650, 300));
  chip.set_fault_plan(&plan);
  InvariantMonitor mon;
  mon.watch_chip(chip);
  for (int i = 0; i < 4; ++i) {
    chip.run(500);
    const auto v = mon.sweep(chip.cycle());
    EXPECT_FALSE(v.has_value()) << "sweep " << i << ": " << v->detail;
  }
  EXPECT_TRUE(mon.ok());
}

TEST(CheckpointRingTest, KeepsTheLastKOldestFirst) {
  Chip chip;
  CheckpointRing ring(2);
  chip.run(10);
  ring.capture(chip, 111);
  chip.run(10);
  ring.capture(chip, 222);
  chip.run(10);
  ring.capture(chip, 333);
  EXPECT_EQ(ring.captured(), 3u);
  const std::vector<Checkpoint>& entries = ring.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cycle, 20u);
  EXPECT_EQ(entries[1].cycle, 30u);
  EXPECT_EQ(entries[0].owner_digest, 222u);
  EXPECT_EQ(entries[1].owner_digest, 333u);
}

TEST(CheckpointRingTest, CaptureRecordsChipDigest) {
  Chip chip;
  chip.tile(5).switch_proc().load(prog("loop: jump loop | W>E"));
  chip.run(17);
  CheckpointRing ring(1);
  const Checkpoint& ck = ring.capture(chip, 7);
  EXPECT_EQ(ck.cycle, chip.cycle());
  EXPECT_EQ(ck.chip_digest, chip.state_digest());
  EXPECT_EQ(ck.owner_digest, 7u);
}

}  // namespace
}  // namespace raw::sim
