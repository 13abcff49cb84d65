#include "sim/tile_task.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/channel.h"
#include "test_clock.h"

namespace raw::sim {
namespace {

using task::delay;
using task::mem_delay;
using task::read;
using task::write;

// Steps a task for one cycle of the test clock.
AgentState cycle(TestClock& clk, TileTask& t) {
  const AgentState s = t.step();
  clk.tick();
  return s;
}

TEST(TileTaskTest, RunsToCompletion) {
  TestClock clk;
  auto body = []() -> TileTask { co_return; };
  TileTask t = body();
  EXPECT_FALSE(t.done());
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(cycle(clk, t), AgentState::kIdle);
}

TEST(TileTaskTest, DelayChargesExactCycles) {
  TestClock clk;
  auto body = []() -> TileTask { co_await delay(5); };
  TileTask t = body();
  int busy = 0;
  while (!t.done()) {
    ASSERT_EQ(cycle(clk, t), AgentState::kBusy);
    ++busy;
    ASSERT_LT(busy, 100);
  }
  // 1 cycle to start + 5 delay cycles (the 5th resumes and finishes).
  EXPECT_EQ(busy, 6);
}

TEST(TileTaskTest, ZeroDelayIsFree) {
  TestClock clk;
  auto body = []() -> TileTask {
    co_await delay(0);
    co_await delay(0);
  };
  TileTask t = body();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);
  EXPECT_TRUE(t.done());
}

TEST(TileTaskTest, MemDelayTracedAsMemoryStall) {
  TestClock clk;
  auto body = []() -> TileTask { co_await mem_delay(3); };
  TileTask t = body();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);  // initial resume
  EXPECT_EQ(cycle(clk, t), AgentState::kBlockedMem);
  EXPECT_EQ(cycle(clk, t), AgentState::kBlockedMem);
  EXPECT_EQ(cycle(clk, t), AgentState::kBlockedMem);
  EXPECT_TRUE(t.done());
}

TEST(TileTaskTest, ReadBlocksUntilDataAvailable) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  common::Word got = 0;
  auto body = [&]() -> TileTask { got = co_await read(ch); };
  TileTask t = body();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);         // reach the await
  EXPECT_EQ(cycle(clk, t), AgentState::kBlockedRecv);  // nothing there
  ch.write(123);
  clk.tick();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);  // read fires
  EXPECT_TRUE(t.done());
  EXPECT_EQ(got, 123u);
}

TEST(TileTaskTest, WriteBlocksOnFullChannel) {
  TestClock clk;
  Channel ch(clk.engine, "c", 1);
  auto body = [&]() -> TileTask {
    co_await write(ch, 1);
    co_await write(ch, 2);
  };
  TileTask t = body();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);  // reach first await
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);  // first write lands
  // Channel (capacity 1) now holds word 1; second write must block.
  EXPECT_EQ(cycle(clk, t), AgentState::kBlockedSend);
  (void)ch.read();
  clk.tick();
  EXPECT_EQ(cycle(clk, t), AgentState::kBusy);  // second write lands
  EXPECT_TRUE(t.done());
}

TEST(TileTaskTest, OneNetworkOpPerCycle) {
  // A tight read loop moves at most one word per two cycles through the
  // processor (read cycle + loop-back to the next await's service cycle is
  // the same cycle it resumes, so effectively one word per cycle of resume).
  TestClock clk;
  Channel in(clk.engine, "in");
  Channel out(clk.engine, "out");
  auto body = [&]() -> TileTask {
    for (int i = 0; i < 3; ++i) {
      const common::Word w = co_await read(in);
      co_await write(out, w + 1);
    }
  };
  TileTask t = body();
  // Preload input with 3 words.
  for (common::Word w : {10u, 20u, 30u}) {
    in.write(w);
    clk.tick();
  }
  int cycles = 0;
  while (!t.done() && cycles < 50) {
    (void)cycle(clk, t);
    ++cycles;
  }
  ASSERT_TRUE(t.done());
  // 1 start + 3 reads + 3 writes = 7 cycles.
  EXPECT_EQ(cycles, 7);
  std::vector<common::Word> results;
  for (int i = 0; i < 3; ++i) {
    if (out.can_read()) results.push_back(out.read());
    clk.tick();
  }
  EXPECT_EQ(results, (std::vector<common::Word>{11, 21, 31}));
}

TEST(TileTaskTest, PingPongBetweenTwoTasks) {
  TestClock clk;
  Channel a2b(clk.engine, "a2b");
  Channel b2a(clk.engine, "b2a");
  int rounds_done = 0;
  auto ping = [&]() -> TileTask {
    for (int i = 0; i < 5; ++i) {
      co_await write(a2b, static_cast<common::Word>(i));
      const common::Word r = co_await read(b2a);
      EXPECT_EQ(r, static_cast<common::Word>(i * 2));
      ++rounds_done;
    }
  };
  auto pong = [&]() -> TileTask {
    for (;;) {
      const common::Word w = co_await read(a2b);
      co_await write(b2a, w * 2);
    }
  };
  TileTask tp = ping();
  TileTask tq = pong();
  for (int c = 0; c < 200 && !tp.done(); ++c) {
    tp.step();
    tq.step();
    clk.tick();
  }
  EXPECT_TRUE(tp.done());
  EXPECT_EQ(rounds_done, 5);
}

TEST(TileTaskTest, MoveTransfersOwnership) {
  TestClock clk;
  auto body = []() -> TileTask { co_await delay(2); };
  TileTask a = body();
  TileTask b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move) - testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(cycle(clk, b), AgentState::kBusy);
}

}  // namespace
}  // namespace raw::sim
