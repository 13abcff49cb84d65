#include "sim/channel.h"

#include <gtest/gtest.h>

#include "test_clock.h"

namespace raw::sim {
namespace {

TEST(ChannelTest, FreshChannelIsEmpty) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  EXPECT_FALSE(ch.can_read());
  EXPECT_TRUE(ch.can_write());
  EXPECT_TRUE(ch.idle());
}

TEST(ChannelTest, WriteVisibleOnlyNextCycle) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.write(42);
  // Still not readable within the same cycle.
  EXPECT_FALSE(ch.can_read());
  clk.tick();

  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 42u);
  clk.tick();
}

TEST(ChannelTest, OneReadPerCycle) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  for (const common::Word w : {1u, 2u}) {
    ch.write(w);
    clk.tick();
  }
  EXPECT_EQ(ch.read(), 1u);
  EXPECT_FALSE(ch.can_read());  // second read same cycle refused
  clk.tick();
  EXPECT_EQ(ch.read(), 2u);
  clk.tick();
}

TEST(ChannelTest, OneWritePerCycle) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.write(1);
  EXPECT_FALSE(ch.can_write());  // staging slot taken
  clk.tick();
}

TEST(ChannelTest, SustainsOneWordPerCycle) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  common::Word next_write = 0;
  common::Word next_read = 0;
  // Warm up one word, then read+write every cycle for 100 cycles.
  ch.write(next_write++);
  clk.tick();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.can_read());
    EXPECT_EQ(ch.read(), next_read++);
    ASSERT_TRUE(ch.can_write());
    ch.write(next_write++);
    clk.tick();
  }
  EXPECT_EQ(ch.words_transferred(), 101u);
}

TEST(ChannelTest, BackpressureAtCapacity) {
  TestClock clk;
  Channel ch(clk.engine, "c", 2);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ch.can_write());
    ch.write(static_cast<common::Word>(i));
    clk.tick();
  }
  EXPECT_FALSE(ch.can_write());
  clk.tick();
}

TEST(ChannelTest, SlotFreedByReadUsableNextCycleNotSameCycle) {
  TestClock clk;
  Channel ch(clk.engine, "c", 1);
  ch.write(7);
  clk.tick();

  EXPECT_EQ(ch.read(), 7u);
  // Occupancy at start of cycle was 1 == capacity, so a same-cycle write is
  // refused even though the buffer is now empty (registered credit return).
  EXPECT_FALSE(ch.can_write());
  clk.tick();

  EXPECT_TRUE(ch.can_write());
  clk.tick();
}

TEST(ChannelTest, UntouchedChannelRefreshesOnFirstTouch) {
  // The lazy epoch refresh: a channel nobody touches for several engine
  // cycles must, on its first touch, see the occupancy at the start of that
  // cycle and a free read slot, not what it latched when last touched.
  TestClock clk;
  Channel ch(clk.engine, "c", 2);
  ch.write(1);
  clk.tick();
  ch.write(2);
  clk.tick();
  EXPECT_EQ(ch.read(), 1u);  // latched: full at cycle start, read slot used
  EXPECT_FALSE(ch.can_write());
  clk.tick();
  for (int i = 0; i < 3; ++i) clk.tick();

  ASSERT_TRUE(ch.can_read());  // fresh read slot
  EXPECT_TRUE(ch.can_write());  // one word at cycle start, below capacity
  ch.write(3);
  clk.tick();
  for (int i = 0; i < 2; ++i) clk.tick();

  // Full at the start of this cycle: the refresh latches that before the
  // read, so the slot the read frees is not reusable until next cycle.
  EXPECT_EQ(ch.occupancy(), 2u);
  EXPECT_EQ(ch.read(), 2u);
  EXPECT_FALSE(ch.can_write());
  EXPECT_FALSE(ch.can_read());
  clk.tick();
  EXPECT_TRUE(ch.can_write());
  EXPECT_EQ(ch.read(), 3u);
}

TEST(ChannelTest, OrderIndependenceOfReadAndWrite) {
  // Whether the reader or the writer is stepped first within a cycle must
  // not change what either observes.
  TestClock clk;
  Channel a(clk.engine, "a", 4);
  Channel b(clk.engine, "b", 4);
  // Pre-load one word into each.
  for (Channel* ch : {&a, &b}) ch->write(9);
  clk.tick();
  // Channel a: read then write. Channel b: write then read.
  const bool a_could_write_before = a.can_write();
  EXPECT_EQ(a.read(), 9u);
  a.write(10);
  b.write(10);
  EXPECT_EQ(b.read(), 9u);
  const bool b_could_write = true;  // write above succeeded
  EXPECT_EQ(a_could_write_before, b_could_write);
  clk.tick();
  EXPECT_EQ(a.occupancy(), b.occupancy());
}

TEST(ChannelTest, FrontPeeksWithoutConsuming) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.write(5);
  clk.tick();
  EXPECT_EQ(ch.front(), 5u);
  EXPECT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 5u);
  clk.tick();
}

TEST(ChannelLinkTest, ProtectionRepairsFlippedWordAfterRoundTrip) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.enable_link_protection({.max_retries = 3, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.write(0xABCD);  // cycle 0
  clk.tick();

  // Cycle 1: line noise hits the committed word.
  ASSERT_TRUE(ch.fault_flip(5));
  // The CRC mismatch triggers the NACK/retransmit: not readable yet, and
  // the link is held for the modelled round trip.
  EXPECT_FALSE(ch.can_read());
  EXPECT_EQ(ch.link_retransmits(), 1u);
  EXPECT_EQ(ch.link_stall_cycles(), 2u);
  clk.tick();

  EXPECT_FALSE(ch.can_read());  // cycle 2: still inside the round trip
  clk.tick();

  // Cycle 3: repaired word delivered clean.
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu);
  EXPECT_EQ(ch.link_delivered_corrupt(), 0u);
  clk.tick();
}

TEST(ChannelLinkTest, BoundedRetriesEventuallyDeliverCorrupt) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.enable_link_protection({.max_retries = 1, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.write(0xABCD);
  clk.tick();

  // First flip: repaired (retry budget 1).
  ASSERT_TRUE(ch.fault_flip(5));
  EXPECT_FALSE(ch.can_read());
  EXPECT_EQ(ch.link_retransmits(), 1u);
  clk.tick();
  clk.tick();

  // Second flip: budget exhausted, delivered as-is.
  ASSERT_TRUE(ch.fault_flip(5));
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu ^ (1u << 5));
  EXPECT_EQ(ch.link_retransmits(), 1u);
  EXPECT_EQ(ch.link_delivered_corrupt(), 1u);
  clk.tick();
}

TEST(ChannelLinkTest, UndetectableCorruptionIsDeliveredUncounted) {
  // Bits 0, 1, 7 and 15 together leave the CRC-8 (poly 0x07, zero init,
  // hence linear) unchanged for any word and seq: the receiver cannot see
  // this damage, so it reads the word at once, corrupt and uncounted.
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.enable_link_protection({.max_retries = 3, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.write(0xABCD);
  clk.tick();

  for (const std::uint32_t bit : {0u, 1u, 7u, 15u}) {
    ASSERT_TRUE(ch.fault_flip(bit));
  }
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu ^ 0x8083u);
  EXPECT_EQ(ch.link_retransmits(), 0u);
  EXPECT_EQ(ch.link_delivered_corrupt(), 0u);
  clk.tick();
}

TEST(ChannelLinkTest, CleanTrafficCostsNothing) {
  // With no corruption the protected channel behaves exactly like a bare
  // one: same words, same timing, zero protocol counters.
  TestClock clk;
  Channel bare(clk.engine, "b");
  Channel prot(clk.engine, "p");
  prot.enable_link_protection({});
  for (common::Word w = 0; w < 50; ++w) {
    for (Channel* ch : {&bare, &prot}) {
      if (ch->can_read()) {
        EXPECT_EQ(ch->read(), w - 1);
      }
      ch->write(w);
    }
    clk.tick();
  }
  EXPECT_EQ(bare.words_transferred(), prot.words_transferred());
  EXPECT_EQ(prot.link_retransmits(), 0u);
  EXPECT_EQ(prot.link_delivered_corrupt(), 0u);
  EXPECT_EQ(prot.link_stall_cycles(), 0u);
}

TEST(ChannelTest, ResetContentsDiscardsWordsAndStalls) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  ch.write(1);
  clk.tick();
  ch.write(2);
  ch.fault_stall(100);
  clk.tick();
  const std::uint64_t moved = ch.words_transferred();

  ch.reset_contents();
  EXPECT_TRUE(ch.idle());
  EXPECT_FALSE(ch.fault_stalled());
  // Cumulative accounting survives the wipe.
  EXPECT_EQ(ch.words_transferred(), moved);
  EXPECT_FALSE(ch.can_read());
  EXPECT_TRUE(ch.can_write());
  ch.write(3);
  clk.tick();
  EXPECT_EQ(ch.read(), 3u);
  clk.tick();
}

TEST(ChannelDeathTest, ReadWhenNotReadyAborts) {
  TestClock clk;
  Channel ch(clk.engine, "c");
  EXPECT_DEATH((void)ch.read(), "unready channel");
}

}  // namespace
}  // namespace raw::sim
