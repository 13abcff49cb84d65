#include "sim/channel.h"

#include <gtest/gtest.h>

namespace raw::sim {
namespace {

TEST(ChannelTest, FreshChannelIsEmpty) {
  Channel ch("c");
  ch.begin_cycle();
  EXPECT_FALSE(ch.can_read());
  EXPECT_TRUE(ch.can_write());
  EXPECT_TRUE(ch.idle());
}

TEST(ChannelTest, WriteVisibleOnlyNextCycle) {
  Channel ch("c");
  ch.begin_cycle();
  ch.write(42);
  // Still not readable within the same cycle.
  EXPECT_FALSE(ch.can_read());
  ch.end_cycle();

  ch.begin_cycle();
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 42u);
  ch.end_cycle();
}

TEST(ChannelTest, OneReadPerCycle) {
  Channel ch("c");
  for (const common::Word w : {1u, 2u}) {
    ch.begin_cycle();
    ch.write(w);
    ch.end_cycle();
  }
  ch.begin_cycle();
  EXPECT_EQ(ch.read(), 1u);
  EXPECT_FALSE(ch.can_read());  // second read same cycle refused
  ch.end_cycle();
  ch.begin_cycle();
  EXPECT_EQ(ch.read(), 2u);
  ch.end_cycle();
}

TEST(ChannelTest, OneWritePerCycle) {
  Channel ch("c");
  ch.begin_cycle();
  ch.write(1);
  EXPECT_FALSE(ch.can_write());  // staging slot taken
  ch.end_cycle();
}

TEST(ChannelTest, SustainsOneWordPerCycle) {
  Channel ch("c");
  common::Word next_write = 0;
  common::Word next_read = 0;
  // Warm up one word, then read+write every cycle for 100 cycles.
  ch.begin_cycle();
  ch.write(next_write++);
  ch.end_cycle();
  for (int i = 0; i < 100; ++i) {
    ch.begin_cycle();
    ASSERT_TRUE(ch.can_read());
    EXPECT_EQ(ch.read(), next_read++);
    ASSERT_TRUE(ch.can_write());
    ch.write(next_write++);
    ch.end_cycle();
  }
  EXPECT_EQ(ch.words_transferred(), 101u);
}

TEST(ChannelTest, BackpressureAtCapacity) {
  Channel ch("c", 2);
  for (int i = 0; i < 2; ++i) {
    ch.begin_cycle();
    ASSERT_TRUE(ch.can_write());
    ch.write(static_cast<common::Word>(i));
    ch.end_cycle();
  }
  ch.begin_cycle();
  EXPECT_FALSE(ch.can_write());
  ch.end_cycle();
}

TEST(ChannelTest, SlotFreedByReadUsableNextCycleNotSameCycle) {
  Channel ch("c", 1);
  ch.begin_cycle();
  ch.write(7);
  ch.end_cycle();

  ch.begin_cycle();
  EXPECT_EQ(ch.read(), 7u);
  // Occupancy at start of cycle was 1 == capacity, so a same-cycle write is
  // refused even though the buffer is now empty (registered credit return).
  EXPECT_FALSE(ch.can_write());
  ch.end_cycle();

  ch.begin_cycle();
  EXPECT_TRUE(ch.can_write());
  ch.end_cycle();
}

TEST(ChannelTest, OrderIndependenceOfReadAndWrite) {
  // Whether the reader or the writer is stepped first within a cycle must
  // not change what either observes.
  Channel a("a", 4);
  Channel b("b", 4);
  // Pre-load one word into each.
  for (Channel* ch : {&a, &b}) {
    ch->begin_cycle();
    ch->write(9);
    ch->end_cycle();
  }
  a.begin_cycle();
  b.begin_cycle();
  // Channel a: read then write. Channel b: write then read.
  const bool a_could_write_before = a.can_write();
  EXPECT_EQ(a.read(), 9u);
  a.write(10);
  b.write(10);
  EXPECT_EQ(b.read(), 9u);
  const bool b_could_write = true;  // write above succeeded
  EXPECT_EQ(a_could_write_before, b_could_write);
  a.end_cycle();
  b.end_cycle();
  EXPECT_EQ(a.occupancy(), b.occupancy());
}

TEST(ChannelTest, FrontPeeksWithoutConsuming) {
  Channel ch("c");
  ch.begin_cycle();
  ch.write(5);
  ch.end_cycle();
  ch.begin_cycle();
  EXPECT_EQ(ch.front(), 5u);
  EXPECT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 5u);
  ch.end_cycle();
}

TEST(ChannelLinkTest, ProtectionRepairsFlippedWordAfterRoundTrip) {
  Channel ch("c");
  ch.enable_link_protection({.max_retries = 3, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.begin_cycle();  // cycle 1
  ch.write(0xABCD);
  ch.end_cycle();

  ch.begin_cycle();  // cycle 2: line noise hits the committed word
  ASSERT_TRUE(ch.fault_flip(5));
  // The CRC mismatch triggers the NACK/retransmit: not readable yet, and
  // the link is held for the modelled round trip.
  EXPECT_FALSE(ch.can_read());
  EXPECT_EQ(ch.link_retransmits(), 1u);
  EXPECT_EQ(ch.link_stall_cycles(), 2u);
  ch.end_cycle();

  ch.begin_cycle();  // cycle 3: still inside the round trip
  EXPECT_FALSE(ch.can_read());
  ch.end_cycle();

  ch.begin_cycle();  // cycle 4: repaired word delivered clean
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu);
  EXPECT_EQ(ch.link_delivered_corrupt(), 0u);
  ch.end_cycle();
}

TEST(ChannelLinkTest, BoundedRetriesEventuallyDeliverCorrupt) {
  Channel ch("c");
  ch.enable_link_protection({.max_retries = 1, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.begin_cycle();
  ch.write(0xABCD);
  ch.end_cycle();

  ch.begin_cycle();  // first flip: repaired (retry budget 1)
  ASSERT_TRUE(ch.fault_flip(5));
  EXPECT_FALSE(ch.can_read());
  EXPECT_EQ(ch.link_retransmits(), 1u);
  ch.end_cycle();
  ch.begin_cycle();
  ch.end_cycle();

  ch.begin_cycle();  // second flip: budget exhausted, delivered as-is
  ASSERT_TRUE(ch.fault_flip(5));
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu ^ (1u << 5));
  EXPECT_EQ(ch.link_retransmits(), 1u);
  EXPECT_EQ(ch.link_delivered_corrupt(), 1u);
  ch.end_cycle();
}

TEST(ChannelLinkTest, UndetectableCorruptionIsDeliveredUncounted) {
  // Bits 0, 1, 7 and 15 together leave the CRC-8 (poly 0x07, zero init,
  // hence linear) unchanged for any word and seq: the receiver cannot see
  // this damage, so it reads the word at once, corrupt and uncounted.
  Channel ch("c");
  ch.enable_link_protection({.max_retries = 3, .retransmit_rtt = 2,
                             .replay_depth = 8});
  ch.begin_cycle();
  ch.write(0xABCD);
  ch.end_cycle();

  ch.begin_cycle();
  for (const std::uint32_t bit : {0u, 1u, 7u, 15u}) {
    ASSERT_TRUE(ch.fault_flip(bit));
  }
  ASSERT_TRUE(ch.can_read());
  EXPECT_EQ(ch.read(), 0xABCDu ^ 0x8083u);
  EXPECT_EQ(ch.link_retransmits(), 0u);
  EXPECT_EQ(ch.link_delivered_corrupt(), 0u);
  ch.end_cycle();
}

TEST(ChannelLinkTest, CleanTrafficCostsNothing) {
  // With no corruption the protected channel behaves exactly like a bare
  // one: same words, same timing, zero protocol counters.
  Channel bare("b");
  Channel prot("p");
  prot.enable_link_protection({});
  for (common::Word w = 0; w < 50; ++w) {
    for (Channel* ch : {&bare, &prot}) {
      ch->begin_cycle();
      if (ch->can_read()) {
        EXPECT_EQ(ch->read(), w - 1);
      }
      ch->write(w);
      ch->end_cycle();
    }
  }
  EXPECT_EQ(bare.words_transferred(), prot.words_transferred());
  EXPECT_EQ(prot.link_retransmits(), 0u);
  EXPECT_EQ(prot.link_delivered_corrupt(), 0u);
  EXPECT_EQ(prot.link_stall_cycles(), 0u);
}

TEST(ChannelTest, ResetContentsDiscardsWordsAndStalls) {
  Channel ch("c");
  ch.begin_cycle();
  ch.write(1);
  ch.end_cycle();
  ch.begin_cycle();
  ch.write(2);
  ch.fault_stall(100);
  ch.end_cycle();
  const std::uint64_t moved = ch.words_transferred();

  ch.reset_contents();
  EXPECT_TRUE(ch.idle());
  EXPECT_FALSE(ch.fault_stalled());
  // Cumulative accounting survives the wipe.
  EXPECT_EQ(ch.words_transferred(), moved);
  ch.begin_cycle();
  EXPECT_FALSE(ch.can_read());
  EXPECT_TRUE(ch.can_write());
  ch.write(3);
  ch.end_cycle();
  ch.begin_cycle();
  EXPECT_EQ(ch.read(), 3u);
  ch.end_cycle();
}

TEST(ChannelDeathTest, ReadWhenNotReadyAborts) {
  Channel ch("c");
  ch.begin_cycle();
  EXPECT_DEATH((void)ch.read(), "unready channel");
}

}  // namespace
}  // namespace raw::sim
