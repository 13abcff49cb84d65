// InterChipLink: latency, epoch-barrier visibility, token-bucket
// throttling, capacity backpressure, FIFO order, and the word conservation
// identity sent == delivered + in_flight at every barrier.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/inter_chip_link.h"

namespace raw::cluster {
namespace {

InterChipLink::Params params(common::Cycle latency,
                             std::uint64_t numer = 1,
                             std::uint64_t denom = 1) {
  InterChipLink::Params p;
  p.latency = latency;
  p.throttle_numer = numer;
  p.throttle_denom = denom;
  p.capacity_words = 64;
  return p;
}

TEST(InterChipLinkTest, WordArrivesAfterLatencyAndBarrier) {
  InterChipLink link(params(8));
  ASSERT_TRUE(link.can_send(0));
  link.send(42, 0);
  // Not visible to the receiver until the epoch barrier commits it...
  EXPECT_FALSE(link.has_word(7));
  EXPECT_FALSE(link.has_word(100));
  link.commit_epoch();
  // ...and not before the latency elapses even then.
  EXPECT_FALSE(link.has_word(7));
  ASSERT_TRUE(link.has_word(8));
  EXPECT_EQ(link.recv(8), 42u);
  EXPECT_FALSE(link.has_word(1000));
}

TEST(InterChipLinkTest, FifoOrderPreserved) {
  InterChipLink link(params(4));
  for (std::uint64_t w = 0; w < 16; ++w) {
    ASSERT_TRUE(link.can_send(w));
    link.send(static_cast<common::Word>(w + 100), w);
  }
  link.commit_epoch();
  for (std::uint64_t w = 0; w < 16; ++w) {
    ASSERT_TRUE(link.has_word(100 + w));
    EXPECT_EQ(link.recv(100 + w), w + 100);
  }
}

TEST(InterChipLinkTest, TokenBucketThrottlesToRatio) {
  // 1/4 word-rate: over 400 cycles at most ~100 + burst words pass.
  InterChipLink link(params(4, 1, 4));
  std::uint64_t sent = 0;
  for (common::Cycle now = 0; now < 400; ++now) {
    if (link.can_send(now)) {
      link.send(static_cast<common::Word>(sent), now);
      ++sent;
    }
    if ((now + 1) % 4 == 0) link.commit_epoch();
    // Drain so capacity never interferes with the rate measurement.
    while (link.has_word(now)) (void)link.recv(now);
  }
  EXPECT_GE(sent, 98u);
  EXPECT_LE(sent, 102u);
}

TEST(InterChipLinkTest, FullRateLinkNeverThrottles) {
  InterChipLink link(params(4, 1, 1));
  for (common::Cycle now = 0; now < 64; ++now) {
    ASSERT_TRUE(link.can_send(now)) << "cycle " << now;
    link.send(static_cast<common::Word>(now), now);
    if ((now + 1) % 4 == 0) link.commit_epoch();
    while (link.has_word(now)) (void)link.recv(now);
  }
}

TEST(InterChipLinkTest, CapacityBackpressures) {
  InterChipLink::Params p = params(2);
  p.capacity_words = 8;
  InterChipLink link(p);
  common::Cycle now = 0;
  // Fill without draining: after 8 words the sender must stall.
  std::uint64_t sent = 0;
  for (; now < 32; ++now) {
    if (link.can_send(now)) {
      link.send(static_cast<common::Word>(sent++), now);
    }
    if ((now + 1) % 2 == 0) link.commit_epoch();
  }
  EXPECT_EQ(sent, 8u);
  EXPECT_EQ(link.in_flight_words(), 8u);
  // Draining frees capacity again at the next barrier.
  while (link.has_word(now)) (void)link.recv(now);
  link.commit_epoch();
  EXPECT_TRUE(link.can_send(now));
}

TEST(InterChipLinkTest, ConservationHoldsAtEveryBarrier) {
  InterChipLink link(params(8, 2, 3));
  std::uint64_t sent_words = 0;
  common::Rng drain_rng(99);
  for (common::Cycle now = 0; now < 2000; ++now) {
    if (link.can_send(now)) {
      link.send(static_cast<common::Word>(sent_words++), now);
    }
    // Irregular receiver: drains in bursts, sometimes not at all.
    if (drain_rng.chance(0.3)) {
      while (link.has_word(now)) (void)link.recv(now);
    }
    if ((now + 1) % 8 == 0) {
      link.commit_epoch();
      EXPECT_EQ(link.sent_total(),
                link.delivered_total() + link.in_flight_words());
    }
  }
  EXPECT_GT(link.delivered_total(), 0u);
  EXPECT_EQ(link.sent_total(), sent_words);
}

InterChipLink::Params reliable_params(common::Cycle latency) {
  InterChipLink::Params p;
  p.latency = latency;
  p.capacity_words = 64;
  p.reliable = true;
  p.retransmit_limit = 3;
  p.retransmit_rtt = 4;
  return p;
}

TEST(InterChipLinkTest, ReliableLinkRepairsCorruptWordByRetransmit) {
  InterChipLink link(reliable_params(8));
  link.send(0xdeadbeef, 0);
  link.commit_epoch();
  ASSERT_TRUE(link.corrupt_front(5));
  // The corrupted word fails its CRC at delivery time and slips one NACK
  // round trip...
  EXPECT_FALSE(link.has_word(8));
  EXPECT_EQ(link.retransmits(), 1u);
  // ...then arrives repaired, with zero damage counted.
  ASSERT_TRUE(link.has_word(8 + 4));
  EXPECT_EQ(link.recv(8 + 4), 0xdeadbeefu);
  EXPECT_EQ(link.delivered_corrupt(), 0u);
  EXPECT_EQ(link.delivered_total(), 1u);
}

TEST(InterChipLinkTest, UnreliableLinkDeliversTheCorruptWord) {
  InterChipLink link(params(8));
  link.send(0xdeadbeef, 0);
  link.commit_epoch();
  ASSERT_TRUE(link.corrupt_front(0));
  ASSERT_TRUE(link.has_word(8));
  EXPECT_EQ(link.recv(8), 0xdeadbeefu ^ 1u);
}

TEST(InterChipLinkTest, ReliableLinkGivesUpAfterRetransmitBudget) {
  InterChipLink::Params p = reliable_params(8);
  p.retransmit_limit = 2;
  InterChipLink link(p);
  link.send(0xcafef00d, 0);
  link.commit_epoch();
  // An adversary that re-corrupts the wire after every repair: the link
  // burns its budget, then delivers the corrupt word and counts it.
  common::Cycle now = 8;
  for (std::uint32_t round = 0; round < 2; ++round) {
    ASSERT_TRUE(link.corrupt_front(3));
    EXPECT_FALSE(link.has_word(now));
    now += p.retransmit_rtt;
  }
  ASSERT_TRUE(link.corrupt_front(3));
  ASSERT_TRUE(link.has_word(now));
  EXPECT_EQ(link.recv(now), 0xcafef00du ^ (1u << 3));
  EXPECT_EQ(link.retransmits(), 2u);
  EXPECT_EQ(link.delivered_corrupt(), 1u);
}

TEST(InterChipLinkTest, UndetectableCorruptionIsDeliveredUncounted) {
  // Bits 0, 1, 7 and 15 together leave the CRC-8 (poly 0x07, zero init,
  // hence linear) unchanged for any word and seq: the receiver cannot see
  // this damage, so the word is delivered on time, corrupt and uncounted.
  InterChipLink link(reliable_params(8));
  link.send(0xdeadbeef, 0);
  link.commit_epoch();
  for (const std::uint32_t bit : {0u, 1u, 7u, 15u}) {
    ASSERT_TRUE(link.corrupt_front(bit));
  }
  ASSERT_TRUE(link.has_word(8));
  EXPECT_EQ(link.recv(8), 0xdeadbeefu ^ 0x8083u);
  EXPECT_EQ(link.retransmits(), 0u);
  EXPECT_EQ(link.delivered_corrupt(), 0u);
}

TEST(InterChipLinkTest, StallBlocksBothSidesThenRecovers) {
  InterChipLink link(params(4));
  link.send(7, 0);
  link.commit_epoch();
  link.stall_until(100);
  EXPECT_FALSE(link.can_send(50));
  EXPECT_FALSE(link.has_word(50));
  EXPECT_TRUE(link.can_send(100));
  ASSERT_TRUE(link.has_word(100));
  EXPECT_EQ(link.recv(100), 7u);
}

TEST(InterChipLinkTest, CutAndWriteOffKeepTheBooksExact) {
  // 8/8 throttle = full rate with an 8-word burst bucket, so five sends
  // can land on the same cycle.
  InterChipLink link(params(4, 8, 8));
  for (int i = 0; i < 5; ++i) link.send(static_cast<common::Word>(i), 0);
  link.commit_epoch();
  link.send(99, 1);  // staged, uncommitted
  link.cut();
  EXPECT_FALSE(link.can_send(1000));
  EXPECT_FALSE(link.has_word(1000));
  EXPECT_TRUE(link.is_cut());
  // Fail-over writes off everything in flight — queue and staging both.
  EXPECT_EQ(link.write_off_in_flight(), 6u);
  EXPECT_EQ(link.in_flight_words(), 0u);
  EXPECT_EQ(link.written_off_total(), 6u);
  EXPECT_EQ(link.sent_total(), link.delivered_total() +
                                   link.in_flight_words() +
                                   link.written_off_total());
  EXPECT_TRUE(link.seq_books_ok());
}

TEST(InterChipLinkTest, SeqBooksHoldThroughReliableTraffic) {
  InterChipLink link(reliable_params(8));
  std::uint64_t sent = 0;
  for (common::Cycle now = 0; now < 512; ++now) {
    if (link.can_send(now)) link.send(static_cast<common::Word>(sent++), now);
    if ((now + 1) % 8 == 0) {
      link.commit_epoch();
      EXPECT_TRUE(link.seq_books_ok());
      if (now % 32 == 7) {
        (void)link.corrupt_front(static_cast<std::uint32_t>(now));
      }
    }
    while (link.has_word(now)) (void)link.recv(now);
  }
  EXPECT_GT(link.retransmits(), 0u);
  EXPECT_EQ(link.delivered_corrupt(), 0u);
  EXPECT_TRUE(link.seq_books_ok());
}

}  // namespace
}  // namespace raw::cluster
