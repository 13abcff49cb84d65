#include "common/ring_buffer.h"

#include <gtest/gtest.h>

namespace raw::common {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_EQ(rb.free_space(), 4u);
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, WrapsAroundManyTimes) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 1000; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.front(), i);
    EXPECT_EQ(rb.pop(), i);
  }
}

TEST(RingBufferTest, PeekDoesNotConsume) {
  RingBuffer<int> rb(4);
  rb.push(10);
  rb.push(20);
  rb.push(30);
  EXPECT_EQ(rb.peek(0), 10);
  EXPECT_EQ(rb.peek(1), 20);
  EXPECT_EQ(rb.peek(2), 30);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.pop(), 10);
  EXPECT_EQ(rb.peek(0), 20);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.pop(), 7);
}

// The slots are rounded up to a power of two; everything observable stays
// on the requested capacity, including where the buffer reads as full.
class RingBufferCapacityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferCapacityTest, FullAndEmptyAtTheLogicalCapacity) {
  const std::size_t cap = GetParam();
  RingBuffer<int> rb(cap);
  EXPECT_EQ(rb.capacity(), cap);
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_FALSE(rb.full());
    EXPECT_EQ(rb.free_space(), cap - i);
    rb.push(static_cast<int>(i));
  }
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.free_space(), 0u);
  EXPECT_EQ(rb.size(), cap);
  for (std::size_t i = 0; i < cap; ++i) EXPECT_EQ(rb.pop(), static_cast<int>(i));
  EXPECT_TRUE(rb.empty());
}

TEST_P(RingBufferCapacityTest, WrapsAroundWithPeekAtEveryOffset) {
  // Keep the buffer full while head and tail lap the slot array several
  // times, peeking the whole contents at every step.
  const std::size_t cap = GetParam();
  RingBuffer<int> rb(cap);
  int next_in = 0;
  int next_out = 0;
  while (!rb.full()) rb.push(next_in++);
  for (int step = 0; step < 50; ++step) {
    for (std::size_t i = 0; i < rb.size(); ++i) {
      EXPECT_EQ(rb.peek(i), next_out + static_cast<int>(i));
    }
    EXPECT_EQ(rb.front(), next_out);
    EXPECT_EQ(rb.pop(), next_out++);
    rb.push(next_in++);
    EXPECT_TRUE(rb.full());
  }
}

TEST_P(RingBufferCapacityTest, ClearMidLapRestartsCleanly) {
  const std::size_t cap = GetParam();
  RingBuffer<int> rb(cap);
  for (int i = 0; i < 3; ++i) {
    rb.push(i);
    (void)rb.pop();
  }
  rb.push(10);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.free_space(), cap);
  for (std::size_t i = 0; i < cap; ++i) rb.push(static_cast<int>(100 + i));
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.peek(cap - 1), static_cast<int>(100 + cap - 1));
  EXPECT_EQ(rb.pop(), 100);
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferCapacityTest,
                         ::testing::Values(1u, 3u, 5u, 8u));

TEST(RingBufferDeathTest, PushPastNonPowerOfTwoCapacityAborts) {
  RingBuffer<int> rb(3);  // four slots, three usable
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_DEATH(rb.push(4), "full ring buffer");
}

TEST(RingBufferDeathTest, PushFullAborts) {
  RingBuffer<int> rb(1);
  rb.push(1);
  EXPECT_DEATH(rb.push(2), "full ring buffer");
}

TEST(RingBufferDeathTest, PopEmptyAborts) {
  RingBuffer<int> rb(1);
  EXPECT_DEATH((void)rb.pop(), "empty ring buffer");
}

}  // namespace
}  // namespace raw::common
