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
