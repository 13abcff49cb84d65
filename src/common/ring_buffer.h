// Fixed-capacity single-threaded ring buffer used for network FIFOs.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace raw::common {

/// Bounded FIFO with O(1) push/pop. Capacity is fixed at construction;
/// pushing into a full buffer or popping an empty one is a hard error, so
/// callers must check `full()` / `empty()` first (this mirrors the hardware
/// flow-control discipline of the Raw network FIFOs).
///
/// The slot array is rounded up to a power of two so indices wrap with a
/// mask instead of a divide; `capacity()`, `full()` and `free_space()` stay
/// on the requested capacity.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(std::bit_ceil(capacity)),
        mask_(slots_.size() - 1),
        capacity_(capacity) {
    RAW_ASSERT_MSG(capacity > 0, "ring buffer capacity must be positive");
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t free_space() const { return capacity_ - size_; }

  void push(T value) {
    RAW_ASSERT_MSG(!full(), "push into full ring buffer");
    slots_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  T pop() {
    RAW_ASSERT_MSG(!empty(), "pop from empty ring buffer");
    T value = std::move(slots_[head_]);
    head_ = next(head_);
    --size_;
    return value;
  }

  [[nodiscard]] const T& front() const {
    RAW_ASSERT_MSG(!empty(), "front of empty ring buffer");
    return slots_[head_];
  }

  /// Mutable front, for in-place corruption by the fault injector.
  [[nodiscard]] T& front() {
    RAW_ASSERT_MSG(!empty(), "front of empty ring buffer");
    return slots_[head_];
  }

  /// Element `i` positions behind the front (0 == front). Used by the
  /// wormhole router to peek at header words without consuming them.
  [[nodiscard]] const T& peek(std::size_t i) const {
    RAW_ASSERT_MSG(i < size_, "peek past end of ring buffer");
    return slots_[(head_ + i) & mask_];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask_;
  }

  std::vector<T> slots_;
  std::size_t mask_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace raw::common
