// Behavioural tile-processor programs as C++20 coroutines.
//
// The thesis programs tile processors in hand-unrolled Raw assembly; we model
// them behaviourally with an explicit cycle-cost discipline:
//
//   * every `co_await read(ch)` / `co_await write(ch, w)` costs at least one
//     cycle (a network-register move is one instruction) and blocks until the
//     channel is ready — exactly the register-mapped blocking semantics of
//     $csti/$csto (§3.2);
//   * `co_await delay(n)` charges n cycles of straight-line computation;
//   * `co_await mem_delay(n)` charges n cycles attributed to the memory
//     system (cache misses), so the per-tile utilization trace (Figure 7-3)
//     can distinguish compute from memory stalls;
//   * `co_await until_eject(dyn, t)` waits until the dynamic network holds
//     a word at tile t's eject port, and `co_await until_words(ch, n)` until
//     `ch.words_transferred() >= n`. Each costs exactly what the polling
//     loop `while (!cond) co_await delay(1);` costs: the condition is tested
//     at once (free when it already holds) and then once per cycle, every
//     waiting cycle counts as busy, and the program continues on the first
//     cycle the test passes. TileTask::step tests the condition without
//     resuming the coroutine, and the sparse engine parks the processor on
//     the event's wake slot (EngineState) instead of stepping it at all.
//
// Plain C++ between two awaits is free; all modelled work must be expressed
// through awaits. Costs for the router programs come from the paper's stated
// constraints (2 cycles/word to buffer into data memory, 1 cycle per branch,
// 3-cycle cache hits).
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "common/assert.h"
#include "common/types.h"
#include "sim/channel.h"
#include "sim/dynamic_network.h"
#include "sim/switch_processor.h"  // AgentState

namespace raw::sim {

class TileTask {
 public:
  enum class Wait : std::uint8_t {
    kStart,     // created, never resumed
    kRead,      // blocked on chan read
    kWrite,     // blocked on chan write
    kDelay,     // burning compute cycles
    kMemDelay,  // burning memory-stall cycles
    kEject,     // polling for a word at a dynamic-network eject port
    kWords,     // polling for a channel's transfer count to reach a target
    kDone,      // returned
  };

  struct promise_type {
    Wait wait = Wait::kStart;
    Channel* chan = nullptr;         // kRead, kWrite, kWords
    DynamicNetwork* dyn = nullptr;   // kEject
    int eject_tile = 0;              // kEject
    std::uint64_t words_target = 0;  // kWords
    common::Word write_value = 0;
    common::Word read_value = 0;
    common::Cycle delay_left = 0;
    std::exception_ptr exception;

    TileTask get_return_object() {
      return TileTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() { wait = Wait::kDone; }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  TileTask() = default;
  explicit TileTask(Handle h) : handle_(h) {}
  TileTask(TileTask&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  TileTask& operator=(TileTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  TileTask(const TileTask&) = delete;
  TileTask& operator=(const TileTask&) = delete;
  ~TileTask() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const {
    return !handle_ || handle_.done() || handle_.promise().wait == Wait::kDone;
  }

  /// Channel the program is currently blocked on (Wait::kRead/kWrite), else
  /// null. Consumed by the sparse engine's wake lists and the watchdog.
  [[nodiscard]] Channel* blocked_channel() const {
    if (!handle_) return nullptr;
    const promise_type& p = handle_.promise();
    return (p.wait == Wait::kRead || p.wait == Wait::kWrite) ? p.chan : nullptr;
  }

  /// Wake slot for the event a kEject/kWords wait polls for (a count slot
  /// armed with its target), else null. The sparse engine parks a processor
  /// that stepped busy in such a wait here: no other agent's step can make
  /// the condition true before the event fires the slot.
  [[nodiscard]] std::int32_t* event_slot() const {
    if (!handle_) return nullptr;
    const promise_type& p = handle_.promise();
    switch (p.wait) {
      case Wait::kEject: return &p.dyn->eject_slot(p.eject_tile);
      case Wait::kWords: return &p.chan->count_slot(p.words_target);
      default: return nullptr;
    }
  }

  /// Advances the program by one cycle; returns what the processor did.
  AgentState step() {
    if (done()) return AgentState::kIdle;
    promise_type& p = handle_.promise();
    switch (p.wait) {
      case Wait::kStart:
        resume();
        return AgentState::kBusy;
      case Wait::kDelay:
      case Wait::kMemDelay: {
        const AgentState state = p.wait == Wait::kDelay ? AgentState::kBusy
                                                        : AgentState::kBlockedMem;
        RAW_ASSERT(p.delay_left > 0);
        if (--p.delay_left == 0) resume();
        return state;
      }
      case Wait::kRead:
        if (p.chan->can_read()) {
          p.read_value = p.chan->read();
          resume();
          return AgentState::kBusy;
        }
        return AgentState::kBlockedRecv;
      case Wait::kWrite:
        if (p.chan->can_write()) {
          p.chan->write(p.write_value);
          resume();
          return AgentState::kBusy;
        }
        return AgentState::kBlockedSend;
      case Wait::kEject:
      case Wait::kWords: {
        const bool ready = p.wait == Wait::kEject
                               ? p.dyn->has_eject(p.eject_tile)
                               : p.chan->words_transferred() >= p.words_target;
        if (ready) resume();
        return AgentState::kBusy;
      }
      case Wait::kDone:
        return AgentState::kIdle;
    }
    RAW_UNREACHABLE("bad Wait state");
  }

 private:
  void resume() {
    handle_.resume();
    if (handle_.done()) handle_.promise().wait = Wait::kDone;
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace task {

/// co_await read(ch) -> Word. Blocks until a word is available; >= 1 cycle.
struct [[nodiscard]] ReadAwait {
  Channel& chan;
  TileTask::promise_type* promise = nullptr;

  bool await_ready() const noexcept { return false; }
  void await_suspend(TileTask::Handle h) {
    promise = &h.promise();
    promise->wait = TileTask::Wait::kRead;
    promise->chan = &chan;
  }
  common::Word await_resume() const { return promise->read_value; }
};

/// co_await write(ch, w). Blocks until FIFO space exists; >= 1 cycle.
struct [[nodiscard]] WriteAwait {
  Channel& chan;
  common::Word value;

  bool await_ready() const noexcept { return false; }
  void await_suspend(TileTask::Handle h) {
    TileTask::promise_type& p = h.promise();
    p.wait = TileTask::Wait::kWrite;
    p.chan = &chan;
    p.write_value = value;
  }
  void await_resume() const noexcept {}
};

/// co_await delay(n): n cycles of modelled computation (0 is free).
struct [[nodiscard]] DelayAwait {
  common::Cycle cycles;
  TileTask::Wait kind = TileTask::Wait::kDelay;

  bool await_ready() const noexcept { return cycles == 0; }
  void await_suspend(TileTask::Handle h) {
    TileTask::promise_type& p = h.promise();
    p.wait = kind;
    p.delay_left = cycles;
  }
  void await_resume() const noexcept {}
};

/// co_await until_eject(dyn, t): until a word waits at tile t's eject port.
struct [[nodiscard]] EjectAwait {
  DynamicNetwork& dyn;
  int tile;

  bool await_ready() const { return dyn.has_eject(tile); }
  void await_suspend(TileTask::Handle h) {
    TileTask::promise_type& p = h.promise();
    p.wait = TileTask::Wait::kEject;
    p.dyn = &dyn;
    p.eject_tile = tile;
  }
  void await_resume() const noexcept {}
};

/// co_await until_words(ch, n): until ch.words_transferred() >= n.
struct [[nodiscard]] WordsAwait {
  Channel& chan;
  std::uint64_t target;

  bool await_ready() const { return chan.words_transferred() >= target; }
  void await_suspend(TileTask::Handle h) {
    TileTask::promise_type& p = h.promise();
    p.wait = TileTask::Wait::kWords;
    p.chan = &chan;
    p.words_target = target;
  }
  void await_resume() const noexcept {}
};

inline ReadAwait read(Channel& ch) { return ReadAwait{ch}; }
inline WriteAwait write(Channel& ch, common::Word w) { return WriteAwait{ch, w}; }
inline DelayAwait delay(common::Cycle n) { return DelayAwait{n}; }
inline DelayAwait mem_delay(common::Cycle n) {
  return DelayAwait{n, TileTask::Wait::kMemDelay};
}
inline EjectAwait until_eject(DynamicNetwork& dyn, int tile) {
  return EjectAwait{dyn, tile};
}
inline WordsAwait until_words(Channel& ch, std::uint64_t n) {
  return WordsAwait{ch, n};
}

}  // namespace task
}  // namespace raw::sim
