// Word channel: one directed static-network link (or processor<->switch FIFO).
//
// Semantics are two-phase so that simulation results are independent of the
// order in which agents are stepped within a cycle:
//   * at most one word is read and one word written per cycle (link rate is
//     one 32-bit word per cycle, §3.4);
//   * a read observes only words committed in *earlier* cycles;
//   * a write is staged and becomes visible at the end of the cycle, and is
//     admitted based on the occupancy at the *start* of the cycle (a slot
//     freed by this cycle's read is reusable only next cycle, as in the
//     hardware FIFO's registered credit path).
// With the default capacity of 4 (Raw's network FIFO depth) a channel
// sustains one word per cycle.
//
// Every channel runs on an engine clock (EngineState, below): the chip's,
// or a bare one a test or benchmark drives. A cycle is the agents' work at
// `now`, then EngineState::commit_dirty(), then `++now`. The channel stamps
// itself with `now` on its first touch of a cycle and refreshes its
// start-of-cycle state then, so untouched channels cost nothing; a write
// puts the channel on the engine's dirty list, and the commit walks only
// those channels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "sim/link_codec.h"

namespace raw::sim {

/// Reliable-link parameters (see DESIGN.md "Recovery model"). When a channel
/// has link protection enabled, every committed word keeps its clean copy and
/// a sequence number in a sender-side replay buffer; a word failing its CRC-8
/// check (sim/link_codec.h) triggers a NACK + retransmit (modelled as a clean
/// rewrite plus a round-trip link stall) bounded by `max_retries`.
struct LinkProtectionParams {
  std::uint32_t max_retries = 3;
  common::Cycle retransmit_rtt = 4;
  /// Sender replay-buffer depth in words; must cover the channel FIFO.
  std::size_t replay_depth = 8;
};

class Channel;

/// Shared state of the cycle engine (see DESIGN.md "Sparse cycle engine").
/// A Chip owns one and hands it to every channel and its dynamic network.
/// It carries the authoritative cycle counter (channels stamp themselves
/// against it to refresh per-cycle state lazily) and, for the cycle in
/// flight,
///   * `dirty`  — channels that staged a write and must commit at cycle end;
///   * `wakes`  — parked agents to return to the runnable set at cycle end.
/// A parked agent waits in exactly one wake slot: an int32 holding its agent
/// id (-1 when empty) owned by the object whose event it waits for — a
/// channel's reader, writer or word-count slot, or a dynamic-network eject
/// slot. The owner fires the slot through wake() when the event happens.
/// Each channel has exactly one writer agent per cycle, so a channel lands
/// on the dirty list at most once per cycle.
struct EngineState {
  /// The cycle counter (Chip::cycle() returns this field).
  common::Cycle now = 0;
  /// Channels with per-cycle stats sampling enabled; the chip runs the
  /// explicit stats pass only while this is nonzero.
  int stats_channels = 0;
  std::vector<Channel*> dirty;
  std::vector<std::int32_t> wakes;

  /// Fires a wake slot: queues its agent (if any) for the end-of-cycle wake
  /// and empties the slot.
  void wake(std::int32_t& slot) {
    if (slot < 0) return;
    wakes.push_back(slot);
    slot = -1;
  }

  /// Commits the channels written this cycle (queueing their reader and
  /// count wakes) and empties the dirty list. Returns true when any word
  /// crossed a link (the chip's forward-progress signal).
  bool commit_dirty();
};

class Channel {
 public:
  using Word = common::Word;

  static constexpr std::size_t kDefaultCapacity = 4;

  Channel(EngineState& engine, std::string name,
          std::size_t capacity = kDefaultCapacity)
      : name_(std::move(name)), buf_(capacity), size_at_start_(0), engine_(engine) {}

  /// True when this cycle's read slot has been used. A blocked writer does
  /// not park when the FIFO was drained this cycle: the slot frees at the
  /// next cycle start, so it can (and must, for dense equivalence) retry.
  [[nodiscard]] bool read_this_cycle() const {
    touch();
    return read_this_cycle_;
  }

  /// Commits this cycle's staged word; returns true when a word crossed the
  /// link. Called by EngineState::commit_dirty().
  bool commit() {
    touch();
    if (!staged_.has_value()) return false;
    buf_.push(*staged_);
    if (guard_ != nullptr) {
      guard_->replay.push(*guard_->staged);
      guard_->staged.reset();
    }
    staged_.reset();
    ++words_transferred_;
    // The committed word is readable next cycle: a parked reader wakes, and
    // so does a count waiter whose target this word reaches.
    engine_.wake(wait_reader_);
    if (words_transferred_ >= wait_count_target_) engine_.wake(wait_count_);
    return true;
  }

  /// Stats sample for the current cycle; the engine calls this after all
  /// commits, and only when any channel on the chip has stats enabled.
  void sample_stats() {
    if (!stats_enabled_) return;
    touch();
    ++stats_cycles_;
    occupancy_sum_ += buf_.size();
    if (size_at_start_ >= buf_.capacity()) ++full_cycles_;
  }

  /// True when a word committed in an earlier cycle is available and this
  /// cycle's read slot is unused. On a link-protected channel this is also
  /// the receive-side integrity check: a word that fails its CRC check
  /// triggers the NACK/retransmit protocol (see front_intact()) and
  /// reads false until the modelled round trip has elapsed.
  [[nodiscard]] bool can_read() const {
    touch();
    if (buf_.empty() || read_this_cycle_ || now() < stall_until_) return false;
    return guard_ == nullptr || front_intact();
  }

  [[nodiscard]] Word read() {
    RAW_ASSERT_MSG(can_read(), "read from unready channel");
    return read_ready();
  }

  /// read() for a caller that has just seen can_read() hold this cycle (the
  /// switch's fire phase): skips the second check, which on a protected link
  /// would re-run the replay comparison.
  [[nodiscard]] Word read_ready() {
    read_this_cycle_ = true;
    if (guard_ != nullptr) {
      const LinkFrame f = guard_->replay.pop();
      guard_->rx.delivered(buf_.front(), f.word, f.seq);
    }
    // This cycle's read frees a slot at the *next* cycle start; a writer
    // parked on the full FIFO becomes runnable then.
    engine_.wake(wait_writer_);
    return buf_.pop();
  }

  /// Look at the next readable word without consuming it.
  [[nodiscard]] const Word& front() const { return buf_.front(); }

  /// True when this cycle's write slot is free and there is credit based on
  /// start-of-cycle occupancy.
  [[nodiscard]] bool can_write() const {
    touch();
    return !staged_.has_value() && size_at_start_ < buf_.capacity() &&
           now() >= stall_until_;
  }

  /// Fault injection (sim::FaultPlan): takes the link down for `cycles`
  /// cycles starting now — no reads, no writes, occupancy frozen. Writers see
  /// backpressure and readers see an empty FIFO, exactly as if the wire went
  /// quiet. Extends (never shortens) an active stall.
  void fault_stall(std::uint64_t cycles) {
    touch();
    stall_until_ = std::max(stall_until_, now() + cycles);
    fault_wake();
  }
  [[nodiscard]] bool fault_stalled() const { return now() < stall_until_; }

  /// Fault injection: flips bit `bit % 32` of the word nearest the reader
  /// (the FIFO front, else the word staged this cycle). Returns false when
  /// the channel holds no word to corrupt.
  bool fault_flip(std::uint32_t bit) {
    touch();
    const Word mask = Word{1} << (bit % 32u);
    if (!buf_.empty()) {
      buf_.front() ^= mask;
      fault_wake();
      return true;
    }
    if (staged_.has_value()) {
      *staged_ ^= mask;
      fault_wake();
      return true;
    }
    return false;
  }

  void write(Word w) {
    RAW_ASSERT_MSG(can_write(), "write to unready channel");
    write_ready(w);
  }

  /// write() for a caller that has just seen can_write() hold this cycle.
  void write_ready(Word w) {
    staged_ = w;
    if (guard_ != nullptr) guard_->staged = LinkFrame{w, guard_->next_seq++};
    engine_.dirty.push_back(this);
  }

  /// Enables the reliable-link layer on this channel. Must be called while
  /// the channel is idle (typically right after construction); the replay
  /// buffer must be able to mirror the whole FIFO.
  void enable_link_protection(const LinkProtectionParams& params) {
    RAW_ASSERT_MSG(idle(), "link protection enabled on a busy channel");
    RAW_ASSERT_MSG(params.replay_depth >= buf_.capacity(),
                   "replay buffer must cover the link FIFO");
    guard_ = std::make_unique<LinkGuard>(params);
  }
  /// Words repaired from the sender's replay buffer after a CRC mismatch.
  [[nodiscard]] std::uint64_t link_retransmits() const {
    return guard_ != nullptr ? guard_->rx.retransmits : 0;
  }
  /// Words read corrupt after the bounded retransmit budget was exhausted.
  [[nodiscard]] std::uint64_t link_delivered_corrupt() const {
    return guard_ != nullptr ? guard_->rx.delivered_corrupt : 0;
  }
  /// Cycles this link was held for NACK round trips.
  [[nodiscard]] std::uint64_t link_stall_cycles() const {
    return guard_ != nullptr ? guard_->stall_cycles : 0;
  }

  /// Recovery reset (fault-adaptive reconfiguration): discards buffered and
  /// staged words and clears any injected stall. Cumulative counters
  /// (words_transferred, link stats) survive; wake slots are the chip's to
  /// clear (Chip unparks every agent before reprogramming tiles).
  void reset_contents() {
    buf_.clear();
    staged_.reset();
    stall_until_ = 0;
    read_this_cycle_ = false;
    size_at_start_ = 0;
    last_cycle_ = ~common::Cycle{0};
    if (guard_ != nullptr) {
      guard_->replay.clear();
      guard_->staged.reset();
      guard_->rx.front_retries = 0;
    }
  }

  /// Folds the functional state into an FNV-1a accumulator (engine-equality
  /// digests; see Chip::state_digest).
  void fold_digest(std::uint64_t& h) const {
    touch();
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    mix(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i) mix(buf_.peek(i));
    mix(staged_.has_value() ? 1u + std::uint64_t{*staged_} : 0u);
    mix(stall_until_);
    mix(words_transferred_);
  }

  /// Wake slots (see EngineState): the one reader agent parked on an empty
  /// FIFO, the one writer agent parked on a full one, and the one agent
  /// parked until words_transferred() reaches a target; -1 when empty.
  /// Registered and cleared by the chip's sparse stepper; commit() fires the
  /// reader and (on reaching its target) count slots, read() the writer
  /// slot, and a fault mutation the reader and writer slots.
  [[nodiscard]] std::int32_t& reader_slot() { return wait_reader_; }
  [[nodiscard]] std::int32_t& writer_slot() { return wait_writer_; }
  /// Arms the count slot for `target` transferred words and returns it.
  [[nodiscard]] std::int32_t& count_slot(std::uint64_t target) {
    wait_count_target_ = target;
    return wait_count_;
  }
  [[nodiscard]] std::int32_t& count_slot() { return wait_count_; }

  [[nodiscard]] std::size_t occupancy() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return buf_.capacity(); }
  [[nodiscard]] bool idle() const { return buf_.empty() && !staged_.has_value(); }

  /// Total words that have crossed this link since construction.
  [[nodiscard]] std::uint64_t words_transferred() const { return words_transferred_; }

  /// Optional occupancy/backpressure accounting, sampled once per cycle
  /// after commit. Off by default; when every channel's flag is off the
  /// engine skips the stats pass entirely.
  void set_stats_enabled(bool on) {
    if (on == stats_enabled_) return;
    stats_enabled_ = on;
    engine_.stats_channels += on ? 1 : -1;
  }
  /// Cycles sampled since stats were enabled.
  [[nodiscard]] std::uint64_t stats_cycles() const { return stats_cycles_; }
  /// Sum of end-of-cycle occupancies; divide by stats_cycles() for the mean.
  [[nodiscard]] std::uint64_t occupancy_sum() const { return occupancy_sum_; }
  /// Cycles the FIFO entered full — any writer was backpressure-stalled.
  [[nodiscard]] std::uint64_t full_cycles() const { return full_cycles_; }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  /// One protected word as the sender keeps it: the clean value and its
  /// link sequence number (its tag is link_crc8(word, seq)).
  struct LinkFrame {
    Word word = 0;
    std::uint16_t seq = 0;
  };

  /// Reliable-link state. `replay` mirrors buf_ word-for-word (pushed on
  /// commit, popped on read), so the receiver can always compare the FIFO
  /// front against the sender's clean copy.
  struct LinkGuard {
    explicit LinkGuard(const LinkProtectionParams& p)
        : params(p), replay(p.replay_depth) {}
    LinkProtectionParams params;
    common::RingBuffer<LinkFrame> replay;
    std::optional<LinkFrame> staged;
    std::uint16_t next_seq = 0;
    LinkReceiver rx;
    std::uint64_t stall_cycles = 0;
  };

  /// Receive-side check of the FIFO front against the sender's replay copy.
  /// On a CRC mismatch the word is rewritten from the replay buffer and the
  /// link held for one NACK round trip (returns false — not readable yet);
  /// past the bounded retry budget the corrupt word is released as-is.
  /// Const because it runs inside can_read(); the repair mutates only
  /// `mutable` receive-path state, which is exactly the lazily-refreshed
  /// state touch() already maintains from const observers.
  [[nodiscard]] bool front_intact() const {
    LinkGuard& g = *guard_;
    const LinkFrame& f = g.replay.front();
    if (g.rx.accept_front(buf_.front(), f.word, f.seq, g.params.max_retries)) {
      return true;
    }
    g.stall_cycles += g.params.retransmit_rtt;
    stall_until_ = std::max(stall_until_, now() + g.params.retransmit_rtt);
    return false;
  }

  /// A fault that mutates this channel returns any agent parked on it to
  /// the runnable set, so the mutation is re-observed this cycle exactly as
  /// under dense stepping.
  void fault_wake() {
    engine_.wake(wait_reader_);
    engine_.wake(wait_writer_);
  }

  [[nodiscard]] common::Cycle now() const { return engine_.now; }

  /// Lazy epoch refresh: on the first touch of a cycle, latch the
  /// start-of-cycle occupancy and free the read slot. Mutable fields make
  /// this callable from const observers (can_read/can_write), which is where
  /// first touches happen.
  void touch() const {
    if (last_cycle_ != engine_.now) {
      last_cycle_ = engine_.now;
      size_at_start_ = buf_.size();
      read_this_cycle_ = false;
    }
  }

  std::string name_;
  // Mutable: front_intact() repairs the FIFO front (and arms the NACK
  // stall) from inside const can_read(), the receive path's only probe.
  mutable common::RingBuffer<Word> buf_;
  mutable std::size_t size_at_start_;
  mutable bool read_this_cycle_ = false;
  bool stats_enabled_ = false;
  EngineState& engine_;
  // Epoch stamp; kNoCycle forces a refresh on the very first touch.
  mutable common::Cycle last_cycle_ = ~common::Cycle{0};
  // Injected or NACK-round-trip link outage, exclusive end cycle. Mutable
  // for the same reason as buf_ (armed by front_intact()).
  mutable common::Cycle stall_until_ = 0;
  std::int32_t wait_reader_ = -1;  // parked reader agent, engine-managed
  std::int32_t wait_writer_ = -1;  // parked writer agent, engine-managed
  std::int32_t wait_count_ = -1;   // agent parked on a transfer count
  std::uint64_t wait_count_target_ = 0;
  std::unique_ptr<LinkGuard> guard_;  // null = link protection off (default)
  std::optional<Word> staged_;
  std::uint64_t words_transferred_ = 0;
  std::uint64_t stats_cycles_ = 0;
  std::uint64_t occupancy_sum_ = 0;
  std::uint64_t full_cycles_ = 0;
};

inline bool EngineState::commit_dirty() {
  bool progress = false;
  for (Channel* ch : dirty) {
    if (ch->commit()) progress = true;
  }
  dirty.clear();
  return progress;
}

}  // namespace raw::sim
