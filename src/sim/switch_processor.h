// Execution model of a tile's static switch processor.
//
// The switch fetches one instruction per cycle. An instruction fires only if
// every route source has a word available and every route destination has
// FIFO space; otherwise the switch stalls with no side effects. When it
// fires, each distinct (network, source) is read exactly once and fanned out
// to all of its destinations (the crossbar can multicast), and the control
// component executes in the same cycle.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "sim/channel.h"
#include "sim/switch_isa.h"

namespace raw::sim {

/// What a processor (tile or switch) did during a cycle, for tracing.
enum class AgentState : std::uint8_t {
  kBusy = 0,         // advanced (computed or moved data)
  kBlockedRecv = 1,  // stalled waiting for an incoming word
  kBlockedSend = 2,  // stalled on a full outgoing FIFO
  kBlockedMem = 3,   // stalled on a (modelled) cache miss
  kIdle = 4,         // halted or unprogrammed
};

class SwitchProcessor {
 public:
  /// Channel endpoints seen by this switch, indexed by switch_port(net,
  /// dir). `in` channels are the ones the switch reads (from neighbouring
  /// tiles' switches, edge I/O ports, or the tile processor's $csto); `out`
  /// channels are the ones it writes. Entries may be null where no link
  /// exists (an unconnected chip edge): routing to or from a null port is a
  /// hard error caught at run time.
  struct Ports {
    std::array<Channel*, kNumSwitchPorts> in{};
    std::array<Channel*, kNumSwitchPorts> out{};
  };

  void connect(Ports ports) { ports_ = ports; }
  [[nodiscard]] const Ports& ports() const { return ports_; }

  /// Loads a program and resets the PC. The program is shared because the
  /// four crossbar tiles of a port-symmetric router run rotated copies built
  /// from the same schedule.
  void load(std::shared_ptr<const SwitchProgram> program);
  [[nodiscard]] bool loaded() const { return program_ != nullptr; }

  void reset();

  /// Advances one cycle; returns what the switch did.
  AgentState step();

  [[nodiscard]] std::size_t pc() const { return pc_; }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] common::Word reg(std::uint8_t r) const { return regs_[r]; }

  /// What the last step() returned, and — when it blocked — the channel it
  /// blocked on. Consumed by the progress watchdog to explain stalls.
  [[nodiscard]] AgentState last_state() const { return last_state_; }
  [[nodiscard]] const Channel* last_block_channel() const {
    return last_block_channel_;
  }

  /// Sparse-engine catch-up: credits `n` cycles spent parked in `cause`
  /// (blocked-recv, blocked-send, or idle) without being stepped, so the
  /// per-cause counters match an engine that steps every cycle.
  void credit_parked(AgentState cause, std::uint64_t n) {
    switch (cause) {
      case AgentState::kBlockedRecv: blocked_recv_ += n; break;
      case AgentState::kBlockedSend: blocked_send_ += n; break;
      case AgentState::kIdle: idle_ += n; break;
      default: break;
    }
  }

  /// Cycle accounting since the last reset(), split by block cause.
  [[nodiscard]] std::uint64_t cycles_busy() const { return busy_; }
  [[nodiscard]] std::uint64_t cycles_blocked() const {
    return blocked_recv_ + blocked_send_;
  }
  [[nodiscard]] std::uint64_t cycles_blocked_recv() const { return blocked_recv_; }
  [[nodiscard]] std::uint64_t cycles_blocked_send() const { return blocked_send_; }
  [[nodiscard]] std::uint64_t cycles_idle() const { return idle_; }

 private:
  Ports ports_{};
  std::shared_ptr<const SwitchProgram> program_;
  // program_'s decoded instructions and their count (0 with no program),
  // cached by load() for the per-cycle fetch.
  const SwitchProgram::Decoded* code_ = nullptr;
  std::size_t code_size_ = 0;
  std::size_t pc_ = 0;
  bool halted_ = false;
  std::array<common::Word, kNumSwitchRegs> regs_{};
  std::uint64_t busy_ = 0;
  std::uint64_t blocked_recv_ = 0;
  std::uint64_t blocked_send_ = 0;
  std::uint64_t idle_ = 0;
  AgentState last_state_ = AgentState::kIdle;
  const Channel* last_block_channel_ = nullptr;
};

}  // namespace raw::sim
