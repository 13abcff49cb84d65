#include "sim/switch_processor.h"

#include "common/assert.h"

namespace raw::sim {

void SwitchProcessor::load(std::shared_ptr<const SwitchProgram> program) {
  program_ = std::move(program);
  code_ = program_ != nullptr ? program_->decoded_code() : nullptr;
  code_size_ = program_ != nullptr ? program_->size() : 0;
  reset();
}

void SwitchProcessor::reset() {
  pc_ = 0;
  halted_ = false;
  regs_.fill(0);
  busy_ = 0;
  blocked_recv_ = 0;
  blocked_send_ = 0;
  idle_ = 0;
  last_state_ = AgentState::kIdle;
  last_block_channel_ = nullptr;
}

AgentState SwitchProcessor::step() {
  last_block_channel_ = nullptr;
  if (halted_ || pc_ >= code_size_) {  // code_size_ is 0 with no program
    halted_ = true;
    ++idle_;
    return last_state_ = AgentState::kIdle;
  }
  const SwitchProgram::Decoded& ins = code_[pc_];

  // Readiness check: every distinct source needs an available word, in
  // (net, dir) order; every destination needs write space, in move order.
  // The channels that pass are kept, so the fire phase below neither looks
  // them up nor checks them again.
  std::array<Channel*, kNumSwitchPorts> src_ch{};
  std::array<Channel*, kNumSwitchPorts> dst_ch{};
  for (std::size_t k = 0; k < ins.num_src; ++k) {
    Channel* ch = ports_.in[ins.src[k]];
    RAW_ASSERT_MSG(ch != nullptr, "switch route from unconnected port");
    if (!ch->can_read()) {
      ++blocked_recv_;
      last_block_channel_ = ch;
      return last_state_ = AgentState::kBlockedRecv;
    }
    src_ch[k] = ch;
  }
  for (std::size_t k = 0; k < ins.num_dst; ++k) {
    Channel* ch = ports_.out[ins.dst[k]];
    RAW_ASSERT_MSG(ch != nullptr, "switch route to unconnected port");
    if (!ch->can_write()) {
      ++blocked_send_;
      last_block_channel_ = ch;
      return last_state_ = AgentState::kBlockedSend;
    }
    dst_ch[k] = ch;
  }

  // Fire: read each distinct source once, then fan out. Sources and
  // destinations are distinct channels, so no read or write here changes
  // another's readiness.
  std::array<common::Word, kNumSwitchPorts> src_value{};
  for (std::size_t k = 0; k < ins.num_src; ++k) {
    src_value[k] = src_ch[k]->read_ready();
  }
  for (std::size_t k = 0; k < ins.num_dst; ++k) {
    dst_ch[k]->write_ready(src_value[ins.feed[k]]);
  }

  // Control component.
  std::size_t next_pc = pc_ + 1;
  switch (ins.op) {
    case CtrlOp::kNop:
      break;
    case CtrlOp::kHalt:
      halted_ = true;
      break;
    case CtrlOp::kJump:
      next_pc = static_cast<std::size_t>(ins.imm);
      break;
    case CtrlOp::kLi:
      regs_[ins.reg] = static_cast<common::Word>(ins.imm);
      break;
    case CtrlOp::kAddi:
      regs_[ins.reg] =
          static_cast<common::Word>(static_cast<std::int64_t>(regs_[ins.reg]) + ins.imm);
      break;
    case CtrlOp::kBnez:
      if (regs_[ins.reg] != 0) next_pc = static_cast<std::size_t>(ins.imm);
      break;
    case CtrlOp::kBeqz:
      if (regs_[ins.reg] == 0) next_pc = static_cast<std::size_t>(ins.imm);
      break;
    case CtrlOp::kRecv:
      regs_[ins.reg] = src_value[ins.recv_slot];
      break;
    case CtrlOp::kJr:
      next_pc = regs_[ins.reg];
      RAW_ASSERT_MSG(next_pc < code_size_, "jr target out of range");
      break;
    case CtrlOp::kBnezd:
      regs_[ins.reg] -= 1;
      if (regs_[ins.reg] != 0) next_pc = static_cast<std::size_t>(ins.imm);
      break;
  }
  pc_ = next_pc;
  ++busy_;
  return last_state_ = AgentState::kBusy;
}

}  // namespace raw::sim
