// Fuzz-style robustness tests: random valid switch programs and random
// assembler inputs must never corrupt the simulator (they may stall, which
// is legal hardware behaviour), and the decoded switch step must match a
// reference interpreter of the undecoded instructions cycle for cycle.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/chip.h"
#include "sim/device.h"

namespace raw::sim {
namespace {

// r3 is the jump-table register: only li (with an in-range immediate) and
// recv (fed in-range words, see Stimulus) write it, so `jr r3` always lands
// inside the program. addi and bnezd use r0..r2.
constexpr std::uint8_t kJrReg = 3;

SwitchInstr random_instr(common::Rng& rng, std::size_t program_len) {
  const auto any_reg = [&rng] {
    return static_cast<std::uint8_t>(rng.below(kNumSwitchRegs));
  };
  const auto arith_reg = [&rng] { return static_cast<std::uint8_t>(rng.below(kJrReg)); };
  const auto target = [&rng, program_len] {
    return static_cast<std::int32_t>(rng.below(program_len));
  };
  SwitchInstr ins;
  switch (rng.below(11)) {
    case 0: ins.op = CtrlOp::kNop; break;
    case 1:
      ins.op = CtrlOp::kLi;
      ins.reg = any_reg();
      ins.imm = ins.reg == kJrReg ? target() : static_cast<std::int32_t>(rng.below(100));
      break;
    case 2:
      ins.op = CtrlOp::kAddi;
      ins.reg = arith_reg();
      ins.imm = static_cast<std::int32_t>(rng.below(7)) - 3;
      break;
    case 3:
      ins.op = CtrlOp::kBnez;
      ins.reg = any_reg();
      ins.imm = target();
      break;
    case 4:
      ins.op = CtrlOp::kBeqz;
      ins.reg = any_reg();
      ins.imm = target();
      break;
    case 5:
      ins.op = CtrlOp::kJump;
      ins.imm = target();
      break;
    case 6:
      ins.op = CtrlOp::kRecv;
      ins.reg = any_reg();
      break;
    case 7:
      ins.op = CtrlOp::kJr;
      ins.reg = kJrReg;
      break;
    case 8:
      ins.op = CtrlOp::kBnezd;
      ins.reg = arith_reg();
      ins.imm = target();
      break;
    default:
      ins.op = CtrlOp::kNop;
      break;
  }
  // Random route component on both networks: distinct destinations per
  // network, and no route from $csto (network 1) alongside a recv.
  bool dst_used[kNumStaticNets][5] = {};
  const auto n_moves = rng.below(5);
  for (std::uint64_t m = 0; m < n_moves; ++m) {
    Move move;
    move.net = static_cast<std::uint8_t>(rng.below(kNumStaticNets));
    move.src = static_cast<Dir>(rng.below(5));
    move.dst = static_cast<Dir>(rng.below(5));
    if (move.src == move.dst) continue;
    if (ins.op == CtrlOp::kRecv && move.net == 0 && move.src == Dir::kProc) continue;
    auto& used = dst_used[move.net][static_cast<std::size_t>(move.dst)];
    if (used) continue;
    used = true;
    ins.moves.push_back(move);
  }
  return ins;
}

std::vector<SwitchInstr> random_program(common::Rng& rng, std::size_t len) {
  std::vector<SwitchInstr> instrs;
  for (std::size_t i = 0; i < len; ++i) instrs.push_back(random_instr(rng, len));
  return instrs;
}

// The switch interpreter as it walked SwitchInstr before programs were
// decoded: the oracle SwitchProcessor::step() must match cycle for cycle.
struct RefSwitch {
  const SwitchProcessor::Ports* ports = nullptr;
  std::shared_ptr<const SwitchProgram> program;
  std::size_t pc = 0;
  bool halted = false;
  std::array<common::Word, kNumSwitchRegs> regs{};
  std::uint64_t busy = 0;
  std::uint64_t blocked_recv = 0;
  std::uint64_t blocked_send = 0;
  std::uint64_t idle = 0;
  AgentState last = AgentState::kIdle;
  const Channel* block = nullptr;

  Channel* in(std::uint8_t net, std::size_t d) const {
    return ports->in[switch_port(net, static_cast<Dir>(d))];
  }
  Channel* out(const Move& m) const { return ports->out[switch_port(m.net, m.dst)]; }

  AgentState step() {
    block = nullptr;
    if (program == nullptr || halted || pc >= program->size()) {
      halted = true;
      ++idle;
      return last = AgentState::kIdle;
    }
    const SwitchInstr& ins = program->at(pc);
    bool src_needed[kNumStaticNets][5] = {};
    for (const Move& m : ins.moves) {
      src_needed[m.net][static_cast<std::size_t>(m.src)] = true;
    }
    if (ins.op == CtrlOp::kRecv) src_needed[0][static_cast<std::size_t>(Dir::kProc)] = true;
    for (std::uint8_t net = 0; net < kNumStaticNets; ++net) {
      for (std::size_t d = 0; d < 5; ++d) {
        if (src_needed[net][d] && !in(net, d)->can_read()) {
          ++blocked_recv;
          block = in(net, d);
          return last = AgentState::kBlockedRecv;
        }
      }
    }
    for (const Move& m : ins.moves) {
      if (!out(m)->can_write()) {
        ++blocked_send;
        block = out(m);
        return last = AgentState::kBlockedSend;
      }
    }
    common::Word value[kNumStaticNets][5] = {};
    for (std::uint8_t net = 0; net < kNumStaticNets; ++net) {
      for (std::size_t d = 0; d < 5; ++d) {
        if (src_needed[net][d]) value[net][d] = in(net, d)->read();
      }
    }
    for (const Move& m : ins.moves) {
      out(m)->write(value[m.net][static_cast<std::size_t>(m.src)]);
    }
    std::size_t next_pc = pc + 1;
    common::Word& r = regs[ins.reg];
    switch (ins.op) {
      case CtrlOp::kNop: break;
      case CtrlOp::kHalt: halted = true; break;
      case CtrlOp::kJump: next_pc = static_cast<std::size_t>(ins.imm); break;
      case CtrlOp::kLi: r = static_cast<common::Word>(ins.imm); break;
      case CtrlOp::kAddi:
        r = static_cast<common::Word>(static_cast<std::int64_t>(r) + ins.imm);
        break;
      case CtrlOp::kBnez:
        if (r != 0) next_pc = static_cast<std::size_t>(ins.imm);
        break;
      case CtrlOp::kBeqz:
        if (r == 0) next_pc = static_cast<std::size_t>(ins.imm);
        break;
      case CtrlOp::kRecv: r = value[0][static_cast<std::size_t>(Dir::kProc)]; break;
      case CtrlOp::kJr: next_pc = r; break;
      case CtrlOp::kBnezd:
        r -= 1;
        if (r != 0) next_pc = static_cast<std::size_t>(ins.imm);
        break;
    }
    pc = next_pc;
    ++busy;
    return last = AgentState::kBusy;
  }
};

// Steps one RefSwitch per tile against the (unloaded) switches' channels.
class RefSwitches : public Device {
 public:
  RefSwitches(const Chip& chip,
              const std::vector<std::shared_ptr<const SwitchProgram>>& programs) {
    for (int t = 0; t < chip.num_tiles(); ++t) {
      RefSwitch& sw = switches_.emplace_back();
      sw.ports = &chip.tile(t).switch_proc().ports();
      sw.program = programs[static_cast<std::size_t>(t)];
    }
  }
  void step(Chip&) override {
    for (RefSwitch& sw : switches_) (void)sw.step();
  }
  [[nodiscard]] const RefSwitch& at(int t) const {
    return switches_[static_cast<std::size_t>(t)];
  }

 private:
  std::vector<RefSwitch> switches_;
};

// Seeded traffic around every switch: each cycle, with probability 1/2
// per channel, writes a word into every chip-edge input and $csto, and
// reads every chip-edge output and $csti, hashing what it reads. Network-1
// $csto words stay below the tile's program length so recv'd jr targets are
// valid. Same seed, same switch behaviour => same draws on both chips.
class Stimulus : public Device {
 public:
  Stimulus(Chip& chip, const std::vector<std::size_t>& lens, std::uint64_t seed)
      : rng_(seed) {
    for (int t = 0; t < chip.num_tiles(); ++t) {
      const TileCoord c = chip.shape().coord(t);
      for (int net = 0; net < kNumStaticNets; ++net) {
        for (const Dir d : kMeshDirs) {
          if (chip.shape().contains(GridShape::neighbor(c, d))) continue;
          const IoPort port = chip.io_port(net, t, d);
          feeds_.push_back({port.to_chip, 0});
          drains_.push_back(port.from_chip);
        }
        feeds_.push_back({&chip.tile(t).csto(net),
                          net == 0 ? lens[static_cast<std::size_t>(t)] : 0});
        drains_.push_back(&chip.tile(t).csti(net));
      }
    }
  }
  void step(Chip&) override {
    for (const Feed& f : feeds_) {
      if (rng_.below(2) != 0 || !f.ch->can_write()) continue;
      f.ch->write(static_cast<common::Word>(f.bound != 0 ? rng_.below(f.bound)
                                                         : rng_.next()));
    }
    for (Channel* ch : drains_) {
      if (rng_.below(2) != 0 || !ch->can_read()) continue;
      hash_ = (hash_ ^ ch->read()) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  struct Feed {
    Channel* ch;
    std::uint64_t bound;  // 0 = any word
  };
  common::Rng rng_;
  std::vector<Feed> feeds_;
  std::vector<Channel*> drains_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST(SwitchFuzzTest, DecodedSwitchMatchesReferenceInterpreter) {
  common::Rng rng(8128);
  for (int trial = 0; trial < 40; ++trial) {
    Chip chip;      // runs SwitchProcessor::step() on the decoded programs
    Chip ref_chip;  // switches unloaded; RefSwitches drives their channels
    chip.set_force_dense(true);
    std::vector<std::size_t> lens;
    std::vector<std::shared_ptr<const SwitchProgram>> programs;
    for (int t = 0; t < chip.num_tiles(); ++t) {
      const std::size_t len = 4 + rng.below(12);
      std::vector<SwitchInstr> instrs = random_program(rng, len);
      ASSERT_EQ(SwitchProgram::validate(instrs), "");
      programs.push_back(std::make_shared<const SwitchProgram>(std::move(instrs)));
      lens.push_back(len);
      chip.tile(t).switch_proc().load(programs.back());
    }
    const auto seed = static_cast<std::uint64_t>(trial) + 1;
    Stimulus stim(chip, lens, seed);
    Stimulus ref_stim(ref_chip, lens, seed);
    RefSwitches ref(ref_chip, programs);
    chip.add_device(&stim);
    ref_chip.add_device(&ref_stim);
    ref_chip.add_device(&ref);

    for (int cycle = 0; cycle < 300; ++cycle) {
      chip.run(1);
      ref_chip.run(1);
      for (int t = 0; t < chip.num_tiles(); ++t) {
        const SwitchProcessor& sw = chip.tile(t).switch_proc();
        const RefSwitch& r = ref.at(t);
        const std::string where = "trial " + std::to_string(trial) + " cycle " +
                                  std::to_string(cycle) + " tile " + std::to_string(t);
        ASSERT_EQ(sw.last_state(), r.last) << where;
        ASSERT_EQ(sw.pc(), r.pc) << where;
        ASSERT_EQ(sw.halted(), r.halted) << where;
        for (std::uint8_t g = 0; g < kNumSwitchRegs; ++g) {
          ASSERT_EQ(sw.reg(g), r.regs[g]) << where << " r" << int{g};
        }
        ASSERT_EQ(sw.cycles_busy(), r.busy) << where;
        ASSERT_EQ(sw.cycles_blocked_recv(), r.blocked_recv) << where;
        ASSERT_EQ(sw.cycles_blocked_send(), r.blocked_send) << where;
        ASSERT_EQ(sw.cycles_idle(), r.idle) << where;
        const auto name = [](const Channel* ch) {
          return ch == nullptr ? std::string("-") : ch->name();
        };
        ASSERT_EQ(name(sw.last_block_channel()), name(r.block)) << where;
      }
    }
    EXPECT_EQ(stim.hash(), ref_stim.hash()) << "trial " << trial;
    const auto& chans = chip.all_channels();
    const auto& ref_chans = ref_chip.all_channels();
    ASSERT_EQ(chans.size(), ref_chans.size());
    for (std::size_t i = 0; i < chans.size(); ++i) {
      EXPECT_EQ(chans[i]->words_transferred(), ref_chans[i]->words_transferred())
          << chans[i]->name();
    }
  }
}

TEST(SwitchFuzzTest, RandomValidProgramsNeverCorruptTheChip) {
  common::Rng rng(314159);
  for (int trial = 0; trial < 30; ++trial) {
    Chip chip;
    for (int t = 0; t < chip.num_tiles(); ++t) {
      const std::size_t len = 4 + rng.below(12);
      std::vector<SwitchInstr> instrs = random_program(rng, len);
      if (!SwitchProgram::validate(instrs).empty()) continue;  // skip invalid
      chip.tile(t).switch_proc().load(
          std::make_shared<const SwitchProgram>(std::move(instrs)));
    }
    // Feed all edges so routes have data to chew on.
    chip.run(300);  // must not abort; stalls are fine
    SUCCEED();
  }
}

TEST(SwitchFuzzTest, AssemblerNeverCrashesOnGarbage) {
  common::Rng rng(2718);
  const std::string alphabet = "rnopjbeqzlia0123456789 ,|>@NSEWP:#\n\t";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const auto len = rng.below(120);
    for (std::uint64_t i = 0; i < len; ++i) {
      text += alphabet[rng.below(alphabet.size())];
    }
    std::string error;
    (void)assemble(text, &error);  // must return or set error, never crash
  }
  SUCCEED();
}

TEST(SwitchFuzzTest, AssembleDisassembleFixpoint) {
  // Disassembly of a valid program reassembles to the identical program
  // (after stripping the index prefixes) across randomized programs.
  common::Rng rng(979);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 3 + rng.below(10);
    std::vector<SwitchInstr> instrs = random_program(rng, len);
    if (!SwitchProgram::validate(instrs).empty()) continue;
    const SwitchProgram p1(std::move(instrs));
    std::string stripped;
    const std::string disasm = disassemble(p1);
    for (std::size_t pos = 0; pos < disasm.size();) {
      const std::size_t colon = disasm.find(": ", pos);
      const std::size_t eol = disasm.find('\n', pos);
      stripped += disasm.substr(colon + 2, eol - colon - 2);
      stripped += '\n';
      pos = eol + 1;
    }
    std::string error;
    const SwitchProgram p2 = assemble(stripped, &error);
    ASSERT_TRUE(error.empty()) << error << "\n" << stripped;
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_EQ(p1.at(i), p2.at(i)) << stripped;
    }
  }
}

}  // namespace
}  // namespace raw::sim
