// Instruction set of the Raw static switch processor (§3.3).
//
// Each switch instruction pairs one *control* operation (a branch, an
// immediate ALU op on the small switch register file, or a word transfer from
// the tile processor) with any number of *route* components. A route
// component moves one word between two of the five crossbar endpoints
// {N, S, E, W, Proc} on one of the two static networks. The whole instruction
// fires atomically: if any source word is missing or any destination FIFO is
// full, the switch stalls without side effects — this is exactly the Raw
// static network's flow-control behaviour and is what makes compile-time
// schedules deadlock-free when generated conflict-free.
//
// A tiny textual assembler/disassembler is provided so that schedules emitted
// by the router's compile-time scheduler can be inspected and written by hand
// in tests. Syntax, one instruction per line ('#' starts a comment):
//
//   label:  bnez r0, label | W>P, P>E@2
//
// i.e. an optional label, an optional control op, and after '|' (or alone) a
// comma-separated route list SRC>DST with an optional @2 suffix selecting
// static network 2. Control ops:
//
//   nop | halt | jump L | li rN, imm | addi rN, imm
//   bnez rN, L | beqz rN, L | recv rN      (rN <- word from $csto, network 1)
//   jr rN          (jump to the instruction index in rN — how the tile
//                   processor "loads the address of the configuration into
//                   the program counter of the switch processor", §6.5)
//   bnezd rN, L    (decrement rN, branch if the result is non-zero: the
//                   single-cycle streaming loop; rN = Q executes the
//                   instruction's routes exactly Q times at 1 word/cycle)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/coords.h"

namespace raw::sim {

inline constexpr int kNumStaticNets = 2;
inline constexpr int kNumSwitchRegs = 4;
/// Crossbar endpoints per switch across both static networks: port index
/// `net * 5 + dir` (see switch_port()).
inline constexpr std::size_t kNumSwitchPorts = kNumStaticNets * 5;
/// Switch instruction memory: 8,192 words per tile (§3.2).
inline constexpr std::size_t kSwitchImemWords = 8192;

enum class CtrlOp : std::uint8_t {
  kNop,
  kHalt,
  kJump,
  kLi,
  kAddi,
  kBnez,
  kBeqz,
  kRecv,   // pop one word from the processor's $csto (net 1) into a register
  kJr,     // indirect jump to the instruction index held in a register
  kBnezd,  // decrement register, branch when the result is non-zero
};

constexpr std::size_t switch_port(std::uint8_t net, Dir d) {
  return std::size_t{net} * 5 + static_cast<std::size_t>(d);
}

/// One crossbar move: word travels src -> dst on static network `net`.
struct Move {
  std::uint8_t net = 0;  // 0 or 1
  Dir src = Dir::kProc;
  Dir dst = Dir::kProc;

  friend bool operator==(const Move&, const Move&) = default;
};

struct SwitchInstr {
  CtrlOp op = CtrlOp::kNop;
  std::uint8_t reg = 0;   // register operand for li/addi/bnez/beqz/recv
  std::int32_t imm = 0;   // immediate, or absolute branch target index
  std::vector<Move> moves;

  friend bool operator==(const SwitchInstr&, const SwitchInstr&) = default;
};

/// A validated switch program.
class SwitchProgram {
 public:
  /// An instruction decoded once at construction into what one switch step
  /// needs: the distinct sources in the order their readiness is checked
  /// ((net, dir) ascending), each destination in move order with the source
  /// slot that feeds it, and the slot `recv` consumes. Ports are indices
  /// `net * 5 + dir` relative to the executing switch, never channels, so
  /// every tile that loads the program shares one decoded copy.
  struct Decoded {
    CtrlOp op = CtrlOp::kNop;
    std::uint8_t reg = 0;
    std::uint8_t num_src = 0;
    std::uint8_t num_dst = 0;
    std::int32_t imm = 0;
    std::uint8_t recv_slot = 0;  // meaningful only when op == kRecv
    std::array<std::uint8_t, kNumSwitchPorts> src{};
    std::array<std::uint8_t, kNumSwitchPorts> dst{};
    std::array<std::uint8_t, kNumSwitchPorts> feed{};  // src slot of dst[k]
  };

  SwitchProgram() = default;
  explicit SwitchProgram(std::vector<SwitchInstr> instrs);

  [[nodiscard]] const std::vector<SwitchInstr>& instrs() const { return instrs_; }
  [[nodiscard]] std::size_t size() const { return instrs_.size(); }
  [[nodiscard]] const SwitchInstr& at(std::size_t pc) const { return instrs_[pc]; }
  /// The decoded instructions, size() of them.
  [[nodiscard]] const Decoded* decoded_code() const { return decoded_.data(); }

  /// Validation: program fits in switch imem, branch targets are in range,
  /// register indices are valid, and within each instruction no destination
  /// (per network) is written twice and the $csto source is not consumed by
  /// both a route and a `recv`. Returns an error description or empty string.
  [[nodiscard]] static std::string validate(const std::vector<SwitchInstr>& instrs);

 private:
  std::vector<SwitchInstr> instrs_;
  std::vector<Decoded> decoded_;
};

/// Convenience builder with label resolution (used by the schedule compiler).
class SwitchProgramBuilder {
 public:
  /// Appends an instruction; returns its index.
  std::size_t emit(SwitchInstr instr);
  std::size_t emit_route(std::vector<Move> moves);
  std::size_t emit_halt();

  /// Defines `label` at the next instruction index.
  void define_label(const std::string& label);
  /// Emits an op whose imm is the (possibly forward) label target.
  std::size_t emit_branch(CtrlOp op, std::uint8_t reg, const std::string& label);
  std::size_t emit_jump(const std::string& label);

  [[nodiscard]] std::size_t next_index() const { return instrs_.size(); }

  /// Resolves labels and validates; aborts on malformed programs (compiler
  /// bugs, not user input).
  [[nodiscard]] SwitchProgram build();

 private:
  struct Fixup {
    std::size_t instr_index;
    std::string label;
  };
  std::vector<SwitchInstr> instrs_;
  std::vector<Fixup> fixups_;
  std::vector<std::pair<std::string, std::size_t>> labels_;
};

/// Assembles the textual form described above. Returns the program or sets
/// `error` (line-numbered message) and returns an empty program.
SwitchProgram assemble(const std::string& text, std::string* error);

/// Textual form of a program; `disassemble(assemble(t))` round-trips
/// modulo labels (branch targets are printed as absolute indices).
std::string disassemble(const SwitchProgram& program);
std::string to_string(const SwitchInstr& instr);

}  // namespace raw::sim
