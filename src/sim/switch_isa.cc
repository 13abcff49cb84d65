#include "sim/switch_isa.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <unordered_map>

#include "common/assert.h"

namespace raw::sim {
namespace {

bool is_branch(CtrlOp op) {
  return op == CtrlOp::kJump || op == CtrlOp::kBnez || op == CtrlOp::kBeqz ||
         op == CtrlOp::kBnezd;
}

bool parse_dir(char c, Dir* out) {
  switch (std::toupper(static_cast<unsigned char>(c))) {
    case 'N': *out = Dir::kNorth; return true;
    case 'S': *out = Dir::kSouth; return true;
    case 'E': *out = Dir::kEast; return true;
    case 'W': *out = Dir::kWest; return true;
    case 'P': *out = Dir::kProc; return true;
    default: return false;
  }
}

std::string trim(std::string s) {
  const auto not_space = [](unsigned char c) { return std::isspace(c) == 0; };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), not_space));
  s.erase(std::find_if(s.rbegin(), s.rend(), not_space).base(), s.end());
  return s;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(trim(cur));
  return parts;
}

// Parses "SRC>DST" or "SRC>DST@2".
bool parse_move(const std::string& token, Move* out, std::string* error) {
  std::string t = token;
  std::uint8_t net = 0;
  if (t.size() >= 2 && t[t.size() - 2] == '@') {
    const char n = t.back();
    if (n == '1') {
      net = 0;
    } else if (n == '2') {
      net = 1;
    } else {
      *error = "bad network suffix in move '" + token + "'";
      return false;
    }
    t = trim(t.substr(0, t.size() - 2));
  }
  if (t.size() != 3 || t[1] != '>') {
    *error = "bad move '" + token + "' (expected SRC>DST)";
    return false;
  }
  Dir src{};
  Dir dst{};
  if (!parse_dir(t[0], &src) || !parse_dir(t[2], &dst)) {
    *error = "bad direction in move '" + token + "'";
    return false;
  }
  if (src == dst) {
    *error = "move '" + token + "' routes a port to itself";
    return false;
  }
  *out = Move{net, src, dst};
  return true;
}

SwitchProgram::Decoded decode(const SwitchInstr& ins) {
  SwitchProgram::Decoded d;
  d.op = ins.op;
  d.reg = ins.reg;
  d.imm = ins.imm;
  std::array<bool, kNumSwitchPorts> needed{};
  for (const Move& m : ins.moves) needed[switch_port(m.net, m.src)] = true;
  const std::size_t csto = switch_port(0, Dir::kProc);
  if (ins.op == CtrlOp::kRecv) needed[csto] = true;
  // Each distinct source gets one slot, in port-index = (net, dir) order.
  std::array<std::uint8_t, kNumSwitchPorts> slot{};
  for (std::size_t p = 0; p < kNumSwitchPorts; ++p) {
    if (!needed[p]) continue;
    slot[p] = d.num_src;
    d.src[d.num_src++] = static_cast<std::uint8_t>(p);
  }
  for (const Move& m : ins.moves) {
    d.dst[d.num_dst] = static_cast<std::uint8_t>(switch_port(m.net, m.dst));
    d.feed[d.num_dst++] = slot[switch_port(m.net, m.src)];
  }
  if (ins.op == CtrlOp::kRecv) d.recv_slot = slot[csto];
  return d;
}

}  // namespace

SwitchProgram::SwitchProgram(std::vector<SwitchInstr> instrs)
    : instrs_(std::move(instrs)) {
  const std::string err = validate(instrs_);
  RAW_ASSERT_MSG(err.empty(), err.c_str());
  decoded_.reserve(instrs_.size());
  for (const SwitchInstr& ins : instrs_) decoded_.push_back(decode(ins));
}

std::string SwitchProgram::validate(const std::vector<SwitchInstr>& instrs) {
  if (instrs.size() > kSwitchImemWords) {
    return "switch program exceeds 8K-word instruction memory (" +
           std::to_string(instrs.size()) + " instructions)";
  }
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const SwitchInstr& ins = instrs[i];
    const std::string where = " at instruction " + std::to_string(i);
    if (is_branch(ins.op)) {
      if (ins.imm < 0 || static_cast<std::size_t>(ins.imm) >= instrs.size()) {
        return "branch target out of range" + where;
      }
    }
    const bool uses_reg = ins.op == CtrlOp::kLi || ins.op == CtrlOp::kAddi ||
                          ins.op == CtrlOp::kBnez || ins.op == CtrlOp::kBeqz ||
                          ins.op == CtrlOp::kRecv || ins.op == CtrlOp::kJr ||
                          ins.op == CtrlOp::kBnezd;
    if (uses_reg && ins.reg >= kNumSwitchRegs) {
      return "register index out of range" + where;
    }
    bool dst_seen[kNumStaticNets][5] = {};
    bool csto_routed[kNumStaticNets] = {};
    for (const Move& m : ins.moves) {
      if (m.net >= kNumStaticNets) return "bad network in move" + where;
      if (m.src > Dir::kProc || m.dst > Dir::kProc) {
        return "bad direction in move" + where;
      }
      const auto d = static_cast<std::size_t>(m.dst);
      if (dst_seen[m.net][d]) {
        return "destination written twice in one instruction" + where;
      }
      dst_seen[m.net][d] = true;
      if (m.src == Dir::kProc) csto_routed[m.net] = true;
    }
    if (ins.op == CtrlOp::kRecv && csto_routed[0]) {
      return "recv and a route both consume $csto" + where;
    }
  }
  return {};
}

std::size_t SwitchProgramBuilder::emit(SwitchInstr instr) {
  instrs_.push_back(std::move(instr));
  return instrs_.size() - 1;
}

std::size_t SwitchProgramBuilder::emit_route(std::vector<Move> moves) {
  SwitchInstr ins;
  ins.moves = std::move(moves);
  return emit(std::move(ins));
}

std::size_t SwitchProgramBuilder::emit_halt() {
  SwitchInstr ins;
  ins.op = CtrlOp::kHalt;
  return emit(std::move(ins));
}

void SwitchProgramBuilder::define_label(const std::string& label) {
  labels_.emplace_back(label, instrs_.size());
}

std::size_t SwitchProgramBuilder::emit_branch(CtrlOp op, std::uint8_t reg,
                                              const std::string& label) {
  RAW_ASSERT(op == CtrlOp::kBnez || op == CtrlOp::kBeqz);
  SwitchInstr ins;
  ins.op = op;
  ins.reg = reg;
  fixups_.push_back({instrs_.size(), label});
  return emit(std::move(ins));
}

std::size_t SwitchProgramBuilder::emit_jump(const std::string& label) {
  SwitchInstr ins;
  ins.op = CtrlOp::kJump;
  fixups_.push_back({instrs_.size(), label});
  return emit(std::move(ins));
}

SwitchProgram SwitchProgramBuilder::build() {
  std::unordered_map<std::string, std::size_t> label_map;
  for (const auto& [name, index] : labels_) {
    RAW_ASSERT_MSG(label_map.emplace(name, index).second, "duplicate label");
  }
  for (const Fixup& fix : fixups_) {
    const auto it = label_map.find(fix.label);
    RAW_ASSERT_MSG(it != label_map.end(), "undefined label in switch program");
    instrs_[fix.instr_index].imm = static_cast<std::int32_t>(it->second);
  }
  return SwitchProgram(std::move(instrs_));
}

SwitchProgram assemble(const std::string& text, std::string* error) {
  RAW_ASSERT(error != nullptr);
  error->clear();

  struct Line {
    SwitchInstr instr;
    std::string branch_label;  // non-empty if imm needs label resolution
  };
  std::vector<Line> lines;
  std::unordered_map<std::string, std::size_t> labels;

  std::istringstream in(text);
  std::string raw_line;
  int lineno = 0;
  const auto fail = [&](const std::string& msg) {
    *error = "line " + std::to_string(lineno) + ": " + msg;
    return SwitchProgram{};
  };

  while (std::getline(in, raw_line)) {
    ++lineno;
    std::string line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    // Optional leading "label:".
    if (const auto colon = line.find(':'); colon != std::string::npos &&
        line.find('>') > colon) {
      const std::string label = trim(line.substr(0, colon));
      if (label.empty()) return fail("empty label");
      if (!labels.emplace(label, lines.size()).second) {
        return fail("duplicate label '" + label + "'");
      }
      line = trim(line.substr(colon + 1));
      if (line.empty()) continue;  // bare label applies to next instruction
    }

    // Split control part and route part.
    std::string ctrl_part = line;
    std::string route_part;
    if (const auto bar = line.find('|'); bar != std::string::npos) {
      ctrl_part = trim(line.substr(0, bar));
      route_part = trim(line.substr(bar + 1));
    } else if (line.find('>') != std::string::npos) {
      // A bare route list, possibly prefixed with "route".
      ctrl_part.clear();
      route_part = line;
    }
    if (route_part.rfind("route", 0) == 0) {
      route_part = trim(route_part.substr(5));
    }
    if (ctrl_part.rfind("route", 0) == 0) {
      route_part = trim(ctrl_part.substr(5));
      ctrl_part.clear();
    }

    Line out;
    if (!ctrl_part.empty()) {
      std::istringstream cs(ctrl_part);
      std::string op;
      cs >> op;
      const auto parse_reg = [&](std::string tok, std::uint8_t* reg) {
        tok = trim(tok);
        if (!tok.empty() && tok.back() == ',') tok.pop_back();
        if (tok.size() < 2 || tok[0] != 'r') return false;
        int value = 0;
        const auto [p, ec] =
            std::from_chars(tok.data() + 1, tok.data() + tok.size(), value);
        if (ec != std::errc{} || p != tok.data() + tok.size()) return false;
        if (value < 0 || value >= kNumSwitchRegs) return false;
        *reg = static_cast<std::uint8_t>(value);
        return true;
      };
      std::string a;
      std::string b;
      if (op == "nop") {
        out.instr.op = CtrlOp::kNop;
      } else if (op == "halt") {
        out.instr.op = CtrlOp::kHalt;
      } else if (op == "jump") {
        cs >> a;
        out.instr.op = CtrlOp::kJump;
        out.branch_label = trim(a);
      } else if (op == "li" || op == "addi") {
        cs >> a >> b;
        out.instr.op = op == "li" ? CtrlOp::kLi : CtrlOp::kAddi;
        if (!parse_reg(a, &out.instr.reg)) return fail("bad register in '" + line + "'");
        b = trim(b);
        int value = 0;
        const auto [p, ec] = std::from_chars(b.data(), b.data() + b.size(), value);
        if (ec != std::errc{} || p != b.data() + b.size()) {
          return fail("bad immediate in '" + line + "'");
        }
        out.instr.imm = value;
      } else if (op == "bnez" || op == "beqz" || op == "bnezd") {
        cs >> a >> b;
        out.instr.op = op == "bnez" ? CtrlOp::kBnez
                       : op == "beqz" ? CtrlOp::kBeqz
                                      : CtrlOp::kBnezd;
        if (!parse_reg(a, &out.instr.reg)) return fail("bad register in '" + line + "'");
        out.branch_label = trim(b);
      } else if (op == "jr") {
        cs >> a;
        out.instr.op = CtrlOp::kJr;
        if (!parse_reg(a, &out.instr.reg)) return fail("bad register in '" + line + "'");
      } else if (op == "recv") {
        cs >> a;
        out.instr.op = CtrlOp::kRecv;
        if (!parse_reg(a, &out.instr.reg)) return fail("bad register in '" + line + "'");
      } else {
        return fail("unknown control op '" + op + "'");
      }
    }
    if (!route_part.empty()) {
      for (const std::string& tok : split(route_part, ',')) {
        if (tok.empty()) continue;
        Move move;
        std::string move_error;
        if (!parse_move(tok, &move, &move_error)) return fail(move_error);
        out.instr.moves.push_back(move);
      }
    }
    lines.push_back(std::move(out));
  }

  std::vector<SwitchInstr> instrs;
  instrs.reserve(lines.size());
  for (Line& l : lines) {
    if (!l.branch_label.empty()) {
      // A branch label may also be a bare absolute index.
      const auto it = labels.find(l.branch_label);
      if (it != labels.end()) {
        l.instr.imm = static_cast<std::int32_t>(it->second);
      } else {
        int value = 0;
        const auto [p, ec] = std::from_chars(
            l.branch_label.data(), l.branch_label.data() + l.branch_label.size(),
            value);
        if (ec != std::errc{} || p != l.branch_label.data() + l.branch_label.size()) {
          *error = "undefined label '" + l.branch_label + "'";
          return SwitchProgram{};
        }
        l.instr.imm = value;
      }
    }
    instrs.push_back(std::move(l.instr));
  }

  const std::string verr = SwitchProgram::validate(instrs);
  if (!verr.empty()) {
    *error = verr;
    return SwitchProgram{};
  }
  return SwitchProgram(std::move(instrs));
}

std::string to_string(const SwitchInstr& instr) {
  std::string out;
  switch (instr.op) {
    case CtrlOp::kNop:
      if (instr.moves.empty()) out = "nop";
      break;
    case CtrlOp::kHalt: out = "halt"; break;
    case CtrlOp::kJump: out = "jump " + std::to_string(instr.imm); break;
    case CtrlOp::kLi:
      out = "li r" + std::to_string(instr.reg) + ", " + std::to_string(instr.imm);
      break;
    case CtrlOp::kAddi:
      out = "addi r" + std::to_string(instr.reg) + ", " + std::to_string(instr.imm);
      break;
    case CtrlOp::kBnez:
      out = "bnez r" + std::to_string(instr.reg) + " " + std::to_string(instr.imm);
      break;
    case CtrlOp::kBeqz:
      out = "beqz r" + std::to_string(instr.reg) + " " + std::to_string(instr.imm);
      break;
    case CtrlOp::kBnezd:
      out = "bnezd r" + std::to_string(instr.reg) + " " + std::to_string(instr.imm);
      break;
    case CtrlOp::kJr: out = "jr r" + std::to_string(instr.reg); break;
    case CtrlOp::kRecv: out = "recv r" + std::to_string(instr.reg); break;
  }
  if (!instr.moves.empty()) {
    if (!out.empty()) out += " | ";
    for (std::size_t i = 0; i < instr.moves.size(); ++i) {
      const Move& m = instr.moves[i];
      if (i > 0) out += ", ";
      out += dir_name(m.src);
      out += '>';
      out += dir_name(m.dst);
      if (m.net == 1) out += "@2";
    }
  }
  if (out.empty()) out = "nop";
  return out;
}

std::string disassemble(const SwitchProgram& program) {
  std::string out;
  for (std::size_t i = 0; i < program.size(); ++i) {
    out += std::to_string(i) + ": " + to_string(program.at(i)) + "\n";
  }
  return out;
}

}  // namespace raw::sim
