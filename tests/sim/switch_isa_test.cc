#include "sim/switch_isa.h"

#include <gtest/gtest.h>

namespace raw::sim {
namespace {

TEST(SwitchIsaTest, AssembleSimpleRoute) {
  std::string error;
  const SwitchProgram p = assemble("route W>E", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.at(0).op, CtrlOp::kNop);
  ASSERT_EQ(p.at(0).moves.size(), 1u);
  EXPECT_EQ(p.at(0).moves[0], (Move{0, Dir::kWest, Dir::kEast}));
}

TEST(SwitchIsaTest, AssembleBareRouteWithoutKeyword) {
  std::string error;
  const SwitchProgram p = assemble("W>P, P>E@2", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(p.at(0).moves.size(), 2u);
  EXPECT_EQ(p.at(0).moves[1], (Move{1, Dir::kProc, Dir::kEast}));
}

TEST(SwitchIsaTest, AssembleControlAndRoutes) {
  std::string error;
  const SwitchProgram p = assemble(R"(
      li r0, 3
    loop:
      bnez r0, loop | W>E, P>N
      halt
  )", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.at(0).op, CtrlOp::kLi);
  EXPECT_EQ(p.at(0).imm, 3);
  EXPECT_EQ(p.at(1).op, CtrlOp::kBnez);
  EXPECT_EQ(p.at(1).imm, 1);  // label 'loop' resolves to instruction 1
  EXPECT_EQ(p.at(1).moves.size(), 2u);
  EXPECT_EQ(p.at(2).op, CtrlOp::kHalt);
}

TEST(SwitchIsaTest, CommentsAndBlankLinesIgnored) {
  std::string error;
  const SwitchProgram p = assemble(R"(
      # a comment
      nop    # trailing comment

      halt
  )", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(p.size(), 2u);
}

TEST(SwitchIsaTest, ForwardLabelResolves) {
  std::string error;
  const SwitchProgram p = assemble(R"(
      jump end
      nop
    end:
      halt
  )", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(p.at(0).imm, 2);
}

TEST(SwitchIsaTest, RecvOp) {
  std::string error;
  const SwitchProgram p = assemble("recv r2", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(p.at(0).op, CtrlOp::kRecv);
  EXPECT_EQ(p.at(0).reg, 2);
}

TEST(SwitchIsaTest, RejectsBadDirection) {
  std::string error;
  (void)assemble("route X>E", &error);
  EXPECT_FALSE(error.empty());
}

TEST(SwitchIsaTest, RejectsSelfRoute) {
  std::string error;
  (void)assemble("route E>E", &error);
  EXPECT_NE(error.find("itself"), std::string::npos);
}

TEST(SwitchIsaTest, RejectsUndefinedLabel) {
  std::string error;
  (void)assemble("jump nowhere", &error);
  EXPECT_NE(error.find("undefined label"), std::string::npos);
}

TEST(SwitchIsaTest, RejectsDuplicateDestination) {
  std::string error;
  (void)assemble("route W>E, N>E", &error);
  EXPECT_NE(error.find("twice"), std::string::npos);
}

TEST(SwitchIsaTest, AllowsSameDestinationOnDifferentNets) {
  std::string error;
  (void)assemble("route W>E, N>E@2", &error);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(SwitchIsaTest, RejectsRecvPlusProcRoute) {
  std::string error;
  (void)assemble("recv r0 | P>E", &error);
  EXPECT_NE(error.find("csto"), std::string::npos);
}

TEST(SwitchIsaTest, AllowsRecvPlusProcRouteOnNet2) {
  // recv consumes $csto of network 1 only; network 2's $csto is distinct.
  std::string error;
  (void)assemble("recv r0 | P>E@2", &error);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(SwitchIsaTest, RejectsBadRegister) {
  std::string error;
  (void)assemble("li r9, 1", &error);
  EXPECT_FALSE(error.empty());
}

TEST(SwitchIsaTest, MulticastSourceAllowed) {
  std::string error;
  const SwitchProgram p = assemble("route W>E, W>P, W>S", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(p.at(0).moves.size(), 3u);
}

TEST(SwitchIsaTest, DisassembleRoundTrips) {
  std::string error;
  const std::string text = R"(
      li r1, 64
    top:
      addi r1, -1 | W>P, P>E@2
      bnez r1, top
      halt
  )";
  const SwitchProgram p1 = assemble(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  // Reassemble the disassembly (absolute branch targets) and compare.
  std::string disasm = disassemble(p1);
  // Strip "N: " prefixes for reassembly.
  std::string stripped;
  for (std::size_t pos = 0; pos < disasm.size();) {
    const std::size_t colon = disasm.find(": ", pos);
    const std::size_t eol = disasm.find('\n', pos);
    stripped += disasm.substr(colon + 2, eol - colon - 2);
    stripped += '\n';
    pos = eol + 1;
  }
  const SwitchProgram p2 = assemble(stripped, &error);
  ASSERT_TRUE(error.empty()) << error << "\n" << stripped;
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.at(i), p2.at(i)) << "instruction " << i;
  }
}

TEST(SwitchIsaTest, ValidateRejectsOversizedProgram) {
  std::vector<SwitchInstr> instrs(kSwitchImemWords + 1);
  EXPECT_NE(SwitchProgram::validate(instrs).find("8K"), std::string::npos);
}

TEST(SwitchIsaTest, ValidateRejectsOutOfRangeDirection) {
  // Decoding indexes port tables by direction, so a move built through the
  // API with a Dir past kProc must not reach it.
  for (const Move m : {Move{0, static_cast<Dir>(5), Dir::kEast},
                       Move{1, Dir::kWest, static_cast<Dir>(9)}}) {
    SwitchInstr ins;
    ins.moves.push_back(m);
    EXPECT_NE(SwitchProgram::validate({ins}).find("bad direction"), std::string::npos);
  }
}

TEST(SwitchIsaTest, BuilderLabelsAndFixups) {
  SwitchProgramBuilder b;
  b.define_label("start");
  b.emit_route({Move{0, Dir::kWest, Dir::kEast}});
  b.emit_branch(CtrlOp::kBnez, 0, "start");
  b.emit_jump("done");
  b.define_label("done");
  b.emit_halt();
  const SwitchProgram p = b.build();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.at(1).imm, 0);
  EXPECT_EQ(p.at(2).imm, 3);
}

}  // namespace
}  // namespace raw::sim
