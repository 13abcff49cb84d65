// Chip state-digest tests: the digest a checkpoint records is the same under
// either engine at the same cycle, and it separates different states.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/chip.h"

namespace raw::sim {
namespace {

std::shared_ptr<const SwitchProgram> prog(const std::string& text) {
  std::string error;
  SwitchProgram p = assemble(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return std::make_shared<const SwitchProgram>(std::move(p));
}

class SourceDevice : public Device {
 public:
  SourceDevice(Channel* to_chip, std::vector<common::Word> words)
      : to_chip_(to_chip), words_(std::move(words)) {}
  void step(Chip&) override {
    if (next_ < words_.size() && to_chip_->can_write()) {
      to_chip_->write(words_[next_++]);
    }
  }

 private:
  Channel* to_chip_;
  std::vector<common::Word> words_;
  std::size_t next_ = 0;
};

class SinkDevice : public Device {
 public:
  explicit SinkDevice(Channel* from_chip) : from_chip_(from_chip) {}
  void step(Chip&) override {
    if (from_chip_->can_read()) received_.push_back(from_chip_->read());
  }
  [[nodiscard]] const std::vector<common::Word>& received() const {
    return received_;
  }

 private:
  Channel* from_chip_;
  std::vector<common::Word> received_;
};

// Streams 16 words across row 1 (tiles 4..7). The source finishes emitting
// by cycle 16; the words are still crossing the row for a while after.
struct RowStream {
  explicit RowStream(bool force_dense = false) {
    for (int t : {4, 5, 6, 7}) {
      chip.tile(t).switch_proc().load(prog("loop: jump loop | W>E"));
    }
    std::vector<common::Word> payload;
    for (common::Word i = 0; i < 16; ++i) payload.push_back(0xC0DE0000u + i);
    src = std::make_unique<SourceDevice>(chip.io_port(0, 4, Dir::kWest).to_chip,
                                         payload);
    sink = std::make_unique<SinkDevice>(chip.io_port(0, 7, Dir::kEast).from_chip);
    chip.add_device(src.get());
    chip.add_device(sink.get());
    if (force_dense) chip.set_force_dense(true);
  }

  Chip chip;
  std::unique_ptr<SourceDevice> src;
  std::unique_ptr<SinkDevice> sink;
};

TEST(SnapshotTest, SnapshotAndDigestAgreeAcrossEngines) {
  RowStream sparse(false);
  RowStream dense(true);
  // Digests agree at mid-stream cycles, where words sit in the channels (a
  // checkpoint is captured whenever it is due), and after the stream ends.
  for (const common::Cycle chunk : {5u, 13u, 7u, 15u}) {
    sparse.chip.run(chunk);
    dense.chip.run(chunk);
    ASSERT_EQ(sparse.chip.state_digest(), dense.chip.state_digest())
        << "cycle " << sparse.chip.cycle();
  }
  ASSERT_EQ(sparse.sink->received().size(), 16u);  // everything arrived
  EXPECT_EQ(sparse.sink->received(), dense.sink->received());
}

TEST(SnapshotTest, DigestSeparatesDifferentStates) {
  RowStream a;
  RowStream b;
  a.chip.run(10);
  b.chip.run(11);
  EXPECT_NE(a.chip.state_digest(), b.chip.state_digest());
}

}  // namespace
}  // namespace raw::sim
