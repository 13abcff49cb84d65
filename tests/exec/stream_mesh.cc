#include "stream_mesh.h"

#include <string>

#include "common/assert.h"
#include "sim/switch_isa.h"
#include "sim/tile_task.h"

namespace raw::exec {
namespace {

std::uint64_t lcg(std::uint64_t s) {
  return s * 6364136223846793005ULL + 1442695040888963407ULL;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
  }
  return h;
}

sim::TileTask compute_loop(common::Cycle work, std::uint64_t* slot) {
  using namespace sim::task;
  for (;;) {
    co_await delay(work);
    *slot = lcg(*slot);
  }
}

}  // namespace

void StreamMesh::Feeder::step(sim::Chip&) {
  if (ch->can_write()) {
    state = lcg(state);
    ch->write(static_cast<common::Word>(state >> 32));
  }
}

void StreamMesh::Sink::step(sim::Chip&) {
  if (ch->can_read()) {
    const common::Word w = ch->read();
    hash = fnv(hash, w);
    ++count;
  }
}

StreamMesh::StreamMesh(sim::GridShape shape, common::Cycle proc_work) {
  sim::ChipConfig chip_cfg;
  chip_cfg.shape = shape;
  chip_ = std::make_unique<sim::Chip>(chip_cfg);

  // Every switch runs the same single-instruction dual-stream loop.
  std::string err;
  const sim::SwitchProgram program =
      sim::assemble("loop: jump loop | W>E, N>S@2", &err);
  RAW_ASSERT_MSG(err.empty(), "stream program failed to assemble");
  auto shared = std::make_shared<const sim::SwitchProgram>(program);
  for (int t = 0; t < chip_->num_tiles(); ++t) {
    chip_->tile(t).switch_proc().load(shared);
  }

  scratch_.resize(static_cast<std::size_t>(chip_->num_tiles()));
  for (int t = 0; t < chip_->num_tiles(); ++t) {
    std::uint64_t* slot = &scratch_[static_cast<std::size_t>(t)];
    *slot = std::uint64_t{0x9E3779B97F4A7C15} ^ static_cast<std::uint64_t>(t);
    chip_->tile(t).set_program(compute_loop(proc_work, slot));
  }

  auto add_feeder = [&](sim::Channel* ch, std::uint64_t seed) {
    auto f = std::make_unique<Feeder>();
    f->ch = ch;
    f->state = seed;
    chip_->add_device(f.get());
    feeders_.push_back(std::move(f));
  };
  auto add_sink = [&](sim::Channel* ch) {
    auto s = std::make_unique<Sink>();
    s->ch = ch;
    chip_->add_device(s.get());
    sinks_.push_back(std::move(s));
  };

  // West feeders / east sinks on network 1 (one stream per row), north
  // feeders / south sinks on network 2 (one per column).
  for (int r = 0; r < shape.rows; ++r) {
    const int west = shape.index({r, 0});
    const int east = shape.index({r, shape.cols - 1});
    add_feeder(chip_->io_port(0, west, sim::Dir::kWest).to_chip,
               std::uint64_t{0x57E57000} + static_cast<std::uint64_t>(r));
    add_sink(chip_->io_port(0, east, sim::Dir::kEast).from_chip);
  }
  for (int c = 0; c < shape.cols; ++c) {
    const int north = shape.index({0, c});
    const int south = shape.index({shape.rows - 1, c});
    add_feeder(chip_->io_port(1, north, sim::Dir::kNorth).to_chip,
               std::uint64_t{0x0A07B000} + static_cast<std::uint64_t>(c));
    add_sink(chip_->io_port(1, south, sim::Dir::kSouth).from_chip);
  }
}

std::uint64_t StreamMesh::digest() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& s : sinks_) {
    h = fnv(h, s->hash);
    h = fnv(h, s->count);
  }
  for (const std::uint64_t v : scratch_) h = fnv(h, v);
  h = fnv(h, chip_->cycle());
  h = fnv(h, chip_->static_words_transferred());
  return h;
}

}  // namespace raw::exec
