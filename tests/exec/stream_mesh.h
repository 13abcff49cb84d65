// Synthetic mesh-streaming workload for the dense-vs-sparse differential
// test.
//
// Every tile runs the one-instruction switch loop
//
//   loop: jump loop | W>E, N>S@2
//
// so static network 1 carries a west-to-east stream across every row and
// static network 2 a north-to-south stream down every column, all at one
// word per cycle once the pipelines fill. Edge feeders inject an LCG word
// stream at each west/north port; edge sinks drain the east/south ports,
// counting words and folding them into an FNV-1a hash. Each tile processor
// also runs a synthetic compute loop (proc_work cycles of modelled
// computation per iteration, then one LCG update of a private scratch
// slot).
//
// Everything about the workload is deterministic, and digest() folds the
// sink hashes, word counts, scratch slots, and final cycle into one value —
// two runs agree on digest() iff they simulated identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/chip.h"
#include "sim/device.h"

namespace raw::exec {

class StreamMesh {
 public:
  /// `proc_work` > 0 modelled compute cycles per tile-processor loop
  /// iteration. The workload never uses the chip's dynamic network.
  StreamMesh(sim::GridShape shape, common::Cycle proc_work);

  [[nodiscard]] sim::Chip& chip() { return *chip_; }

  /// Fingerprint of the entire observable run: per-sink hashes and counts,
  /// per-tile scratch state, and the chip cycle.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Each edge device touches exactly one I/O channel of one edge tile.
  struct Feeder final : sim::Device {
    sim::Channel* ch = nullptr;
    std::uint64_t state = 0;
    void step(sim::Chip&) override;
  };
  struct Sink final : sim::Device {
    sim::Channel* ch = nullptr;
    std::uint64_t count = 0;
    std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
    void step(sim::Chip&) override;
  };

  std::unique_ptr<sim::Chip> chip_;
  std::vector<std::unique_ptr<Feeder>> feeders_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::uint64_t> scratch_;  // one slot per tile, tile-private
};

}  // namespace raw::exec
