// Synthetic mesh-streaming workload for the cycle engine's benchmarks and
// dense-vs-sparse differential tests.
//
// Every tile runs the one-instruction switch loop
//
//   loop: jump loop | W>E, N>S@2
//
// so static network 1 carries a west-to-east stream across every row and
// static network 2 a north-to-south stream down every column, all at one
// word per cycle once the pipelines fill. Edge feeders inject an LCG word
// stream at each west/north port; edge sinks drain the east/south ports,
// counting words and folding them into an FNV-1a hash. Optionally each tile
// processor also runs a synthetic compute loop (proc_work cycles of modelled
// computation per iteration, then one LCG update of a private scratch slot)
// so benchmarks can dial the compute-to-communication ratio.
//
// Everything about the workload is deterministic, and digest() folds the
// sink hashes, word counts, scratch slots, and final cycle into one value —
// two runs of the same configuration agree on digest() iff they simulated
// identically, which is what the dense-vs-sparse differential tests assert
// on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/chip.h"
#include "sim/device.h"

namespace raw::exec {

struct StreamMeshConfig {
  sim::GridShape shape{4, 4};
  /// Modelled compute cycles per tile-processor loop iteration; 0 leaves
  /// the tile processors unprogrammed (pure communication workload).
  common::Cycle proc_work = 0;
  /// Instantiate the dynamic network too (off by default: the workload
  /// never uses it, and benches want the lean configuration).
  bool with_dynamic_network = false;
  std::size_t link_fifo_depth = sim::Channel::kDefaultCapacity;
};

class StreamMesh {
 public:
  explicit StreamMesh(StreamMeshConfig config);

  [[nodiscard]] sim::Chip& chip() { return *chip_; }
  [[nodiscard]] const sim::Chip& chip() const { return *chip_; }
  [[nodiscard]] const StreamMeshConfig& config() const { return config_; }

  /// Words drained by all sinks so far.
  [[nodiscard]] std::uint64_t words_delivered() const;
  /// Order-independent-of-nothing fingerprint of the entire observable run:
  /// per-sink hashes and counts, per-tile scratch state, and the chip cycle.
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

  StreamMeshConfig config_;
  std::unique_ptr<sim::Chip> chip_;
  std::vector<std::unique_ptr<Feeder>> feeders_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::uint64_t> scratch_;  // one slot per tile, tile-private
};

}  // namespace raw::exec
