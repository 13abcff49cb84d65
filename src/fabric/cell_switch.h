// Slotted input-queued cell-switch simulator.
//
// Reproduces the chapter-2 background results that motivate the thesis
// design: FIFO inputs saturate near 58.6% from head-of-line blocking while
// VOQ+iSLIP reaches ~100% (§2.2.2), and holding crossbar connections for
// whole variable-length packets costs ~40% of fabric utilization versus
// fixed-size cells. Time advances in cell slots; one cell crosses each
// matched input-output pair per slot.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "fabric/scheduler.h"

namespace raw::fabric {

enum class QueueingMode : std::uint8_t {
  kVoq,   // one queue per (input, output)
  kFifo,  // one queue per input (exhibits HOL blocking)
};

struct CellSwitchConfig {
  int ports = 4;
  QueueingMode queueing = QueueingMode::kVoq;
  /// Total queued cells per input before arrivals are dropped.
  std::size_t queue_capacity_cells = 100000;
  /// Ideal output-queued switch: inputs forward without crossbar
  /// contention (upper bound; no scheduler needed).
  bool output_queued_ideal = false;
};

/// One arriving unit of work: a packet of `cells` fixed-size cells bound for
/// `dst`. With cells == 1 this is plain cell traffic; with cells > 1 the
/// crossbar connection is held for the whole packet (variable-length mode).
struct ArrivingPacket {
  int dst = 0;
  std::uint32_t cells = 1;
};

class CellSwitch {
 public:
  CellSwitch(CellSwitchConfig config, std::unique_ptr<Scheduler> scheduler);

  [[nodiscard]] const CellSwitchConfig& config() const { return config_; }

  /// Advances one slot: enqueue `arrivals[i]` (if any) at input i, schedule,
  /// and transfer matched cells.
  void step(const std::vector<std::optional<ArrivingPacket>>& arrivals);

  /// Convenience: run `slots` slots of Bernoulli(load) uniform cell traffic.
  void run_uniform(std::uint64_t slots, double load, common::Rng& rng);

  [[nodiscard]] std::uint64_t slots() const { return slot_; }
  [[nodiscard]] std::uint64_t delivered_cells() const { return delivered_cells_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::uint64_t offered_cells() const { return offered_cells_; }
  [[nodiscard]] std::uint64_t dropped_cells() const { return dropped_cells_; }
  [[nodiscard]] std::uint64_t delivered_at_output(int out) const {
    return per_output_[static_cast<std::size_t>(out)];
  }
  [[nodiscard]] std::uint64_t delivered_from_input(int in) const {
    return per_input_[static_cast<std::size_t>(in)];
  }

  /// Fraction of output-slot capacity used: delivered / (ports * slots).
  [[nodiscard]] double throughput() const;

  /// Packet waiting time statistics (slots from arrival to tail departure).
  [[nodiscard]] const common::RunningStat& delay() const { return delay_; }

  /// Total cells currently queued at input i.
  [[nodiscard]] std::size_t backlog(int input) const {
    return backlog_[static_cast<std::size_t>(input)];
  }

 private:
  struct Item {
    int dst = 0;
    std::uint32_t cells_left = 1;
    std::uint64_t arrival_slot = 0;
  };

  [[nodiscard]] QueueSnapshot snapshot() const;
  void transfer(int input, int output);

  CellSwitchConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
  // queues_[input * ports + output] in VOQ mode; queues_[input] in FIFO mode.
  std::vector<std::deque<Item>> queues_;
  Matching held_;
  std::uint64_t slot_ = 0;
  std::uint64_t offered_cells_ = 0;
  std::uint64_t delivered_cells_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t dropped_cells_ = 0;
  std::vector<std::uint64_t> per_output_;
  std::vector<std::uint64_t> per_input_;
  std::vector<std::size_t> backlog_;  // queued cells per input
  common::RunningStat delay_;
};

}  // namespace raw::fabric
