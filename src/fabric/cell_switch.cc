#include "fabric/cell_switch.h"

#include "common/assert.h"

namespace raw::fabric {

CellSwitch::CellSwitch(CellSwitchConfig config, std::unique_ptr<Scheduler> scheduler)
    : config_(config),
      scheduler_(std::move(scheduler)),
      held_(static_cast<std::size_t>(config.ports), -1),
      per_output_(static_cast<std::size_t>(config.ports), 0),
      per_input_(static_cast<std::size_t>(config.ports), 0),
      backlog_(static_cast<std::size_t>(config.ports), 0) {
  RAW_ASSERT(config_.ports > 0);
  RAW_ASSERT_MSG(config_.output_queued_ideal || scheduler_ != nullptr,
                 "crossbar switch needs a scheduler");
  const auto n = static_cast<std::size_t>(config_.ports);
  queues_.resize(config_.queueing == QueueingMode::kVoq ? n * n : n);
}

QueueSnapshot CellSwitch::snapshot() const {
  const auto n = static_cast<std::size_t>(config_.ports);
  std::vector<std::uint32_t> voq(n * n, 0);
  std::vector<int> hol(n, -1);
  if (config_.queueing == QueueingMode::kVoq) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t o = 0; o < n; ++o) {
        voq[i * n + o] = static_cast<std::uint32_t>(queues_[i * n + o].size());
      }
      // HOL view for completeness: the oldest head across this input's VOQs
      // is not tracked; FIFO semantics only apply in kFifo mode.
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (!queues_[i].empty()) {
        hol[i] = queues_[i].front().dst;
        voq[i * n + static_cast<std::size_t>(queues_[i].front().dst)] = 1;
      }
    }
  }
  return QueueSnapshot(config_.ports, std::move(voq), std::move(hol));
}

void CellSwitch::transfer(int input, int output) {
  const auto n = static_cast<std::size_t>(config_.ports);
  std::deque<Item>& q =
      config_.queueing == QueueingMode::kVoq
          ? queues_[static_cast<std::size_t>(input) * n + static_cast<std::size_t>(output)]
          : queues_[static_cast<std::size_t>(input)];
  RAW_ASSERT_MSG(!q.empty(), "scheduler matched an empty queue");
  Item& head = q.front();
  RAW_ASSERT_MSG(head.dst == output, "matched output disagrees with queued cell");
  RAW_ASSERT(head.cells_left > 0);
  --head.cells_left;
  --backlog_[static_cast<std::size_t>(input)];
  ++delivered_cells_;
  ++per_output_[static_cast<std::size_t>(output)];
  ++per_input_[static_cast<std::size_t>(input)];
  if (head.cells_left == 0) {
    delay_.add(static_cast<double>(slot_ - head.arrival_slot));
    q.pop_front();
    ++delivered_packets_;
    held_[static_cast<std::size_t>(input)] = -1;
  } else {
    // Variable-length mode: the connection is held until the tail cell.
    held_[static_cast<std::size_t>(input)] = output;
  }
}

void CellSwitch::step(const std::vector<std::optional<ArrivingPacket>>& arrivals) {
  RAW_ASSERT(arrivals.size() == static_cast<std::size_t>(config_.ports));
  const auto n = static_cast<std::size_t>(config_.ports);

  for (std::size_t i = 0; i < n; ++i) {
    if (!arrivals[i].has_value()) continue;
    const ArrivingPacket& a = *arrivals[i];
    RAW_ASSERT(a.dst >= 0 && a.dst < config_.ports);
    RAW_ASSERT(a.cells > 0);
    offered_cells_ += a.cells;
    if (backlog_[i] + a.cells > config_.queue_capacity_cells) {
      dropped_cells_ += a.cells;
      continue;
    }
    backlog_[i] += a.cells;
    Item item;
    item.dst = a.dst;
    item.cells_left = a.cells;
    item.arrival_slot = slot_;
    std::deque<Item>& q = config_.queueing == QueueingMode::kVoq
                              ? queues_[i * n + static_cast<std::size_t>(a.dst)]
                              : queues_[i];
    q.push_back(std::move(item));
  }

  if (config_.output_queued_ideal) {
    // No crossbar constraint: every input forwards one cell of its oldest
    // item (per input) regardless of output conflicts.
    for (std::size_t i = 0; i < n; ++i) {
      if (config_.queueing == QueueingMode::kVoq) {
        // Round-robin over that input's VOQs starting at the slot index so
        // no VOQ starves; output contention is a non-issue here.
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t o = (slot_ + k) % n;
          if (!queues_[i * n + o].empty()) {
            transfer(static_cast<int>(i), static_cast<int>(o));
            break;
          }
        }
      } else if (!queues_[i].empty()) {
        transfer(static_cast<int>(i), queues_[i].front().dst);
      }
    }
  } else {
    const Matching m = scheduler_->match(snapshot(), held_);
    for (std::size_t i = 0; i < n; ++i) {
      if (m[i] >= 0) transfer(static_cast<int>(i), m[i]);
    }
  }
  ++slot_;
}

void CellSwitch::run_uniform(std::uint64_t slots, double load, common::Rng& rng) {
  const auto n = static_cast<std::size_t>(config_.ports);
  std::vector<std::optional<ArrivingPacket>> arrivals(n);
  for (std::uint64_t s = 0; s < slots; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(load)) {
        arrivals[i] = ArrivingPacket{
            static_cast<int>(rng.below(static_cast<std::uint64_t>(config_.ports))), 1};
      } else {
        arrivals[i].reset();
      }
    }
    step(arrivals);
  }
}

double CellSwitch::throughput() const {
  if (slot_ == 0) return 0.0;
  return static_cast<double>(delivered_cells_) /
         (static_cast<double>(config_.ports) * static_cast<double>(slot_));
}

}  // namespace raw::fabric
