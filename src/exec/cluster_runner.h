// Epoch-granularity thread-per-chip runner for multi-chip cluster fabrics.
//
// A cluster advances in synchronisation epochs: every chip runs the same
// number of cycles independently, then the caller commits the inter-chip
// links at a single-threaded barrier (see cluster::InterChipLink). Within
// an epoch chips share no mutable state except barrier-committed link
// queues and the mutex-guarded, commutative packet ledger, so the chips of
// one epoch may run in any order — including concurrently — and the result
// is bit-identical to the serial schedule at any worker count.
//
// The runner keeps a persistent pool of N-1 helper threads; the calling
// thread works too. Epochs are short (at most the inter-chip link latency),
// so dispatch latency is the whole ballgame: helpers spin briefly on the
// epoch generation counter before parking on a condition variable, and the
// caller spin-waits for completion (helpers are actively working, so the
// wait is bounded by one chip-epoch). Chips are claimed dynamically off an
// atomic counter (chips finish epochs at different wall speeds; static
// striping would idle the fast workers), and per-chip wall time is
// accumulated so the fabric can report the slowest-chip epoch lag.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace raw::sim {
class Chip;
}

namespace raw::exec {

class ClusterRunner {
 public:
  /// Wraps `chips` (not owned; must outlive the runner) with `threads`
  /// workers, clamped to the chip count. 0 honours the RAWSIM_THREADS
  /// environment variable and defaults to serial.
  ClusterRunner(std::vector<sim::Chip*> chips, int threads);
  ~ClusterRunner();

  ClusterRunner(const ClusterRunner&) = delete;
  ClusterRunner& operator=(const ClusterRunner&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Advances every active chip by `cycles` cycles (one epoch). Returns
  /// when all chips are done; the caller then commits the links serially.
  void run_epoch(common::Cycle cycles);

  /// Removes a chip from (or restores it to) the epoch schedule — the
  /// cluster fault plan's chip-freeze hook. Barrier phase only: the mask is
  /// read concurrently by workers during an epoch, so it may only change
  /// between run_epoch calls. A frozen chip's cycle counter stops, which is
  /// exactly what the cluster watchdog detects as chip death.
  void set_chip_active(std::size_t chip, bool active);
  [[nodiscard]] bool chip_active(std::size_t chip) const {
    return active_[chip] != 0;
  }

  /// Accumulated per-chip wall time (ns) spent inside run_epoch, for the
  /// slowest-chip lag panel. Read between epochs only.
  [[nodiscard]] const std::vector<std::uint64_t>& chip_wall_ns() const {
    return wall_ns_;
  }

 private:
  void worker_main();
  /// Claims and runs chips until the epoch's counter is exhausted.
  void work();

  std::vector<sim::Chip*> chips_;
  int workers_ = 1;
  std::vector<std::thread> threads_;
  std::vector<std::uint64_t> wall_ns_;
  // Epoch eligibility per chip (char, not bool: workers read it while the
  // barrier phase is the only writer). 0 = frozen.
  std::vector<char> active_;

  common::Cycle epoch_cycles_ = 0;
  std::atomic<std::size_t> next_chip_{0};
  std::atomic<std::uint64_t> job_gen_{0};  // bumped once per epoch
  std::atomic<int> pending_{0};            // helpers still working
  std::atomic<bool> shutdown_{false};
  // Parking lot for helpers whose spin window expired (idle fabric).
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace raw::exec
