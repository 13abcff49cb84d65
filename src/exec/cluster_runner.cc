#include "exec/cluster_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/assert.h"
#include "sim/chip.h"

namespace raw::exec {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations before a helper parks on the condition variable. Epochs
/// arrive back to back while the fabric runs (the gap is one link commit),
/// so spinning covers the common case; the condvar only pays off when the
/// fabric goes idle between run()/drain() calls. On a single hardware
/// thread spinning is pure sabotage — every burned cycle is one the worker
/// that holds the work cannot run — so the budget collapses to zero there.
int spin_budget() {
  static const int budget =
      std::thread::hardware_concurrency() > 1 ? 20000 : 0;
  return budget;
}

/// Resolves a configured worker count: values >= 1 are used as-is; 0 (the
/// default everywhere) consults the RAWSIM_THREADS environment variable and
/// falls back to 1 (serial) when it is unset or malformed.
int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("RAWSIM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(v);
  }
  return 1;
}

}  // namespace

ClusterRunner::ClusterRunner(std::vector<sim::Chip*> chips, int threads)
    : chips_(std::move(chips)) {
  RAW_ASSERT_MSG(!chips_.empty(), "cluster runner needs at least one chip");
  wall_ns_.assign(chips_.size(), 0);
  active_.assign(chips_.size(), 1);
  workers_ = std::clamp(resolve_threads(threads), 1,
                        static_cast<int>(chips_.size()));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ClusterRunner::~ClusterRunner() {
  shutdown_.store(true, std::memory_order_release);
  {
    // Empty critical section: a helper that saw the old value and is about
    // to park must observe the notify.
    const std::lock_guard<std::mutex> lock(mutex_);
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ClusterRunner::work() {
  for (;;) {
    const std::size_t i = next_chip_.fetch_add(1, std::memory_order_relaxed);
    if (i >= chips_.size()) return;
    if (active_[i] == 0) continue;  // frozen chip: its clock stands still
    const auto t0 = std::chrono::steady_clock::now();
    chips_[i]->run(epoch_cycles_);
    const auto t1 = std::chrono::steady_clock::now();
    wall_ns_[i] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
}

void ClusterRunner::worker_main() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    // Adaptive wait for the next epoch: spin first, then park.
    int spins = 0;
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) return;
      const std::uint64_t gen = job_gen_.load(std::memory_order_acquire);
      if (gen != seen_gen) {
        seen_gen = gen;
        break;
      }
      if (++spins < spin_budget()) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               job_gen_.load(std::memory_order_acquire) != seen_gen;
      });
    }
    work();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ClusterRunner::set_chip_active(std::size_t chip, bool active) {
  RAW_ASSERT_MSG(chip < active_.size(), "set_chip_active out of range");
  active_[chip] = active ? 1 : 0;
}

void ClusterRunner::run_epoch(common::Cycle cycles) {
  if (cycles == 0) return;
  epoch_cycles_ = cycles;
  next_chip_.store(0, std::memory_order_relaxed);
  if (workers_ == 1) {
    work();
    return;
  }
  pending_.store(workers_ - 1, std::memory_order_relaxed);
  job_gen_.fetch_add(1, std::memory_order_release);
  {
    // Pair with the park path so a helper between its last generation check
    // and cv_.wait cannot miss this epoch.
    const std::lock_guard<std::mutex> lock(mutex_);
  }
  cv_.notify_all();
  work();  // the calling thread is worker 0
  // Helpers are mid-epoch at worst: spin briefly, then yield so they can be
  // scheduled (essential when cores are oversubscribed).
  int spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (++spins < spin_budget()) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace raw::exec
