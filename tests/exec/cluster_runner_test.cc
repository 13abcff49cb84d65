// Worker-count resolution of the thread-per-chip ClusterRunner: an explicit
// count wins over RAWSIM_THREADS, 0 reads the variable, and an unset or
// malformed variable means serial. The count is clamped to the chip count.
#include "exec/cluster_runner.h"

#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/chip.h"

namespace raw::exec {
namespace {

/// Sets RAWSIM_THREADS (or unsets it, with nullptr) for one test body and
/// restores the previous value afterwards.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("RAWSIM_THREADS")) {
      had_old_ = true;
      old_ = old;
    }
    set(value);
  }
  ~ScopedThreadsEnv() { set(had_old_ ? old_.c_str() : nullptr); }

 private:
  static void set(const char* value) {
    if (value != nullptr) {
      setenv("RAWSIM_THREADS", value, 1);
    } else {
      unsetenv("RAWSIM_THREADS");
    }
  }
  bool had_old_ = false;
  std::string old_;
};

int workers_for(int chips, int threads) {
  sim::ChipConfig cfg;
  cfg.shape = sim::GridShape{2, 2};
  std::vector<std::unique_ptr<sim::Chip>> owned;
  std::vector<sim::Chip*> chips_ptrs;
  for (int c = 0; c < chips; ++c) {
    owned.push_back(std::make_unique<sim::Chip>(cfg));
    chips_ptrs.push_back(owned.back().get());
  }
  const ClusterRunner runner(chips_ptrs, threads);
  return runner.workers();
}

// resolve_threads() is reached through the runner. Its three cases keep the
// ExecPartition suite name under which they have always been reported.
TEST(ExecPartition, ResolveThreadsExplicitWinsOverEnv) {
  const ScopedThreadsEnv env("3");
  EXPECT_EQ(workers_for(4, 2), 2);
}

TEST(ExecPartition, ResolveThreadsReadsEnvWhenZero) {
  const ScopedThreadsEnv env("3");
  EXPECT_EQ(workers_for(4, 0), 3);
}

TEST(ExecPartition, ResolveThreadsDefaultsToSerial) {
  {
    const ScopedThreadsEnv env(nullptr);
    EXPECT_EQ(workers_for(4, 0), 1);
  }
  const ScopedThreadsEnv env("junk");
  EXPECT_EQ(workers_for(4, 0), 1);
}

TEST(ExecClusterRunner, WorkersClampedToChipCount) {
  EXPECT_EQ(workers_for(2, 8), 2);
}

}  // namespace
}  // namespace raw::exec
