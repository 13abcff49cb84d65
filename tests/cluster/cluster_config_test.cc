// ClusterConfig::validate() rejects nonsensical knobs with messages naming
// the offending field, and the per-chip seed derivation gives distinct
// streams.
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_config.h"

namespace raw::cluster {
namespace {

ClusterConfig valid_config() {
  ClusterConfig cfg;
  cfg.num_chips = 4;
  return cfg;
}

TEST(ClusterConfigTest, DefaultIsValid) {
  EXPECT_NO_THROW(ClusterConfig{}.validate());
  EXPECT_NO_THROW(valid_config().validate());
}

void expect_throws_mentioning(const ClusterConfig& cfg, const std::string& field) {
  try {
    cfg.validate();
    FAIL() << "expected validate() to throw about " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name " << field << ": " << e.what();
  }
}

TEST(ClusterConfigTest, RejectsBadChipCount) {
  ClusterConfig cfg = valid_config();
  cfg.num_chips = 0;
  expect_throws_mentioning(cfg, "num_chips");
  cfg.num_chips = 1;
  expect_throws_mentioning(cfg, "num_chips");
  cfg.num_chips = 33;
  expect_throws_mentioning(cfg, "num_chips");
}

TEST(ClusterConfigTest, RejectsZeroLinkLatency) {
  ClusterConfig cfg = valid_config();
  cfg.link_latency = 0;
  expect_throws_mentioning(cfg, "link_latency");
}

TEST(ClusterConfigTest, RejectsBadThrottle) {
  ClusterConfig cfg = valid_config();
  cfg.throttle_numer = 0;
  expect_throws_mentioning(cfg, "throttle_numer/denom");
  cfg = valid_config();
  cfg.throttle_denom = 0;
  expect_throws_mentioning(cfg, "throttle_numer/denom");
  cfg = valid_config();
  cfg.throttle_numer = 3;
  cfg.throttle_denom = 2;
  expect_throws_mentioning(cfg, "throttle");
}

TEST(ClusterConfigTest, RejectsNegativeThreads) {
  ClusterConfig cfg = valid_config();
  cfg.threads = -1;
  expect_throws_mentioning(cfg, "threads");
}

TEST(ClusterConfigTest, RejectsBadRemoteFraction) {
  ClusterConfig cfg = valid_config();
  cfg.traffic.remote_fraction = 1.5;
  expect_throws_mentioning(cfg, "remote_fraction");
}

// Seed derivation: chips get pairwise-distinct streams, and the derivation
// depends on the cluster seed.
TEST(ClusterConfigTest, SeedDerivationsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (int c = 0; c < 32; ++c) {
    EXPECT_TRUE(seen.insert(chip_seed(7, c)).second) << "chip " << c;
  }
  EXPECT_NE(chip_seed(7, 0), chip_seed(8, 0));
}

// Robustness knobs: an armed fail-over needs a watchdog that actually
// samples, and fault events must target links/chips the topology actually
// has.
TEST(ClusterConfigTest, RejectsZeroWatchdogIntervalWithFailover) {
  ClusterConfig cfg = valid_config();
  cfg.failover = true;
  cfg.watchdog_interval = 0;
  expect_throws_mentioning(cfg, "watchdog_interval");
  cfg.watchdog_interval = 128;
  EXPECT_NO_THROW(cfg.validate());
  cfg = valid_config();
  cfg.watchdog_interval = 0;  // dormant without failover
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfigTest, RejectsFaultEventsOutsideTheTopology) {
  // A 4-chip leaf-spine has 3 trunks = 6 unidirectional links (0..5).
  ClusterConfig cfg = valid_config();
  sim::FaultEvent e;  // a trunk cut
  e.kind = sim::FaultKind::kLinkStall;
  e.permanent = true;
  e.link = 6;
  cfg.faults = {e};
  expect_throws_mentioning(cfg, "link");
  e.link = -1;
  cfg.faults = {e};
  expect_throws_mentioning(cfg, "link");
  e.link = 5;
  cfg.faults = {e};
  EXPECT_NO_THROW(cfg.validate());

  cfg = valid_config();
  sim::FaultEvent f;  // a chip death
  f.kind = sim::FaultKind::kTileFreeze;
  f.permanent = true;
  f.chip = 4;
  cfg.faults = {f};
  expect_throws_mentioning(cfg, "chip");
  f.chip = 3;
  cfg.faults = {f};
  EXPECT_NO_THROW(cfg.validate());

  cfg = valid_config();
  sim::FaultEvent s;
  s.kind = sim::FaultKind::kLinkStall;
  s.link = 0;
  s.duration = 0;
  cfg.faults = {s};
  expect_throws_mentioning(cfg, "duration");

  // A chip's targets (channel, tile, port) are not a fabric's.
  sim::FaultEvent flip_channel;
  flip_channel.channel = "net0.tile4.W.in";
  sim::FaultEvent freeze_tile;
  freeze_tile.kind = sim::FaultKind::kTileFreeze;
  freeze_tile.tile = 5;
  sim::FaultEvent overrun_port;
  overrun_port.kind = sim::FaultKind::kOverrun;
  overrun_port.port = 0;
  for (const sim::FaultEvent& c : {flip_channel, freeze_tile, overrun_port}) {
    cfg = valid_config();
    cfg.faults = {c};
    expect_throws_mentioning(cfg, "bound to a fabric");
  }
}

}  // namespace
}  // namespace raw::cluster
