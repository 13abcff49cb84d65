// ClusterConfig::validate() rejects nonsensical knobs with messages naming
// the offending field, and the per-chip/per-link seed derivations give
// distinct streams.
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
  cfg.topology = TopologyKind::kLeafSpine;
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

TEST(ClusterConfigTest, RejectsMalformedFatTree) {
  ClusterConfig cfg = valid_config();
  cfg.topology = TopologyKind::kFatTree;
  cfg.fat_tree_k = 3;
  expect_throws_mentioning(cfg, "fat_tree_k");
  cfg.fat_tree_k = 4;
  cfg.num_chips = 16;  // k=4 needs exactly 20
  expect_throws_mentioning(cfg, "num_chips");
  cfg.num_chips = 20;
  EXPECT_NO_THROW(cfg.validate());
  cfg.fat_tree_k = 2;
  cfg.num_chips = 5;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfigTest, RejectsEpochLongerThanLatency) {
  ClusterConfig cfg = valid_config();
  cfg.link_latency = 8;
  cfg.epoch_cycles = 9;
  expect_throws_mentioning(cfg, "epoch_cycles");
  cfg.epoch_cycles = 8;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfigTest, RejectsBadCapacityQueueAndThreads) {
  ClusterConfig cfg = valid_config();
  cfg.link_capacity_words = 0;
  expect_throws_mentioning(cfg, "link_capacity_words");
  cfg = valid_config();
  cfg.line_card_queue_words = 0;
  expect_throws_mentioning(cfg, "line_card_queue_words");
  cfg = valid_config();
  cfg.threads = -1;
  expect_throws_mentioning(cfg, "threads");
  cfg = valid_config();
  cfg.link_fifo_depth = 1;
  expect_throws_mentioning(cfg, "link_fifo_depth");
}

TEST(ClusterConfigTest, RejectsBadRemoteFraction) {
  ClusterConfig cfg = valid_config();
  cfg.traffic.remote_fraction = 1.5;
  expect_throws_mentioning(cfg, "remote_fraction");
}

// Seed derivation: chips and links get pairwise-distinct streams, chip and
// link families never collide on small indices, and the derivation depends
// on the cluster seed.
TEST(ClusterConfigTest, SeedDerivationsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (int c = 0; c < 32; ++c) {
    EXPECT_TRUE(seen.insert(chip_seed(7, c)).second) << "chip " << c;
  }
  for (int l = 0; l < 128; ++l) {
    EXPECT_TRUE(seen.insert(link_seed(7, l)).second) << "link " << l;
  }
  EXPECT_NE(chip_seed(7, 0), chip_seed(8, 0));
  EXPECT_NE(link_seed(7, 0), link_seed(8, 0));
}

// Robustness knobs: a reliable link needs a real retransmit budget and a
// nonzero NACK round trip, an armed fail-over needs a watchdog that
// actually samples, and fault events must target links/chips the topology
// actually has.
TEST(ClusterConfigTest, RejectsZeroRetransmitBudgetOnReliableLinks) {
  ClusterConfig cfg = valid_config();
  cfg.reliable_links = true;
  cfg.link_retransmit_limit = 0;
  expect_throws_mentioning(cfg, "link_retransmit_limit");
  cfg = valid_config();
  cfg.reliable_links = true;
  cfg.link_retransmit_rtt = 0;
  expect_throws_mentioning(cfg, "link_retransmit_rtt");
  // Off the reliable layer the knobs are dormant and anything goes.
  cfg = valid_config();
  cfg.link_retransmit_limit = 0;
  cfg.link_retransmit_rtt = 0;
  EXPECT_NO_THROW(cfg.validate());
}

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
