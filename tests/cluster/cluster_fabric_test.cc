// ClusterFabric end-to-end: packets cross chips and validate (TTL per hop,
// payload, addressing), conservation closes at drain, and the cluster
// digest is bit-identical serial vs thread-per-chip at any worker count and
// dense vs sparse stepping.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "cluster/fabric.h"

namespace raw::cluster {
namespace {

ClusterConfig small_cluster(int chips, int threads) {
  ClusterConfig cfg;
  cfg.num_chips = chips;
  cfg.threads = threads;
  cfg.link_latency = 8;
  cfg.traffic.load = 0.25;
  cfg.traffic.fixed_bytes = 64;
  cfg.traffic.remote_fraction = 0.5;
  return cfg;
}

TEST(ClusterFabricTest, DeliversAcrossChipsAndConserves) {
  ClusterFabric fabric(small_cluster(2, 1), 7);
  fabric.run(6000);
  EXPECT_TRUE(fabric.drain(200000));
  EXPECT_GT(fabric.delivered_packets(), 0u);
  EXPECT_EQ(fabric.errors(), 0u);
  EXPECT_EQ(fabric.lost_packets(), 0u);
  EXPECT_EQ(fabric.ledger().in_flight.size(), 0u);
  EXPECT_EQ(fabric.offered_packets(),
            fabric.dropped_at_card() + fabric.ledger().erased_total());
  // Cross-chip traffic actually used the trunks.
  std::uint64_t trunk_words = 0;
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    trunk_words += fabric.link(l).delivered_total();
  }
  EXPECT_GT(trunk_words, 0u);
  // Multi-hop latencies include at least the link latency.
  EXPECT_GE(fabric.latency_histogram().count(), fabric.delivered_packets());
}

TEST(ClusterFabricTest, PurelyLocalTrafficStaysOffTheTrunks) {
  ClusterConfig cfg = small_cluster(2, 1);
  cfg.traffic.remote_fraction = 0.0;
  ClusterFabric fabric(cfg, 7);
  fabric.run(4000);
  EXPECT_TRUE(fabric.drain(200000));
  EXPECT_GT(fabric.delivered_packets(), 0u);
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    EXPECT_EQ(fabric.link(l).sent_total(), 0u) << "link " << l;
  }
}

TEST(ClusterFabricTest, LinkConservationUnderThrottling) {
  ClusterConfig cfg = small_cluster(4, 1);
  cfg.throttle_numer = 1;
  cfg.throttle_denom = 3;  // trunks at a third of line rate
  ClusterFabric fabric(cfg, 21);
  for (int chunk = 0; chunk < 8; ++chunk) {
    fabric.run(500);
    // Between epochs every link must satisfy the word identity.
    for (std::size_t l = 0; l < fabric.num_links(); ++l) {
      EXPECT_EQ(fabric.link(l).sent_total(),
                fabric.link(l).delivered_total() +
                    fabric.link(l).in_flight_words())
          << "link " << l << " after chunk " << chunk;
    }
  }
  EXPECT_TRUE(fabric.drain(400000));
  EXPECT_EQ(fabric.errors(), 0u);
  EXPECT_EQ(fabric.lost_packets(), 0u);
}

std::uint64_t digest_at(const ClusterConfig& base, int threads,
                        std::uint64_t seed, bool dense = false) {
  ClusterConfig cfg = base;
  cfg.threads = threads;
  ClusterFabric fabric(cfg, seed);
  if (dense) fabric.set_force_dense(true);
  fabric.run(3000);
  EXPECT_TRUE(fabric.drain(200000));
  EXPECT_GT(fabric.delivered_packets(), 0u);
  return fabric.cluster_digest();
}

TEST(ClusterFabricTest, DigestIdenticalAcrossWorkerCounts) {
  const ClusterConfig cfg = small_cluster(4, 1);
  const std::uint64_t serial = digest_at(cfg, 1, 13);
  for (const int t : {2, 4, 8}) {
    EXPECT_EQ(digest_at(cfg, t, 13), serial) << "threads=" << t;
  }
}

TEST(ClusterFabricTest, DigestIdenticalDenseVsSparse) {
  const ClusterConfig cfg = small_cluster(4, 1);
  EXPECT_EQ(digest_at(cfg, 1, 13), digest_at(cfg, 1, 13, /*dense=*/true));
  // And dense under threads matches too.
  EXPECT_EQ(digest_at(cfg, 4, 13), digest_at(cfg, 4, 13, /*dense=*/true));
}

TEST(ClusterFabricTest, DigestDependsOnSeedAndTopology) {
  const ClusterConfig cfg = small_cluster(4, 1);
  EXPECT_NE(digest_at(cfg, 1, 13), digest_at(cfg, 1, 14));
}

TEST(ClusterFabricTest, WorkerCountClampsToChips) {
  ClusterFabric fabric(small_cluster(2, 8), 1);
  EXPECT_EQ(fabric.workers(), 2);
}

TEST(ClusterFabricTest, DrainOutcomeNamesHowTheDrainEnded) {
  using router::DrainOutcome;
  // A clean leaf-spine fabric drains completely.
  {
    ClusterFabric fabric(small_cluster(4, 1), 7);
    fabric.run(4000);
    EXPECT_TRUE(fabric.drain(200000));
    EXPECT_EQ(fabric.drain_outcome(), DrainOutcome::kDrained);
  }
  // Corrupt words on reliable trunks, then a trunk cut with fail-over: the
  // degraded fabric's drain is a clean exit.
  {
    ClusterConfig cfg = small_cluster(4, 1);
    cfg.reliable_links = true;
    cfg.failover = true;
    cfg.watchdog_interval = 256;
    cfg.faults.push_back({.kind = sim::FaultKind::kBitFlip, .at = 1000,
                          .link = 4, .bit = 3});
    for (int dir = 0; dir < 2; ++dir) {
      cfg.faults.push_back({.kind = sim::FaultKind::kLinkStall, .at = 3000,
                            .permanent = true, .link = dir});
    }
    ClusterFabric fabric(cfg, 5);
    fabric.run(9000);
    ASSERT_TRUE(fabric.degraded());
    EXPECT_TRUE(fabric.drain(400000));
    EXPECT_EQ(fabric.drain_outcome(), DrainOutcome::kDrainedDegraded);
  }
  // A drain given too few cycles to empty the fabric runs out of time.
  {
    ClusterConfig cfg = small_cluster(4, 1);
    cfg.traffic.load = 1.0;
    ClusterFabric fabric(cfg, 7);
    fabric.run(4000);
    EXPECT_FALSE(fabric.drain(fabric.epoch_cycles()));
    EXPECT_EQ(fabric.drain_outcome(), DrainOutcome::kTimeout);
    EXPECT_FALSE(fabric.drained());
  }
}

TEST(ClusterFabricTest, MetricsExportIsWellFormed) {
  ClusterFabric fabric(small_cluster(4, 1), 5);
  fabric.run(2000);
  (void)fabric.drain(200000);
  common::MetricRegistry registry;
  fabric.export_metrics(registry);
  EXPECT_GT(registry.counter("cluster/delivered_packets").value(), 0u);
  EXPECT_EQ(registry.counter("cluster/chips").value(), 4u);
  // Conservation identity as exported.
  const std::uint64_t offered =
      registry.counter("cluster/conservation/offered").value();
  const std::uint64_t accounted =
      registry.counter("cluster/conservation/dropped_at_card").value() +
      registry.counter("cluster/conservation/delivered").value() +
      registry.counter("cluster/conservation/invalid").value() +
      registry.counter("cluster/conservation/ingress_drops").value() +
      registry.counter("cluster/conservation/lost").value() +
      registry.counter("cluster/conservation/in_flight").value();
  EXPECT_EQ(offered, accounted);
}

}  // namespace
}  // namespace raw::cluster
