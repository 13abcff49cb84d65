// Robustness tests: config validation, drain edge cases, the progress
// watchdog, and the chaos harness invariants (router/chaos.h).
#include "router/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "router/raw_router.h"
#include "sim/fault_plan.h"

namespace raw::router {
namespace {

net::TrafficConfig traffic(double load = 0.9) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 256;
  t.load = load;
  return t;
}

TEST(RouterConfigTest, ValidConfigPasses) {
  RouterConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RouterConfigTest, RejectsFifoTooShallowForHeader) {
  RouterConfig cfg;
  cfg.link_fifo_depth = 4;  // an IP header is 5 words
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(RawRouter(cfg, net::RouteTable::simple4(), traffic(), 1),
               std::invalid_argument);
  // Fragments must not fall below the header floor either: a quantum cap
  // of 8 words cuts some tails to 4, a cap of 9 never below 5.
  cfg = RouterConfig{};
  cfg.runtime.quantum_max_words = 8;
  try {
    cfg.validate();
    ADD_FAILURE() << "a quantum of 8 words must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("quantum_max_words"),
              std::string::npos) << e.what();
  }
  cfg.runtime.quantum_max_words = 9;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RouterConfigTest, RejectsZeroLineCardQueue) {
  RouterConfig cfg;
  cfg.line_card_queue_words = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RouterConfigTest, RejectsZeroLinkRetries) {
  RouterConfig cfg;
  cfg.link.enabled = true;
  cfg.link.max_retries = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.link.enabled = false;  // unused when the layer is off
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RouterConfigTest, RejectsReplayBufferShorterThanRoundTrip) {
  // A repair must still hold the word being retransmitted when the NACK
  // lands, so the replay ring cannot be shallower than the modelled RTT.
  RouterConfig cfg;
  cfg.link.enabled = true;
  cfg.link.retransmit_rtt = 16;
  cfg.link.replay_depth = 8;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.link.replay_depth = 16;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RouterConfigTest, RejectsReplayBufferShorterThanLinkFifo) {
  RouterConfig cfg;
  cfg.link.enabled = true;
  cfg.link.replay_depth = cfg.link_fifo_depth - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// A chip steps serially: threads and max_lookahead accept only 0 or 1.
TEST(RouterConfigTest, RejectsNegativeThreads) {
  RouterConfig cfg;
  cfg.threads = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RouterConfigTest, RejectsThreadsOrLookaheadOtherThanSerial) {
  {
    RouterConfig cfg;
    cfg.threads = 2;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  RouterConfig cfg;
  cfg.max_lookahead = 8;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_lookahead = 1;
  cfg.threads = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RouterConfigTest, RejectsZeroWatchdogInterval) {
  // The watchdog is always on, so a zero interval is always rejected.
  RouterConfig cfg;
  cfg.watchdog.check_interval = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(RawRouter(cfg, net::RouteTable::simple4(), traffic(), 1),
               std::invalid_argument);
  cfg.watchdog.check_interval = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(DrainEdgeCaseTest, DrainWithZeroBudgetOnIdleRouter) {
  // A freshly built router has nothing in flight: drain(0) succeeds without
  // running a single cycle.
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(), 1);
  EXPECT_TRUE(router.drain(0));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrained);
  EXPECT_EQ(router.chip().cycle(), 0u);
}

TEST(DrainEdgeCaseTest, DrainWithZeroBudgetWithWorkPendingTimesOut) {
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(), 2);
  router.run(5000);
  ASSERT_FALSE(router.ledger().in_flight.empty());
  EXPECT_FALSE(router.drain(0));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kTimeout);
}

TEST(DrainEdgeCaseTest, DrainTwiceIsIdempotent) {
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(0.5), 3);
  router.run(10000);
  EXPECT_TRUE(router.drain(300000));
  const common::Cycle after_first = router.chip().cycle();
  const std::uint64_t delivered = router.delivered_packets();
  // Second drain: already quiet, returns immediately with nothing changed.
  EXPECT_TRUE(router.drain(300000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrained);
  EXPECT_EQ(router.delivered_packets(), delivered);
  EXPECT_LE(router.chip().cycle(), after_first + 1);
}

TEST(DrainEdgeCaseTest, DrainWithoutWatchdogStillDrains) {
  // A check interval longer than the whole run and drain: no watchdog check
  // ever falls due, and the drain runs as one chunk.
  RouterConfig cfg;
  cfg.watchdog.check_interval = common::Cycle{1} << 40;
  RawRouter router(cfg, net::RouteTable::simple4(), traffic(0.5), 4);
  router.run(10000);
  EXPECT_TRUE(router.drain(300000));
  EXPECT_EQ(router.drain_outcome(), DrainOutcome::kDrained);
  EXPECT_EQ(router.errors(), 0u);
}

TEST(WatchdogTest, CleanRunNeverTrips) {
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(), 5);
  EXPECT_EQ(router.run(40000), RunStatus::kOk);
  EXPECT_TRUE(router.drain(300000));
  EXPECT_EQ(router.watchdog_trips(), 0u);
  EXPECT_FALSE(router.stall_report().has_value());
  EXPECT_EQ(router.lost_packets(), 0u);
}

TEST(WatchdogTest, ChunkedRunMatchesUnwatchedRun) {
  // Watchdog checks fall at absolute multiples of check_interval, so
  // run(x); run(y) walks exactly the trajectory of run(x + y). The
  // permanent freeze makes the check cycles matter: recovery reconfigures
  // the fabric at the first check that sees the wedge, whatever the chunks.
  constexpr common::Cycle kCycles = 200000;
  const auto run_in_chunks = [&](common::Cycle chunk) {
    RouterConfig cfg;
    cfg.link.enabled = true;
    cfg.recovery.enabled = true;
    RawRouter router(cfg, net::RouteTable::simple4(), traffic(), 6);
    sim::FaultPlan plan;
    sim::FaultEvent e;
    e.kind = sim::FaultKind::kTileFreeze;
    e.at = 3000;
    e.permanent = true;
    e.tile = 6;
    plan.add(std::move(e));
    router.set_fault_plan(&plan);
    for (common::Cycle done = 0; done < kCycles; done += chunk) {
      EXPECT_NE(router.run(std::min(chunk, kCycles - done)),
                RunStatus::kStalled);
    }
    EXPECT_EQ(router.chip().cycle(), kCycles);
    EXPECT_TRUE(router.degraded());
    return std::make_pair(router.state_digest(), router.delivered_packets());
  };
  const auto whole = run_in_chunks(kCycles);
  EXPECT_EQ(run_in_chunks(7777), whole);
  EXPECT_EQ(run_in_chunks(20000), whole);
}

TEST(WatchdogTest, PermanentFreezeDetectedWithCoordinateAndCause) {
  // Acceptance check: freeze a known tile permanently mid-run; the watchdog
  // must stop the run within its configured bound and the report must name
  // that tile, its grid coordinate, and a frozen block cause.
  constexpr int kFrozenTile = 6;  // crossbar ring tile, row 1 col 2
  constexpr common::Cycle kFreezeAt = 3000;

  RouterConfig cfg;
  cfg.watchdog.no_progress_bound = 8000;
  cfg.watchdog.check_interval = 1024;
  RawRouter router(cfg, net::RouteTable::simple4(), traffic(), 7);
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kTileFreeze;
  e.at = kFreezeAt;
  e.permanent = true;
  e.tile = kFrozenTile;
  plan.add(std::move(e));
  router.set_fault_plan(&plan);

  EXPECT_EQ(router.run(100000), RunStatus::kStalled);
  EXPECT_EQ(router.watchdog_trips(), 1u);
  ASSERT_TRUE(router.stall_report().has_value());
  const StallReport& report = *router.stall_report();
  EXPECT_EQ(report.cause, StallReport::Cause::kNoForwardProgress);

  // Detection latency: the fabric can coast briefly after the freeze, then
  // the no-progress bound plus at most one check interval must elapse.
  EXPECT_LE(report.detected_cycle, kFreezeAt + 2 * cfg.watchdog.no_progress_bound +
                                       cfg.watchdog.check_interval);
  EXPECT_GE(report.detected_cycle - report.last_progress_cycle,
            cfg.watchdog.no_progress_bound);

  bool found = false;
  for (const StallReport::TileState& t : report.tiles) {
    if (t.tile != kFrozenTile) continue;
    found = true;
    EXPECT_EQ(t.cause, StallReport::BlockCause::kFrozen);
    EXPECT_EQ(t.coord.row, 1);
    EXPECT_EQ(t.coord.col, 2);
    EXPECT_EQ(t.role, "Xbar1");  // tile 6 serves port 1's crossbar slot
  }
  EXPECT_TRUE(found) << report.to_string();
  // The report names the frozen tile in its printable form too.
  EXPECT_NE(report.to_string().find("frozen"), std::string::npos);
}

TEST(ChaosTest, MixNamesRoundTrip) {
  EXPECT_EQ(ChaosMix{}.name(), "clean");
  EXPECT_EQ((ChaosMix{.bitflips = true, .stalls = true}).name(), "flip+stall");
  EXPECT_EQ((ChaosMix{.permanent_freeze = true}).name(), "permafreeze");
  EXPECT_EQ(standard_mixes().size(), 13u);
  for (const ChaosMix& mix : standard_mixes()) {
    ChaosMix parsed;
    ASSERT_TRUE(parse_mix(mix.name(), &parsed)) << mix.name();
    EXPECT_EQ(parsed.name(), mix.name());
  }
  ChaosMix out;
  EXPECT_TRUE(parse_mix("", &out));  // the no-fault mix, like "clean"
  EXPECT_EQ(out.name(), "clean");
  // Unknown kinds and empty tokens are rejected wherever they sit.
  for (const char* bad : {"meteor", "flip+", "+stall", "flip++stall", "+"}) {
    EXPECT_FALSE(parse_mix(bad, &out)) << bad;
  }
}

TEST(ChaosTest, FaultScheduleFitsAnyRunLength) {
  // Every fault of a flip+stall mix lands in [run/8, 3run/4), and a
  // one-cycle run still gets its full schedule (in cycle 0) rather than an
  // empty time window.
  for (const common::Cycle run : {common::Cycle{16000}, common::Cycle{1}}) {
    SCOPED_TRACE(run);
    RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(), 1);
    ChaosSpec spec;
    spec.seed = 1;
    spec.mix.bitflips = true;
    spec.mix.stalls = true;
    spec.run_cycles = run;
    const sim::FaultPlan plan = make_fault_plan(spec, router);
    EXPECT_EQ(plan.events().size(),
              static_cast<std::size_t>(2 * spec.faults_per_kind));
    for (const sim::FaultEvent& e : plan.events()) {
      EXPECT_GE(e.at, run / 8);
      EXPECT_LT(e.at, std::max<common::Cycle>(1, 3 * run / 4));
    }
  }
}

TEST(ChaosTest, BitFlipRunConservesAndStillForwards) {
  ChaosSpec spec;
  spec.seed = 1;
  spec.mix.bitflips = true;
  spec.run_cycles = 16000;
  const ChaosResult r = run_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_GT(r.delivered, 0u);
}

TEST(ChaosTest, LedgerBalancesAfterFaultyDrain) {
  // Drive the conservation identity directly: offered packets equal the sum
  // of every disposal class plus whatever is still in flight.
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(), traffic(), 9);
  ChaosSpec spec;
  spec.seed = 9;
  spec.mix.bitflips = true;
  spec.mix.stalls = true;
  spec.run_cycles = 16000;
  sim::FaultPlan plan = make_fault_plan(spec, router);
  router.set_fault_plan(&plan);
  (void)router.run(spec.run_cycles);
  (void)router.drain(spec.drain_cycles);

  const PacketLedger& ledger = router.ledger();
  EXPECT_EQ(router.offered_packets(),
            router.dropped_at_card() + ledger.erased_total() +
                ledger.in_flight.size());
  EXPECT_EQ(ledger.erased_total(),
            ledger.erased_delivered + ledger.erased_invalid +
                ledger.erased_ingress + ledger.erased_lost);
  EXPECT_EQ(ledger.erased_delivered, router.delivered_packets());
}

TEST(ChaosTest, TimingFaultsCauseNoDamage) {
  ChaosSpec spec;
  spec.seed = 2;
  spec.mix.stalls = true;
  spec.mix.freezes = true;
  spec.mix.overruns = true;
  spec.run_cycles = 16000;
  const ChaosResult r = run_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.malformed, 0u);
  EXPECT_EQ(r.resyncs, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.outcome, DrainOutcome::kDrained);
}

TEST(ChaosTest, PermanentFreezeMixStallsWithReport) {
  ChaosSpec spec;
  spec.seed = 3;
  spec.mix.permanent_freeze = true;
  spec.run_cycles = 16000;
  const ChaosResult r = run_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_TRUE(r.stalled_in_run || r.outcome == DrainOutcome::kStalled);
  EXPECT_FALSE(r.stall_summary.empty());
  EXPECT_GE(r.watchdog_trips, 1u);
}

}  // namespace
}  // namespace raw::router
