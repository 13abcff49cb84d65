// Execution differential tests through the full router stack.
//
// A chip always steps serially, but the same chip may be stepped on any host
// thread: ClusterRunner's workers each step their own chips. These tests
// compare every externally observable total — packet accounting, ledger
// disposition, static-network word counts, the final cycle, and
// (separately) the packet tracer's event stream including ring-buffer
// eviction — between runs that must agree exactly: both values
// RouterConfig::threads still accepts (0 and 1), the dense reference engine,
// and runs stepped on a second host thread. The fault differential goes
// through the chaos harness so flips, stalls, freezes, and overruns — plus
// the watchdog's run_until drain paths — are all covered.
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_event.h"
#include "net/route_table.h"
#include "net/traffic.h"
#include "router/chaos.h"
#include "router/raw_router.h"

namespace raw::router {
namespace {

/// Runs `fn` to completion on a fresh host thread and returns its result.
template <typename Fn>
auto on_other_thread(Fn fn) {
  decltype(fn()) result{};
  std::thread([&] { result = fn(); }).join();
  return result;
}

struct RouterTotals {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_card = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t erased_delivered = 0;
  std::uint64_t erased_invalid = 0;
  std::uint64_t erased_ingress = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t static_words = 0;
  std::uint64_t cycle = 0;

  bool operator==(const RouterTotals&) const = default;
};

std::string describe(const RouterTotals& t) {
  return "offered=" + std::to_string(t.offered) +
         " delivered=" + std::to_string(t.delivered) +
         " dropped=" + std::to_string(t.dropped_card) +
         " errors=" + std::to_string(t.errors) +
         " lost=" + std::to_string(t.lost) +
         " e_dlv=" + std::to_string(t.erased_delivered) +
         " e_inv=" + std::to_string(t.erased_invalid) +
         " e_ing=" + std::to_string(t.erased_ingress) +
         " in_flight=" + std::to_string(t.in_flight) +
         " words=" + std::to_string(t.static_words) +
         " cycle=" + std::to_string(t.cycle);
}

net::TrafficConfig make_traffic(net::DestPattern pattern) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = pattern;
  t.size = net::SizeDist::kBimodal;
  t.load = 0.9;
  return t;
}

RouterTotals run_router(net::DestPattern pattern, std::uint64_t seed,
                        int threads, bool force_dense, common::Cycle cycles) {
  RouterConfig cfg;
  cfg.threads = threads;
  RawRouter router(cfg, net::RouteTable::simple4(), make_traffic(pattern),
                   seed);
  router.chip().set_force_dense(force_dense);
  (void)router.run(cycles);
  RouterTotals t;
  t.offered = router.offered_packets();
  t.delivered = router.delivered_packets();
  t.dropped_card = router.dropped_at_card();
  t.errors = router.errors();
  t.lost = router.lost_packets();
  t.erased_delivered = router.ledger().erased_delivered;
  t.erased_invalid = router.ledger().erased_invalid;
  t.erased_ingress = router.ledger().erased_ingress;
  t.in_flight = router.ledger().in_flight.size();
  t.static_words = router.chip().static_words_transferred();
  t.cycle = router.chip().cycle();
  return t;
}

class ExecRouterDifferential
    : public ::testing::TestWithParam<std::tuple<net::DestPattern,
                                                 std::uint64_t>> {};

// Both accepted RouterConfig::threads values, sparse and dense, must agree
// with the default serial sparse run.
TEST_P(ExecRouterDifferential, TotalsIdenticalAcrossThreadCounts) {
  const auto [pattern, seed] = GetParam();
  constexpr common::Cycle kCycles = 2500;
  const RouterTotals serial = run_router(pattern, seed, 1, false, kCycles);
  EXPECT_GT(serial.delivered, 0u);
  for (const int t : {0, 1}) {
    for (const bool dense : {false, true}) {
      const RouterTotals other = run_router(pattern, seed, t, dense, kCycles);
      EXPECT_EQ(other, serial)
          << "threads=" << t << (dense ? " dense" : " sparse")
          << "\n  serial: " << describe(serial)
          << "\n   other: " << describe(other);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExecPatternsAndSeeds, ExecRouterDifferential,
    ::testing::Combine(::testing::Values(net::DestPattern::kUniform,
                                         net::DestPattern::kPermutation,
                                         net::DestPattern::kHotspot),
                       ::testing::Values(std::uint64_t{11},
                                         std::uint64_t{29})));

struct ChaosTotals {
  bool pass = false;
  int outcome = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_card = 0;
  std::uint64_t ingress_drops = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t malformed = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t digest = 0;

  bool operator==(const ChaosTotals&) const = default;
};

ChaosTotals run_chaos_at(const char* mix_str, std::uint64_t seed,
                         common::Cycle cycles) {
  ChaosSpec spec;
  ChaosMix mix;
  EXPECT_TRUE(parse_mix(mix_str, &mix));
  spec.seed = seed;
  spec.mix = mix;
  spec.run_cycles = cycles;
  const ChaosResult r = run_chaos(spec);
  ChaosTotals t;
  t.pass = r.pass;
  t.outcome = static_cast<int>(r.outcome);
  t.offered = r.offered;
  t.delivered = r.delivered;
  t.dropped_card = r.dropped_card;
  t.ingress_drops = r.ingress_drops;
  t.errors = r.errors;
  t.lost = r.lost;
  t.malformed = r.malformed;
  t.resyncs = r.resyncs;
  t.watchdog_trips = r.watchdog_trips;
  t.faults_injected = r.faults_injected;
  t.digest = r.digest;
  return t;
}

// Faults exercise the serial fault phase, the mutex-protected ingress
// ledger drops, frozen-tile skipping, and the watchdog's run_until-driven
// drain — all under the full transient mix, on two host threads.
TEST(ExecChaosDifferential, FullTransientMixIdenticalAcrossThreads) {
  constexpr const char* kMix = "flip+stall+freeze+overrun";
  constexpr common::Cycle kCycles = 6000;
  const ChaosTotals here = run_chaos_at(kMix, 3, kCycles);
  EXPECT_GT(here.faults_injected, 0u);
  EXPECT_EQ(on_other_thread([&] { return run_chaos_at(kMix, 3, kCycles); }),
            here);
}

TEST(ExecChaosDifferential, FlipStallMixIdenticalAcrossThreads) {
  constexpr common::Cycle kCycles = 6000;
  const ChaosTotals here = run_chaos_at("flip+stall", 5, kCycles);
  EXPECT_EQ(
      on_other_thread([&] { return run_chaos_at("flip+stall", 5, kCycles); }),
      here);
}

std::vector<common::PacketTracer::Record> run_traced(std::size_t budget) {
  RawRouter router(RouterConfig{}, net::RouteTable::simple4(),
                   make_traffic(net::DestPattern::kUniform), 17);
  common::PacketTracer tracer;
  router.set_tracer(&tracer);
  tracer.enable(budget);
  (void)router.run(1500);
  return tracer.events();
}

// The tracer's ring buffer must hold the exact same event sequence —
// including which events eviction discarded — whichever host thread steps
// the chip. The small budget forces heavy eviction.
TEST(ExecTracerDifferential, EventStreamIdenticalAcrossThreads) {
  const auto here = run_traced(512);
  ASSERT_FALSE(here.empty());
  const auto other = on_other_thread([] { return run_traced(512); });
  ASSERT_EQ(other.size(), here.size());
  for (std::size_t i = 0; i < here.size(); ++i) {
    ASSERT_EQ(other[i].uid, here[i].uid) << "i=" << i;
    ASSERT_EQ(other[i].cycle, here[i].cycle) << "i=" << i;
    ASSERT_EQ(other[i].event, here[i].event) << "i=" << i;
    ASSERT_EQ(other[i].track, here[i].track) << "i=" << i;
    ASSERT_EQ(other[i].arg, here[i].arg) << "i=" << i;
  }
}

}  // namespace
}  // namespace raw::router
