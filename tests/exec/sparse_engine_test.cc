// Dense-vs-sparse differential tests for the sparse cycle engine.
//
// Chip::set_force_dense(true) turns the engine back into the classic
// step-everything-every-cycle loop, which serves as the reference: every
// test here runs the same workload once densely and once sparsely and
// requires exact agreement on packet
// totals, per-agent busy/blocked/idle counters, per-channel word and stats
// counters (compared through the full exported metrics JSON), StreamMesh
// digests, and the packet tracer's event stream. A second group exercises
// the park/wake machinery directly: idle parking, in-run wakes through
// channel commits, event waits (until_eject/until_words) parked on their
// wake slots, run-boundary revalidation of external mutations, and the
// engine invariants' view of stale wake slots.
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace_event.h"
#include "net/route_table.h"
#include "net/traffic.h"
#include "router/chaos.h"
#include "router/raw_router.h"
#include "router/repro.h"
#include "sim/chip.h"
#include "sim/fault_plan.h"
#include "sim/tile_task.h"
#include "stream_mesh.h"

namespace raw::exec {
namespace {

net::TrafficConfig fig7_traffic() {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kUniform;
  t.size = net::SizeDist::kBimodal;
  t.load = 0.9;
  return t;
}

struct RouterRun {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t errors = 0;
  std::uint64_t static_words = 0;
  std::uint64_t cycle = 0;
  std::uint64_t digest = 0;
  std::string metrics_json;

  bool operator==(const RouterRun&) const = default;
};

RouterRun capture(router::RawRouter& router) {
  RouterRun r;
  r.offered = router.offered_packets();
  r.delivered = router.delivered_packets();
  r.errors = router.errors();
  r.static_words = router.chip().static_words_transferred();
  r.cycle = router.chip().cycle();
  r.digest = router.state_digest();
  common::MetricRegistry reg;
  router.chip().export_metrics(reg, "chip");
  r.metrics_json = reg.to_json();
  return r;
}

RouterRun run_router(bool force_dense, common::Cycle cycles,
                     int threads = 1) {
  router::RouterConfig cfg;
  cfg.threads = threads;
  router::RawRouter router(cfg, net::RouteTable::simple4(), fig7_traffic(), 11);
  router.chip().set_force_dense(force_dense);
  router.chip().enable_channel_stats(true);
  (void)router.run(cycles);
  return capture(router);
}

net::TrafficConfig fixed_traffic(common::ByteCount bytes,
                                 net::DestPattern pattern, double load) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = pattern;
  t.fixed_bytes = bytes;
  t.load = load;
  return t;
}

// The workhorse: full router over Figure 7-1 style traffic, dense as the
// reference, sparse against it. The metrics JSON covers every per-tile
// busy/blocked/idle counter and every per-channel words/occupancy/
// backpressure counter in one comparison. Both values RouterConfig::threads
// accepts (0 and 1) step the chip serially and must match the reference.
TEST(ExecSparseDifferential, RouterMatchesDenseAtAllWorkerCounts) {
  constexpr common::Cycle kCycles = 2500;
  const RouterRun dense = run_router(true, kCycles);
  EXPECT_GT(dense.delivered, 0u);
  for (const int threads : {0, 1}) {
    EXPECT_EQ(run_router(false, kCycles, threads), dense)
        << "threads=" << threads;
  }
}

// StreamMesh saturates every link, so sparsity wins nothing — but it must
// also change nothing, down to the digest over every sink hash.
TEST(ExecSparseDifferential, StreamMeshDigestAndMetricsMatchDense) {
  const auto run = [](bool force_dense) {
    StreamMesh mesh(sim::GridShape{4, 4}, /*proc_work=*/3);
    mesh.chip().set_force_dense(force_dense);
    mesh.chip().enable_channel_stats(true);
    mesh.chip().run(4000);
    common::MetricRegistry reg;
    mesh.chip().export_metrics(reg, "chip");
    return std::pair<std::uint64_t, std::string>{mesh.digest(), reg.to_json()};
  };
  EXPECT_EQ(run(false), run(true));
}

// The packet tracer does not force dense stepping (unlike the utilization
// trace window), so its event stream — including ring-buffer eviction order
// — must come out of the sparse engine untouched.
TEST(ExecSparseDifferential, TracerEventStreamMatchesDense) {
  const auto run = [](bool force_dense) {
    router::RouterConfig cfg;
    router::RawRouter router(cfg, net::RouteTable::simple4(), fig7_traffic(),
                             17);
    router.chip().set_force_dense(force_dense);
    common::PacketTracer tracer;
    router.set_tracer(&tracer);
    tracer.enable(512);
    (void)router.run(1500);
    return tracer.events();
  };
  const auto dense = run(true);
  ASSERT_FALSE(dense.empty());
  const auto sparse = run(false);
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(sparse[i].uid, dense[i].uid) << "i=" << i;
    ASSERT_EQ(sparse[i].cycle, dense[i].cycle) << "i=" << i;
    ASSERT_EQ(sparse[i].event, dense[i].event) << "i=" << i;
    ASSERT_EQ(sparse[i].track, dense[i].track) << "i=" << i;
    ASSERT_EQ(sparse[i].arg, dense[i].arg) << "i=" << i;
  }
}

sim::TileTask producer_task(sim::Channel& out, common::Cycle lead,
                            common::Word value) {
  co_await sim::task::delay(lead);
  co_await sim::task::write(out, value);
}

sim::TileTask consumer_task(sim::Channel& in, sim::Channel& out) {
  const common::Word w = co_await sim::task::read(in);
  co_await sim::task::write(out, 2 * w);
}

sim::ChipConfig bare_mesh(int dim) {
  sim::ChipConfig cfg;
  cfg.shape = sim::GridShape{dim, dim};
  return cfg;
}

// An unprogrammed mesh parks every agent after the first cycle, yet the
// settled counters must read exactly as if everything had been stepped.
TEST(ExecSparsePark, IdleMeshCountersExact) {
  sim::Chip chip(bare_mesh(4));
  chip.run(500);
  EXPECT_EQ(chip.cycle(), 500u);
  for (int t = 0; t < chip.num_tiles(); ++t) {
    EXPECT_EQ(chip.tile(t).switch_proc().cycles_idle(), 500u) << "tile " << t;
    EXPECT_EQ(chip.tile(t).proc_cycles_blocked(), 0u) << "tile " << t;
    EXPECT_EQ(chip.tile(t).proc_cycles_busy(), 0u) << "tile " << t;
  }
}

// In-run wake through a channel commit: the consumer parks blocked-recv on
// the second cycle and must wake — inside the same run() call — when the
// producer's word commits ~50 cycles later. Counters are compared against a
// dense twin, which pins down the exact wake cycle, not just eventual
// delivery.
TEST(ExecSparsePark, CommitWakesParkedReaderMidRun) {
  const auto run = [](bool force_dense) {
    sim::Chip chip(bare_mesh(4));
    chip.set_force_dense(force_dense);
    sim::Channel& pipe = chip.tile(1).csti(0);  // switch 1 is unprogrammed:
                                                // tile 0's proc is the only
                                                // writer, tile 1's the reader
    chip.tile(0).set_program(producer_task(pipe, 50, 7));
    chip.tile(1).set_program(consumer_task(pipe, chip.tile(1).csto(0)));
    chip.run(100);
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                      std::uint64_t>{
        chip.tile(1).proc_cycles_blocked(), chip.tile(1).proc_cycles_busy(),
        chip.tile(1).csto(0).words_transferred(),
        chip.tile(1).csto(0).occupancy() > 0 ? chip.tile(1).csto(0).front()
                                             : 0};
  };
  const auto dense = run(true);
  EXPECT_EQ(std::get<2>(dense), 1u);   // result word crossed into csto
  EXPECT_EQ(std::get<3>(dense), 14u);  // 2 * 7
  EXPECT_GE(std::get<0>(dense), 40u);  // consumer really did block that long
  EXPECT_EQ(run(false), dense);
}

// Run-boundary revalidation: agents parked in one run() must notice
// external mutations — a program loaded onto an idle tile, a word written
// into a channel by the harness — at the next run() entry.
TEST(ExecSparsePark, ExternalMutationsPickedUpAtRunBoundary) {
  sim::Chip chip(bare_mesh(4));
  chip.run(200);  // everything parks idle

  // A program loaded between runs executes from the next run's first cycle.
  sim::Channel& pipe = chip.tile(1).csti(0);
  chip.tile(1).set_program(consumer_task(pipe, chip.tile(1).csto(0)));
  chip.run(10);
  EXPECT_GT(chip.tile(1).proc_cycles_blocked(), 0u);  // ran, and is waiting

  // A word written into the channel by the test wakes the parked reader.
  ASSERT_TRUE(pipe.can_write());
  pipe.write(42);
  chip.run(10);
  EXPECT_EQ(chip.tile(1).csto(0).words_transferred(), 1u);
  EXPECT_EQ(chip.tile(1).csto(0).front(), 84u);
}

// A writer parked on a full FIFO (its reader never drains it) stays parked
// with exact blocked-send accounting, and resumes once the harness drains a
// word between runs.
TEST(ExecSparsePark, FullFifoParksWriterWithExactAccounting) {
  const auto blocked_after = [](bool force_dense) {
    sim::Chip chip(bare_mesh(4));
    chip.set_force_dense(force_dense);
    sim::Channel& out = chip.tile(0).csto(0);
    // Writes one word per cycle; the unprogrammed switch never reads, so
    // the 4-deep FIFO fills and the fifth write blocks forever.
    chip.tile(0).set_program([](sim::Channel& ch) -> sim::TileTask {
      for (common::Word i = 0; i < 100; ++i) {
        co_await sim::task::write(ch, i);
      }
    }(out));
    chip.run(300);
    return std::pair<std::uint64_t, std::size_t>{
        chip.tile(0).proc_cycles_blocked(), out.occupancy()};
  };
  const auto dense = blocked_after(true);
  EXPECT_EQ(dense.second, 4u);
  EXPECT_GE(dense.first, 290u);
  EXPECT_EQ(blocked_after(false), dense);
}

// Satellite check for the fault/park interaction: faults that land on
// channels in *idle* regions of the mesh — where the sparse engine has
// parked both endpoints — must produce results identical to dense stepping.
// A flip or stall mutates the channel while nobody is runnable; fault_wake()
// returns the parked agents so they re-observe the mutation this cycle.
TEST(ExecSparseDifferential, FaultsInIdleRegionsMatchDense) {
  // Low load keeps most of the mesh parked most of the time, so the
  // scheduled cycles overwhelmingly hit quiet channels.
  sim::Chip probe;
  std::vector<sim::FaultEvent> events;
  for (int i = 0; i < 8; ++i) {
    sim::FaultEvent flip;
    flip.kind = sim::FaultKind::kBitFlip;
    flip.at = 600 + static_cast<common::Cycle>(i) * 113;
    flip.channel = probe.io_port(0, 4, sim::Dir::kWest).to_chip->name();
    flip.bit = static_cast<std::uint32_t>(3 + i);
    events.push_back(flip);

    sim::FaultEvent stall;
    stall.kind = sim::FaultKind::kLinkStall;
    stall.at = 650 + static_cast<common::Cycle>(i) * 113;
    // Alternate between a busy row-1 link and a network-1 link that is
    // idle far more often.
    stall.channel = i % 2 == 0 ? probe.static_link(0, 5, sim::Dir::kEast).name()
                               : probe.static_link(1, 10, sim::Dir::kNorth).name();
    stall.duration = 40;
    events.push_back(stall);
  }

  const auto run_one = [&events](bool force_dense) {
    router::RouterConfig cfg;
    net::TrafficConfig t = fig7_traffic();
    t.load = 0.1;
    router::RawRouter router(cfg, net::RouteTable::simple4(), t, 12);
    sim::FaultPlan plan;
    for (const sim::FaultEvent& e : events) plan.add(e);
    router.set_fault_plan(&plan);
    router.chip().set_force_dense(force_dense);
    router.chip().enable_channel_stats(true);
    (void)router.run(2500);
    return capture(router);
  };

  const RouterRun dense = run_one(true);
  EXPECT_GT(dense.delivered, 0u);
  EXPECT_EQ(run_one(false), dense);
}

// Event waits: ingress tiles park in until_words for line words and in
// until_eject for lookup replies, lookup tiles in until_eject for requests.
// Each workload leans on a different wait — 64 B uniform on per-packet
// lookups, 1,024 B permutation on the line-word waits, load 0.2 on idle
// lookup tiles — and each must match the dense engine in every per-tile
// busy/blocked counter.
TEST(ExecSparseDifferential, EventWaitsMatchDenseAcrossWorkloads) {
  struct Case {
    const char* name;
    common::ByteCount bytes;
    net::DestPattern pattern;
    double load;
  };
  for (const Case& c : {Case{"64B uniform", 64, net::DestPattern::kUniform, 1.0},
                        Case{"1024B permutation", 1024,
                             net::DestPattern::kPermutation, 1.0},
                        Case{"64B uniform load 0.2", 64,
                             net::DestPattern::kUniform, 0.2}}) {
    SCOPED_TRACE(c.name);
    const auto run_one = [&c](bool force_dense) {
      router::RawRouter router(router::RouterConfig{},
                               net::RouteTable::simple4(),
                               fixed_traffic(c.bytes, c.pattern, c.load), 5);
      router.chip().set_force_dense(force_dense);
      router.chip().enable_channel_stats(true);
      (void)router.run(6000);
      EXPECT_EQ(router.chip().check_engine_invariants(), "");
      return capture(router);
    };
    const RouterRun dense = run_one(true);
    EXPECT_GT(dense.delivered, 0u);
    EXPECT_EQ(run_one(false), dense);
  }
}

// Chaos with reliable links and recovery through a permanent freeze: the
// recovery reprograms every tile while lookup and ingress programs sit
// parked in event waits, so their wake slots must be cleared and the new
// programs' waits registered afresh — exactly as dense stepping sees it.
TEST(ExecSparseDifferential, EventWaitsSurviveRecoveryThroughPermafreeze) {
  router::ChaosSpec spec;
  spec.seed = 1;
  spec.mix = router::ChaosMix{.bitflips = true, .permanent_freeze = true};
  spec.run_cycles = 12000;
  spec.reliable_links = true;
  spec.recovery = true;
  const std::vector<sim::FaultEvent> events = router::make_fault_events(spec);
  const auto run_one = [&](bool force_dense) {
    router::RawRouter router(router::router_config_for(spec),
                             net::RouteTable::simple4(),
                             router::traffic_for(spec), spec.seed);
    sim::FaultPlan plan(events);
    router.set_fault_plan(&plan);
    router.chip().set_force_dense(force_dense);
    common::Profiler prof;
    router.chip().set_profiler(&prof);
    (void)router.run(spec.run_cycles);
    (void)router.drain(20000);
    EXPECT_EQ(router.chip().check_engine_invariants(), "");
    EXPECT_TRUE(router.degraded());
    // Neither the freeze nor the degraded mode after it steps densely.
    EXPECT_EQ(force_dense ? prof.sparse_cycles() : prof.dense_sweeps(), 0u);
    EXPECT_EQ(prof.dense_sweeps() + prof.sparse_cycles(), router.chip().cycle());
    return capture(router);
  };
  const RouterRun dense = run_one(true);
  EXPECT_GT(dense.delivered, 0u);
  EXPECT_EQ(run_one(false), dense);
}

// True when an agent of `tile` (2*tile, 2*tile+1) is parked in a wake slot:
// a channel's reader, writer or count slot, or its eject slot.
bool parked_in_slot(sim::Chip& chip, int tile) {
  const auto mine = [tile](std::int32_t aid) { return aid >= 0 && aid / 2 == tile; };
  for (sim::Channel* ch : chip.all_channels()) {
    if (mine(ch->reader_slot()) || mine(ch->writer_slot()) || mine(ch->count_slot())) {
      return true;
    }
  }
  return mine(chip.dynamic_network().eject_slot(tile));
}

// Transient freezes under the sparse engine, which skips a frozen tile: its
// parked agents are credited through the cycle before the freeze and made
// runnable, and a wake already queued for one of them is ignored. Freezes
// land on every tile, busy or parked, and one lands in the very cycle a
// flip wakes the tile's parked switch: the switch is parked blocked-send on
// a link that a freeze downstream has filled, and the flip on that full
// link queues its wake before the freeze skips the tile.
TEST(ExecSparseDifferential, TransientFreezesMatchDense) {
  constexpr common::Cycle kCycles = 6000;
  const auto freeze = [](common::Cycle at, int tile, std::uint64_t duration) {
    return sim::FaultEvent{.kind = sim::FaultKind::kTileFreeze, .at = at,
                           .tile = tile, .duration = duration};
  };
  std::vector<sim::FaultEvent> events;
  for (int t = 0; t < 16; ++t) {
    events.push_back(freeze(301 + 97 * static_cast<common::Cycle>(t), t,
                            30 + 11 * static_cast<std::uint64_t>(t)));
  }

  // Runs the router to kCycles with `extra` events; `observe` sees the chip
  // between cycles.
  const auto run_one = [&events](bool force_dense,
                                 const std::vector<sim::FaultEvent>& extra,
                                 const auto& observe) {
    router::RawRouter router(router::RouterConfig{}, net::RouteTable::simple4(),
                             fixed_traffic(64, net::DestPattern::kUniform, 0.6), 21);
    std::vector<sim::FaultEvent> all = events;
    all.insert(all.end(), extra.begin(), extra.end());
    sim::FaultPlan plan(all);
    router.set_fault_plan(&plan);
    router.chip().set_force_dense(force_dense);
    router.chip().enable_channel_stats(true);
    (void)router.chip().run_until(
        [&] {
          observe(router.chip());
          return false;
        },
        kCycles);
    EXPECT_EQ(router.chip().check_engine_invariants(), "");
    return capture(router);
  };

  // Probe: the first cycle past 1000 that starts with a switch parked on a
  // full static link (a freeze downstream backed it up). Adding events at
  // that cycle changes nothing before it.
  common::Cycle queued_wake_at = 0;
  std::string full_link;
  int writer_tile = -1;
  (void)run_one(false, {}, [&](sim::Chip& chip) {
    if (writer_tile >= 0 || chip.cycle() <= 1000) return;
    for (sim::Channel* ch : chip.all_channels()) {
      const std::int32_t aid = ch->writer_slot();
      if (aid >= 0 && aid % 2 == 0 && ch->name().rfind("net", 0) == 0 &&
          ch->occupancy() == ch->capacity()) {
        queued_wake_at = chip.cycle();
        full_link = ch->name();
        writer_tile = aid / 2;
        return;
      }
    }
  });
  ASSERT_NE(writer_tile, -1) << "no switch parked on a full link";
  const std::vector<sim::FaultEvent> queued_wake = {
      sim::FaultEvent{.kind = sim::FaultKind::kBitFlip, .at = queued_wake_at,
                      .channel = full_link, .bit = 7},
      freeze(queued_wake_at, writer_tile, 50)};

  const auto ignore = [](sim::Chip&) {};
  const RouterRun dense = run_one(true, queued_wake, ignore);
  EXPECT_GT(dense.delivered, 0u);
  int parked_at_freeze = 0;
  int busy_at_freeze = 0;
  bool switch_parked_at_flip = false;
  const RouterRun sparse = run_one(false, queued_wake, [&](sim::Chip& chip) {
    const common::Cycle now = chip.cycle();
    if (now == queued_wake_at) {
      switch_parked_at_flip = chip.find_channel(full_link)->writer_slot() == 2 * writer_tile;
    }
    for (const sim::FaultEvent& e : events) {
      if (e.at == now) ++(parked_in_slot(chip, e.tile) ? parked_at_freeze : busy_at_freeze);
    }
  });
  EXPECT_TRUE(switch_parked_at_flip);
  EXPECT_GT(parked_at_freeze, 0);
  EXPECT_GT(busy_at_freeze, 0);
  EXPECT_EQ(sparse, dense);
}

// Run-boundary revalidation with processors parked in event waits: a
// boundary wakes every parked agent and the next run re-parks it, which
// must change nothing — run(x); run(y) equals run(x + y).
TEST(ExecSparsePark, ChunkedRunsMatchOneRunWithLookupsParked) {
  const auto make = [] {
    return std::make_unique<router::RawRouter>(
        router::RouterConfig{}, net::RouteTable::simple4(),
        fixed_traffic(64, net::DestPattern::kUniform, 0.2), 9);
  };
  auto whole = make();
  (void)whole->run(5000);

  auto chunked = make();
  (void)chunked->run(2000);
  // At load 0.2 the lookup tiles spend most cycles parked on their eject
  // port; at least one of them must be parked across this boundary.
  sim::DynamicNetwork& dyn = chunked->chip().dynamic_network();
  int parked_lookups = 0;
  for (int p = 0; p < router::kNumPorts; ++p) {
    const int t = chunked->layout().port(p).lookup;
    if (dyn.eject_slot(t) == 2 * t + 1) ++parked_lookups;
  }
  EXPECT_GT(parked_lookups, 0);
  EXPECT_EQ(chunked->chip().check_engine_invariants(), "");
  (void)chunked->run(3000);

  EXPECT_EQ(capture(*chunked), capture(*whole));
}

// The two event awaits against the polling loops they replace, on a bare
// chip: the waiter must continue on the same cycle with the same busy and
// blocked counts under both engines, and the sparse engine must hold it
// parked (not stepped) for the whole wait with clean engine invariants.
enum class Wait { kPoll, kAwait };

struct WaitOutcome {
  common::Cycle woke = 0;
  std::uint64_t busy = 0;
  std::uint64_t blocked = 0;
  bool operator==(const WaitOutcome&) const = default;
};

sim::TileTask words_waiter(sim::Channel& ch, Wait how, common::Cycle* woke,
                           const sim::Chip& chip) {
  co_await sim::task::delay(3);
  if (how == Wait::kPoll) {
    while (ch.words_transferred() < 2) co_await sim::task::delay(1);
  } else {
    co_await sim::task::until_words(ch, 2);
  }
  *woke = chip.cycle();
  co_await sim::task::delay(2);
}

sim::TileTask eject_waiter(sim::DynamicNetwork& dyn, int tile, Wait how,
                           common::Cycle* woke, const sim::Chip& chip) {
  co_await sim::task::delay(3);
  if (how == Wait::kPoll) {
    while (!dyn.has_eject(tile)) co_await sim::task::delay(1);
  } else {
    co_await sim::task::until_eject(dyn, tile);
  }
  *woke = chip.cycle();
  (void)dyn.pop_eject(tile);
  co_await sim::task::delay(2);
}

sim::TileTask two_writes(sim::Channel& ch, common::Cycle gap) {
  co_await sim::task::delay(gap);
  co_await sim::task::write(ch, 1);
  co_await sim::task::delay(gap);
  co_await sim::task::write(ch, 2);
}

sim::TileTask delayed_inject(sim::DynamicNetwork& dyn, int from, int to,
                             common::Cycle lead) {
  co_await sim::task::delay(lead);
  const std::array<common::Word, 1> payload{42};
  dyn.inject(from, to, payload);
}

TEST(ExecSparsePark, EventAwaitsMatchPollingLoopsAndStayParked) {
  constexpr int kWaiter = 3;  // tile of the waiting processor (agent 7)
  for (const bool eject : {false, true}) {
    SCOPED_TRACE(eject ? "until_eject" : "until_words");
    const auto run_one = [eject](Wait how, bool force_dense) {
      sim::ChipConfig cfg;
      cfg.shape = sim::GridShape{2, 2};
      sim::Chip chip(cfg);
      chip.set_force_dense(force_dense);
      common::Profiler prof;
      chip.set_profiler(&prof);
      common::Cycle woke = 0;
      // The producer writes into the waiter's csti (its switch is
      // unprogrammed, and the waiter never reads it), or injects a
      // one-word message to the waiter's tile.
      sim::Channel& pipe = chip.tile(kWaiter).csti(0);
      if (eject) {
        chip.tile(0).set_program(
            delayed_inject(chip.dynamic_network(), 0, kWaiter, 40));
        chip.tile(kWaiter).set_program(eject_waiter(
            chip.dynamic_network(), kWaiter, how, &woke, chip));
      } else {
        chip.tile(0).set_program(two_writes(pipe, 20));
        chip.tile(kWaiter).set_program(words_waiter(pipe, how, &woke, chip));
      }
      // Sample the engine between cycles: while the waiter waits, every
      // agent but the producer's processor is parked, the waiter included.
      common::Cycle parked_checks = 0;
      (void)chip.run_until(
          [&] {
            const common::Cycle now = chip.cycle();
            if (how == Wait::kAwait && !force_dense && now >= 6 && now < 30) {
              EXPECT_EQ(prof.parks() - prof.wakes(), 2u * 4u - 1u)
                  << "cycle " << now;
              EXPECT_EQ(chip.check_engine_invariants(), "") << "cycle " << now;
              ++parked_checks;
            }
            return false;
          },
          80);
      EXPECT_EQ(chip.check_engine_invariants(), "");
      if (how == Wait::kAwait && !force_dense) {
        EXPECT_EQ(parked_checks, 24u);
      }
      return WaitOutcome{woke, chip.tile(kWaiter).proc_cycles_busy(),
                         chip.tile(kWaiter).proc_cycles_blocked()};
    };
    const WaitOutcome reference = run_one(Wait::kPoll, true);
    EXPECT_GT(reference.woke, 30u);
    EXPECT_LT(reference.woke, 70u);
    EXPECT_EQ(run_one(Wait::kPoll, false), reference);
    EXPECT_EQ(run_one(Wait::kAwait, true), reference);
    EXPECT_EQ(run_one(Wait::kAwait, false), reference);
  }
}

// The reverse direction of check_engine_invariants over the new slots: a
// count or eject slot naming an agent that is not parked there — a stale
// registration whose wake would corrupt that agent's accounting — is
// reported with the slot's owner.
TEST(ExecSparsePark, InvariantsReportStaleEventSlots) {
  sim::ChipConfig cfg;
  cfg.shape = sim::GridShape{2, 2};
  sim::Chip chip(cfg);
  EXPECT_EQ(chip.check_engine_invariants(), "");

  // Nothing is parked on a fresh chip.
  chip.tile(1).csti(0).count_slot(7) = 3;
  EXPECT_NE(chip.check_engine_invariants().find(
                "channel tile1.csti wake slot holds agent 3 which is not parked"),
            std::string::npos)
      << chip.check_engine_invariants();
  chip.tile(1).csti(0).count_slot() = -1;
  EXPECT_EQ(chip.check_engine_invariants(), "");

  // After a run every agent of the unprogrammed chip is parked idle, with
  // no slot: an eject slot naming one disagrees with its park record.
  chip.run(10);
  EXPECT_EQ(chip.check_engine_invariants(), "");
  chip.dynamic_network().eject_slot(2) = 5;
  EXPECT_NE(chip.check_engine_invariants().find(
                "tile 2 eject port wake slot holds agent 5 whose park record "
                "disagrees"),
            std::string::npos)
      << chip.check_engine_invariants();
  chip.dynamic_network().eject_slot(2) = 99;
  EXPECT_NE(chip.check_engine_invariants().find("(bogus agent)"),
            std::string::npos)
      << chip.check_engine_invariants();
  chip.dynamic_network().eject_slot(2) = -1;
  EXPECT_EQ(chip.check_engine_invariants(), "");

  // Forward direction: a processor parked in until_words whose count slot
  // was emptied behind its back would never be woken.
  common::Cycle woke = 0;
  sim::Channel& pipe = chip.tile(3).csti(0);
  chip.tile(3).set_program(words_waiter(pipe, Wait::kAwait, &woke, chip));
  chip.run(10);
  ASSERT_EQ(pipe.count_slot(), 7);
  EXPECT_EQ(chip.check_engine_invariants(), "");
  pipe.count_slot() = -1;
  EXPECT_EQ(chip.check_engine_invariants(),
            "agent 7 parked on a wake slot that holds -1 (a wake event would "
            "never arrive)");
  pipe.count_slot() = 7;
  EXPECT_EQ(chip.check_engine_invariants(), "");
}

}  // namespace
}  // namespace raw::exec
