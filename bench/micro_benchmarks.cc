// Experiment E15 — google-benchmark microbenchmarks of the building blocks:
// checksum arithmetic, LPM lookups, schedulers, the global rule, and the
// chip simulator's cycle engine (simulation speed, not modelled speed).
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fabric/scheduler.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "net/route_table.h"
#include "net/small_table.h"
#include "net/traffic.h"
#include "router/config_space.h"
#include "router/line_cards.h"
#include "router/raw_router.h"
#include "router/rule.h"
#include "sim/channel.h"
#include "sim/chip.h"
#include "sim/device.h"
#include "sim/dynamic_network.h"
#include "sim/switch_isa.h"

namespace {

using raw::common::Rng;

void BM_Ipv4Checksum(benchmark::State& state) {
  raw::net::Ipv4Header h;
  h.src = raw::net::make_addr(10, 1, 2, 3);
  h.dst = raw::net::make_addr(10, 3, 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(raw::net::header_checksum(h));
    h.identification++;
  }
}
BENCHMARK(BM_Ipv4Checksum);

void BM_TtlDecrementIncremental(benchmark::State& state) {
  raw::net::Ipv4Header h;
  raw::net::finalize_checksum(h);
  for (auto _ : state) {
    h.ttl = 64;
    benchmark::DoNotOptimize(raw::net::decrement_ttl(h));
  }
}
BENCHMARK(BM_TtlDecrementIncremental);

void BM_PacketSerialize(benchmark::State& state) {
  const raw::net::Packet p =
      raw::net::make_packet(1, 0x0a000001, 0x0a010001,
                            static_cast<raw::common::ByteCount>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(raw::net::packet_to_words(p));
  }
}
BENCHMARK(BM_PacketSerialize)->Arg(64)->Arg(1024);

void BM_PatriciaLookup(benchmark::State& state) {
  const auto table = raw::net::RouteTable::random(
      static_cast<std::size_t>(state.range(0)), 4, 11);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(static_cast<raw::net::Addr>(rng.next())));
  }
}
BENCHMARK(BM_PatriciaLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_SmallTableLookup(benchmark::State& state) {
  const auto table = raw::net::RouteTable::random(
      static_cast<std::size_t>(state.range(0)), 4, 11);
  const raw::net::SmallTable small = raw::net::SmallTable::build(table.trie());
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.lookup(static_cast<raw::net::Addr>(rng.next())));
  }
  state.counters["table_kb"] =
      static_cast<double>(small.total_bytes()) / 1024.0;
}
BENCHMARK(BM_SmallTableLookup)->Arg(10000)->Arg(100000);

// A cluster chip's table: one 10.<host>.0.0/16 route per host, 32 hosts.
raw::net::RouteTable leaf_table_32_hosts() {
  raw::net::RouteTable table;
  for (std::uint8_t h = 0; h < 32; ++h) {
    table.add_route(raw::net::make_addr(10, h, 0, 0), 16, h % 4);
  }
  return table;
}

raw::net::RouteTable random_table_10000() {
  return raw::net::RouteTable::random(10000, 4, 11);
}

// Compiling the table from its routes: the two shapes router and cluster
// setup build, and a large random table.
void BM_SmallTableBuild(benchmark::State& state,
                        raw::net::RouteTable (*make_table)()) {
  const raw::net::RouteTable table = make_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(raw::net::SmallTable::build(table.trie()));
  }
}
BENCHMARK_CAPTURE(BM_SmallTableBuild, simple4, &raw::net::RouteTable::simple4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SmallTableBuild, leaf_32_hosts, &leaf_table_32_hosts)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SmallTableBuild, random_10000, &random_table_10000)
    ->Unit(benchmark::kMillisecond);

void BM_IslipMatch(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  raw::fabric::IslipScheduler sched(ports);
  Rng rng(5);
  std::vector<std::uint32_t> depths(
      static_cast<std::size_t>(ports * ports));
  for (auto& d : depths) d = static_cast<std::uint32_t>(rng.below(3));
  const raw::fabric::QueueSnapshot snap(
      ports, depths, std::vector<int>(static_cast<std::size_t>(ports), -1));
  const raw::fabric::Matching held(static_cast<std::size_t>(ports), -1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.match(snap, held));
  }
}
BENCHMARK(BM_IslipMatch)->Arg(4)->Arg(16)->Arg(32);

void BM_RotatingCrossbarRule(benchmark::State& state) {
  Rng rng(7);
  std::array<raw::router::HeaderReq, 4> headers{};
  int token = 0;
  for (auto _ : state) {
    for (auto& h : headers) {
      const auto d = rng.below(5);
      h = d == 0 ? raw::router::HeaderReq{}
                 : raw::router::HeaderReq{1u << (d - 1), 64};
    }
    benchmark::DoNotOptimize(raw::router::evaluate_rule(headers, token));
    token = (token + 1) % 4;
  }
}
BENCHMARK(BM_RotatingCrossbarRule);

void BM_ConfigSpaceEnumeration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(raw::router::enumerate_space(4));
  }
}
BENCHMARK(BM_ConfigSpaceEnumeration);

void BM_ChipIdleCycle(benchmark::State& state) {
  raw::sim::Chip chip;
  for (auto _ : state) {
    chip.run(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChipIdleCycle);

// Feeds one chip-edge input and drains one chip-edge output every cycle.
class EdgePump : public raw::sim::Device {
 public:
  EdgePump(raw::sim::Channel* in, raw::sim::Channel* out) : in_(in), out_(out) {}
  void step(raw::sim::Chip&) override {
    if (in_->can_write()) in_->write(word_++);
    if (out_->can_read()) benchmark::DoNotOptimize(out_->read());
  }

 private:
  raw::sim::Channel* in_;
  raw::sim::Channel* out_;
  raw::common::Word word_ = 0;
};

// Switch-processor cost on the streaming path: a 1x2 chip whose two switch
// programs forward W>E in a single-cycle bnezd loop (the schedule
// compiler's counted-stream idiom), fed and drained at the chip edges. One
// iteration runs 1,000 cycles; ns_per_switch_step divides wall time by the
// two switch steps per cycle (chip engine overhead included).
void BM_SwitchStreamStep(benchmark::State& state) {
  raw::sim::ChipConfig cfg;
  cfg.shape = raw::sim::GridShape{1, 2};
  raw::sim::Chip chip(cfg);
  std::string error;
  const auto program = std::make_shared<const raw::sim::SwitchProgram>(
      raw::sim::assemble("top: li r0, 4096\n"
                         "loop: bnezd r0, loop | W>E\n"
                         "jump top\n",
                         &error));
  if (!error.empty()) {
    state.SkipWithError(error.c_str());
    return;
  }
  chip.tile(0).switch_proc().load(program);
  chip.tile(1).switch_proc().load(program);
  EdgePump pump(chip.io_port(0, 0, raw::sim::Dir::kWest).to_chip,
                chip.io_port(0, 1, raw::sim::Dir::kEast).from_chip);
  chip.add_device(&pump);
  constexpr int kCycles = 1000;
  for (auto _ : state) {
    chip.run(kCycles);
  }
  const auto steps = static_cast<double>(2 * kCycles * state.iterations());
  state.counters["ns_per_switch_step"] = benchmark::Counter(
      steps, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["words"] =
      static_cast<double>(chip.static_words_transferred());
}
BENCHMARK(BM_SwitchStreamStep);

// The sparse router's cycle, the layer BM_SwitchStreamStep is one part of:
// one RawRouter at load 1.0 with 64 B packets to uniform destinations
// (Arg 64, per-packet work and crossbar denials) or 1,024 B packets to
// permutation destinations (Arg 1024, word streaming). One iteration runs
// 20,000 cycles; ns_per_cycle divides wall time by the simulated cycles.
void BM_RouterCycle(benchmark::State& state) {
  const auto bytes = static_cast<raw::common::ByteCount>(state.range(0));
  raw::net::TrafficConfig traffic;
  traffic.num_ports = 4;
  traffic.pattern = bytes >= 1024 ? raw::net::DestPattern::kPermutation
                                  : raw::net::DestPattern::kUniform;
  traffic.fixed_bytes = bytes;
  traffic.load = 1.0;
  raw::router::RawRouter router(raw::router::RouterConfig{},
                                raw::net::RouteTable::simple4(), traffic, 1);
  constexpr raw::common::Cycle kCycles = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.run(kCycles));
  }
  state.counters["ns_per_cycle"] = benchmark::Counter(
      static_cast<double>(kCycles) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["delivered"] =
      static_cast<double>(router.delivered_packets());
}
BENCHMARK(BM_RouterCycle)
    ->ArgName("bytes")
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The host line-card layer alone: an InputLineCard at load 1.0 feeding an
// OutputLineCard through one edge channel of a bare 1x1 chip (no switch
// program reads it), 64 B or 1,024 B packets. The hop matrix expects no TTL
// decrement, so every packet validates. One iteration runs 10,000 cycles;
// ns_per_word divides wall time by the words the output card received.
void BM_LineCardLoopback(benchmark::State& state) {
  const auto bytes = static_cast<raw::common::ByteCount>(state.range(0));
  raw::sim::ChipConfig cfg;
  cfg.shape = raw::sim::GridShape{1, 1};
  raw::sim::Chip chip(cfg);
  raw::net::TrafficConfig traffic;
  traffic.num_ports = 1;
  traffic.fixed_bytes = bytes;
  traffic.load = 1.0;
  raw::net::TrafficGen gen(traffic, 1);
  raw::router::PacketLedger ledger;
  std::uint64_t next_uid = 1;
  const std::vector<std::vector<int>> no_hops{{0}};
  raw::sim::Channel* edge = chip.io_port(0, 0, raw::sim::Dir::kWest).to_chip;
  raw::router::InputLineCard in(edge, 0, &gen, &ledger, &next_uid, 1 << 16);
  raw::router::OutputLineCard out(edge, 0, &ledger, &no_hops);
  chip.add_device(&in);
  chip.add_device(&out);
  constexpr int kCycles = 10000;
  for (auto _ : state) {
    chip.run(kCycles);
  }
  if (out.errors() != 0 || out.delivered_packets() == 0) {
    state.SkipWithError("loopback packets failed validation");
    return;
  }
  const auto words = static_cast<double>(
      out.delivered_packets() * raw::common::words_for_bytes(bytes));
  state.counters["ns_per_word"] = benchmark::Counter(
      words, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LineCardLoopback)->ArgName("bytes")->Arg(64)->Arg(1024);

// One channel on a bare engine clock with a writer and a reader every cycle:
// the per-word cost of the link itself, its dirty-list commit included.
// Arg(0) is a bare channel, Arg(1) one with link protection (the
// reliable-link codec on every word, no faults).
void BM_ChannelStream(benchmark::State& state) {
  raw::sim::EngineState engine;
  raw::sim::Channel ch(engine, "stream");
  if (state.range(0) != 0) ch.enable_link_protection({});
  raw::common::Word next = 0;
  std::uint64_t words = 0;
  constexpr int kCycles = 1000;
  for (auto _ : state) {
    for (int c = 0; c < kCycles; ++c) {
      if (ch.can_read()) {
        benchmark::DoNotOptimize(ch.read());
        ++words;
      }
      if (ch.can_write()) ch.write(next++);
      (void)engine.commit_dirty();
      ++engine.now;
    }
  }
  state.counters["ns_per_word"] = benchmark::Counter(
      static_cast<double>(words),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChannelStream)->Arg(0)->Arg(1);

// A 4x4 dynamic network on a bare engine clock under random 4-word
// messages: one iteration is one cycle (route, commit, eject).
void BM_DynNetworkRandomTraffic(benchmark::State& state) {
  raw::sim::EngineState engine;
  raw::sim::DynamicNetwork net(engine, raw::sim::GridShape{4, 4});
  Rng rng(9);
  const std::array<raw::common::Word, 4> payload{1, 2, 3, 4};
  for (auto _ : state) {
    const int src = static_cast<int>(rng.below(16));
    if (net.can_inject(src, 4)) {
      net.inject(src, static_cast<int>(rng.below(16)), payload);
    }
    net.step();
    (void)engine.commit_dirty();
    ++engine.now;
    for (int t = 0; t < 16; ++t) {
      while (net.has_eject(t)) benchmark::DoNotOptimize(net.pop_eject(t));
    }
  }
}
BENCHMARK(BM_DynNetworkRandomTraffic);

}  // namespace

BENCHMARK_MAIN();
