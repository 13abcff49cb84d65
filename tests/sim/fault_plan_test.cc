#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace_event.h"
#include "sim/chip.h"

namespace raw::sim {
namespace {

std::shared_ptr<const SwitchProgram> prog(const std::string& text) {
  std::string error;
  SwitchProgram p = assemble(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return std::make_shared<const SwitchProgram>(std::move(p));
}

// Streams a fixed word sequence into an edge port.
class SourceDevice : public Device {
 public:
  SourceDevice(Channel* to_chip, std::vector<common::Word> words)
      : to_chip_(to_chip), words_(std::move(words)) {}

  void step(Chip&) override {
    if (next_ < words_.size() && to_chip_->can_write()) {
      to_chip_->write(words_[next_++]);
    }
  }

 private:
  Channel* to_chip_;
  std::vector<common::Word> words_;
  std::size_t next_ = 0;
};

// Drains an edge port, recording arrival cycles.
class SinkDevice : public Device {
 public:
  explicit SinkDevice(Channel* from_chip) : from_chip_(from_chip) {}

  void step(Chip& chip) override {
    if (from_chip_->can_read()) {
      received_.push_back(from_chip_->read());
      arrival_cycles_.push_back(chip.cycle());
    }
  }

  [[nodiscard]] const std::vector<common::Word>& received() const {
    return received_;
  }
  [[nodiscard]] const std::vector<common::Cycle>& arrivals() const {
    return arrival_cycles_;
  }

 private:
  Channel* from_chip_;
  std::vector<common::Word> received_;
  std::vector<common::Cycle> arrival_cycles_;
};

// A chip streaming `payload` across row 1 (tiles 4..7, west to east) with a
// fault plan attached before the first cycle.
struct RowStream {
  explicit RowStream(std::vector<common::Word> payload, FaultPlan* plan = nullptr) {
    for (int t : {4, 5, 6, 7}) {
      chip.tile(t).switch_proc().load(prog("loop: jump loop | W>E"));
    }
    src = std::make_unique<SourceDevice>(chip.io_port(0, 4, Dir::kWest).to_chip,
                                         std::move(payload));
    sink = std::make_unique<SinkDevice>(chip.io_port(0, 7, Dir::kEast).from_chip);
    chip.add_device(src.get());
    chip.add_device(sink.get());
    if (plan != nullptr) chip.set_fault_plan(plan);
  }

  Chip chip;
  std::unique_ptr<SourceDevice> src;
  std::unique_ptr<SinkDevice> sink;
};

std::vector<common::Word> iota_payload(common::Word n) {
  std::vector<common::Word> p;
  for (common::Word i = 0; i < n; ++i) p.push_back(i + 1);
  return p;
}

FaultEvent flip(common::Cycle at, std::string channel, std::uint32_t bit = 0) {
  FaultEvent e;
  e.kind = FaultKind::kBitFlip;
  e.at = at;
  e.channel = std::move(channel);
  e.bit = bit;
  return e;
}

FaultEvent stall(common::Cycle at, std::string channel, std::uint64_t duration) {
  FaultEvent e;
  e.kind = FaultKind::kLinkStall;
  e.at = at;
  e.channel = std::move(channel);
  e.duration = duration;
  return e;
}

FaultEvent freeze(common::Cycle at, int tile, std::uint64_t duration,
                  bool permanent = false) {
  FaultEvent e;
  e.kind = FaultKind::kTileFreeze;
  e.at = at;
  e.tile = tile;
  e.duration = duration;
  e.permanent = permanent;
  return e;
}

FaultEvent overrun(common::Cycle at, int port, std::uint64_t duration,
                   std::uint32_t factor) {
  FaultEvent e;
  e.kind = FaultKind::kOverrun;
  e.at = at;
  e.port = port;
  e.duration = duration;
  e.factor = factor;
  return e;
}

TEST(FaultPlanTest, KindNames) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kBitFlip), "bit_flip");
  EXPECT_STREQ(fault_kind_name(FaultKind::kLinkStall), "link_stall");
  EXPECT_STREQ(fault_kind_name(FaultKind::kTileFreeze), "tile_freeze");
  EXPECT_STREQ(fault_kind_name(FaultKind::kOverrun), "overrun");
}

TEST(FaultPlanTest, BitFlipCorruptsExactlyOneWord) {
  const std::vector<common::Word> payload = iota_payload(32);
  FaultPlan plan;
  Chip probe;  // only used to learn the edge channel's name
  const std::string edge = probe.io_port(0, 4, Dir::kWest).to_chip->name();
  plan.add(flip(20, edge, 7));

  RowStream s(payload, &plan);
  s.chip.run(200);

  EXPECT_EQ(plan.bit_flips_applied(), 1u);
  EXPECT_EQ(plan.bit_flips_missed(), 0u);
  ASSERT_EQ(s.sink->received().size(), payload.size());
  int damaged = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (s.sink->received()[i] != payload[i]) {
      ++damaged;
      EXPECT_EQ(s.sink->received()[i], payload[i] ^ (1u << 7));
    }
  }
  EXPECT_EQ(damaged, 1);
}

TEST(FaultPlanTest, BitFlipOnEmptyChannelIsCountedAsMissed) {
  FaultPlan plan;
  Chip chip;
  const std::string edge = chip.io_port(0, 4, Dir::kWest).to_chip->name();
  plan.add(flip(5, edge));
  chip.set_fault_plan(&plan);
  chip.run(20);  // nothing ever writes the channel
  EXPECT_EQ(plan.bit_flips_applied(), 0u);
  EXPECT_EQ(plan.bit_flips_missed(), 1u);
  EXPECT_EQ(plan.fired(), 1u);
}

TEST(FaultPlanTest, LinkStallDelaysButDoesNotDamage) {
  const std::vector<common::Word> payload = iota_payload(32);
  RowStream clean(payload);
  clean.chip.run(300);
  ASSERT_EQ(clean.sink->received().size(), payload.size());
  const common::Cycle clean_last = clean.sink->arrivals().back();

  FaultPlan plan;
  Chip probe;
  const std::string edge = probe.io_port(0, 4, Dir::kWest).to_chip->name();
  plan.add(stall(10, edge, 40));
  RowStream stalled(payload, &plan);
  stalled.chip.run(300);

  EXPECT_EQ(plan.link_stalls(), 1u);
  ASSERT_EQ(stalled.sink->received().size(), payload.size());
  EXPECT_EQ(stalled.sink->received(), payload);  // delayed, never corrupted
  EXPECT_GE(stalled.sink->arrivals().back(), clean_last + 30);
}

TEST(FaultPlanTest, TransientTileFreezeThaws) {
  const std::vector<common::Word> payload = iota_payload(48);
  FaultPlan plan;
  plan.add(freeze(12, 5, 50));
  EXPECT_FALSE(plan.has_permanent_fault());

  RowStream s(payload, &plan);
  s.chip.run(8);
  EXPECT_FALSE(plan.tile_frozen(5));
  s.chip.run(8);  // now past cycle 12
  EXPECT_TRUE(plan.tile_frozen(5));
  EXPECT_FALSE(plan.tile_frozen(6));
  s.chip.run(300);
  EXPECT_FALSE(plan.tile_frozen(5));  // thawed

  EXPECT_EQ(plan.tile_freezes(), 1u);
  EXPECT_EQ(plan.frozen_tile_cycles(), 50u);
  // The stream stalls during the window but completes unharmed after it.
  EXPECT_EQ(s.sink->received(), payload);
}

TEST(FaultPlanTest, PermanentFreezeStopsTheStream) {
  const std::vector<common::Word> payload = iota_payload(64);
  FaultPlan plan;
  plan.add(freeze(30, 6, 1, /*permanent=*/true));
  EXPECT_TRUE(plan.has_permanent_fault());

  RowStream s(payload, &plan);
  s.chip.run(1000);
  EXPECT_TRUE(plan.tile_frozen(6));
  EXPECT_LT(s.sink->received().size(), payload.size());
  // Whatever got through before the freeze is intact.
  for (std::size_t i = 0; i < s.sink->received().size(); ++i) {
    EXPECT_EQ(s.sink->received()[i], payload[i]);
  }
}

TEST(FaultPlanTest, FrozenTileStopsAdvancingProgress) {
  // With every row-1 switch frozen permanently, nothing moves after the
  // freeze cycle, so the chip's last_progress_cycle stops advancing — the
  // raw signal the router watchdog trips on.
  FaultPlan plan;
  for (int t : {4, 5, 6, 7}) {
    plan.add(freeze(40, t, 1, /*permanent=*/true));
  }
  RowStream s(iota_payload(200), &plan);
  s.chip.run(500);
  EXPECT_LT(s.chip.last_progress_cycle(), 60u);
  EXPECT_EQ(s.chip.cycle(), 500u);
}

TEST(FaultPlanTest, OverrunFactorWindows) {
  FaultPlan plan;
  plan.add(overrun(10, 2, 20, 4));
  Chip chip;
  chip.set_fault_plan(&plan, /*num_ports=*/4);
  chip.run(5);
  EXPECT_EQ(plan.overrun_factor(2, chip.cycle()), 1u);  // not yet fired
  chip.run(10);
  EXPECT_EQ(plan.overrun_factor(2, chip.cycle()), 4u);
  EXPECT_EQ(plan.overrun_factor(0, chip.cycle()), 1u);  // other port untouched
  chip.run(30);
  EXPECT_EQ(plan.overrun_factor(2, chip.cycle()), 1u);  // window expired
  EXPECT_EQ(plan.overrun_bursts(), 1u);
}

TEST(FaultPlanTest, FreezeWindowsStepSparse) {
  // Every fault is exact under sparse stepping: flips and stalls wake the
  // mutated channel's parked agents, and a frozen tile is skipped. Neither
  // the freeze window nor the cycle it fires in steps the chip densely.
  FaultPlan plan;
  Chip probe;
  const std::string edge = probe.io_port(0, 4, Dir::kWest).to_chip->name();
  plan.add(flip(10, edge));
  plan.add(freeze(100, 5, 20));
  Chip chip;
  common::Profiler prof;
  chip.set_profiler(&prof);
  chip.set_fault_plan(&plan);

  chip.run(110);  // inside the window, which fires at 100
  EXPECT_TRUE(plan.tile_frozen(5));
  EXPECT_FALSE(plan.tile_frozen(4));
  chip.run(40);  // thawed at 120
  EXPECT_EQ(plan.tile_freezes(), 1u);
  EXPECT_FALSE(plan.tile_frozen(5));
  EXPECT_EQ(prof.sparse_cycles(), chip.cycle());
  EXPECT_EQ(prof.dense_sweeps(), 0u);
  EXPECT_TRUE(plan.permanently_frozen_tiles().empty());
}

TEST(FaultPlanTest, PermanentFreezeStepsSparse) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kTileFreeze;
  e.at = 50;
  e.permanent = true;
  e.tile = 5;
  plan.add(e);
  Chip chip;
  common::Profiler prof;
  chip.set_profiler(&prof);
  chip.set_fault_plan(&plan);

  chip.run(49);
  EXPECT_FALSE(plan.tile_frozen(5));
  chip.run(51);
  EXPECT_TRUE(plan.tile_frozen(5));
  EXPECT_EQ(prof.sparse_cycles(), chip.cycle());
  EXPECT_EQ(prof.dense_sweeps(), 0u);
  EXPECT_EQ(plan.permanently_frozen_tiles(), std::vector<int>{5});
}

/// The std::invalid_argument message binding `plan` to `chip` throws, or ""
/// when it binds.
std::string chip_bind_error(FaultPlan plan, int num_ports = 4) {
  Chip chip;
  try {
    chip.set_fault_plan(&plan, num_ports);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(chip.fault_plan(), nullptr);  // a bad plan is never attached
    return e.what();
  }
  chip.set_fault_plan(nullptr);
  return "";
}

std::string fabric_bind_error(FaultPlan plan, std::size_t links = 6,
                              int chips = 4) {
  try {
    plan.bind(links, chips);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

FaultEvent on_link(FaultKind kind, int link, bool permanent = false) {
  FaultEvent e;
  e.kind = kind;
  e.at = 7;
  e.link = link;
  e.permanent = permanent;
  return e;
}

FaultEvent chip_freeze(int chip) {
  FaultEvent e;
  e.kind = FaultKind::kTileFreeze;
  e.at = 9;
  e.chip = chip;
  e.permanent = true;
  return e;
}

TEST(FaultPlanTest, UnknownChannelNameThrows) {
  FaultPlan plan;
  plan.add(flip(1, "no.such.channel"));
  const std::string why = chip_bind_error(plan);
  EXPECT_NE(why.find("unknown channel 'no.such.channel'"), std::string::npos)
      << why;
  EXPECT_NE(why.find("fault event 0 (bit_flip at cycle 1)"), std::string::npos)
      << why;
}

TEST(FaultPlanTest, ChipBindChecksEveryTarget) {
  const std::string edge = Chip().io_port(0, 4, Dir::kWest).to_chip->name();
  const auto error_of = [](FaultEvent e, int ports = 4) {
    return chip_bind_error(FaultPlan({std::move(e)}), ports);
  };
  // Valid chip targets bind.
  EXPECT_EQ(error_of(flip(1, edge)), "");
  EXPECT_EQ(error_of(stall(1, edge, 8)), "");
  EXPECT_EQ(error_of(freeze(1, 15, 8)), "");
  EXPECT_EQ(error_of(freeze(1, 0, 1, /*permanent=*/true)), "");
  EXPECT_EQ(error_of(overrun(1, 3, 8, 4)), "");

  // Out of range: a tile off the grid, a port the router does not have.
  EXPECT_NE(error_of(freeze(1, 16, 8)).find("tiles 0..15"), std::string::npos);
  EXPECT_NE(error_of(overrun(1, 4, 8, 4)).find("ports 0..3"), std::string::npos);
  EXPECT_NE(error_of(overrun(1, 0, 8, 4), /*ports=*/0).find("no ports"),
            std::string::npos);
  // The other tier's targets.
  for (const FaultEvent& e :
       {on_link(FaultKind::kBitFlip, 0), on_link(FaultKind::kLinkStall, 0),
        on_link(FaultKind::kLinkStall, 0, /*permanent=*/true), chip_freeze(0)}) {
    EXPECT_NE(error_of(e).find("bound to one chip"), std::string::npos)
        << fault_kind_name(e.kind);
  }
  // Malformed events: no target, two targets, a target the kind does not
  // take, a permanent window only a link or a freeze can have, a zero-cycle
  // transient stall.
  FaultEvent none;
  EXPECT_NE(error_of(none).find("exactly one target"), std::string::npos);
  FaultEvent two = flip(1, edge);
  two.tile = 3;
  EXPECT_NE(error_of(two).find("exactly one target"), std::string::npos);
  FaultEvent flip_tile;
  flip_tile.tile = 3;
  EXPECT_NE(error_of(flip_tile).find("cannot target a tile"), std::string::npos);
  FaultEvent freeze_channel = flip(1, edge);
  freeze_channel.kind = FaultKind::kTileFreeze;
  EXPECT_NE(error_of(freeze_channel).find("cannot target a channel"),
            std::string::npos);
  FaultEvent overrun_tile = freeze(1, 3, 8);
  overrun_tile.kind = FaultKind::kOverrun;
  EXPECT_NE(error_of(overrun_tile).find("cannot target a tile"),
            std::string::npos);
  FaultEvent forever = stall(1, edge, 8);
  forever.permanent = true;
  EXPECT_NE(error_of(forever).find("cannot be permanent"), std::string::npos);
  EXPECT_NE(error_of(stall(1, edge, 0)).find("zero-cycle"), std::string::npos);
}

TEST(FaultPlanTest, FabricBindChecksEveryTarget) {
  // A fabric of 6 unidirectional links and 4 chips.
  const auto error_of = [](FaultEvent e) {
    return fabric_bind_error(FaultPlan({std::move(e)}));
  };
  EXPECT_EQ(error_of(on_link(FaultKind::kBitFlip, 5)), "");
  EXPECT_EQ(error_of(on_link(FaultKind::kLinkStall, 0)), "");
  EXPECT_EQ(error_of(on_link(FaultKind::kLinkStall, 0, /*permanent=*/true)), "");
  EXPECT_EQ(error_of(chip_freeze(3)), "");

  EXPECT_NE(error_of(on_link(FaultKind::kBitFlip, 6)).find("links 0..5"),
            std::string::npos);
  EXPECT_NE(error_of(chip_freeze(4)).find("chips 0..3"), std::string::npos);
  // The chip tier's targets.
  for (const FaultEvent& e : {flip(1, "net0.tile4.W.in"), freeze(1, 5, 8),
                              overrun(1, 0, 8, 4)}) {
    EXPECT_NE(error_of(e).find("bound to a fabric"), std::string::npos)
        << fault_kind_name(e.kind);
  }
  FaultEvent mortal = chip_freeze(1);
  mortal.permanent = false;
  EXPECT_NE(error_of(mortal).find("always permanent"), std::string::npos);
  FaultEvent blink = on_link(FaultKind::kLinkStall, 2);
  blink.duration = 0;
  EXPECT_NE(error_of(blink).find("zero-cycle duration"), std::string::npos);
  FaultEvent overrun_link = on_link(FaultKind::kOverrun, 2);
  EXPECT_NE(error_of(overrun_link).find("cannot target a link"),
            std::string::npos);
}

TEST(FaultPlanTest, FireDueCountsEveryFabricOutcome) {
  // The fabric path: due events come out in schedule order at a barrier,
  // the caller applies them, and the plan counts what happened.
  FaultPlan plan({chip_freeze(2), on_link(FaultKind::kBitFlip, 0),
                  on_link(FaultKind::kBitFlip, 1),
                  on_link(FaultKind::kLinkStall, 2),
                  on_link(FaultKind::kLinkStall, 3, /*permanent=*/true)});
  plan.add(on_link(FaultKind::kLinkStall, 4));
  FaultEvent late = on_link(FaultKind::kBitFlip, 4);
  late.at = 100;
  plan.add(late);
  EXPECT_TRUE(plan.has_permanent_fault());
  plan.bind(6, 4);

  std::vector<int> applied_links;
  plan.fire_due(16, [&](const FaultEvent& e) {
    applied_links.push_back(e.link);
    return e.link != 1;  // link 1 carried no word to corrupt
  });
  EXPECT_EQ(applied_links, (std::vector<int>{0, 1, 2, 3, 4, -1}));
  plan.fire_due(32, [](const FaultEvent&) { return true; });  // none due
  EXPECT_EQ(plan.fired(), 6u);
  plan.fire_due(100, [](const FaultEvent&) { return true; });

  common::MetricRegistry reg;
  plan.export_metrics(reg, "cluster/faults");
  EXPECT_EQ(reg.counter_value("cluster/faults/injected"), 7u);
  EXPECT_EQ(reg.counter_value("cluster/faults/bit_flips"), 2u);
  EXPECT_EQ(reg.counter_value("cluster/faults/bit_flips_missed"), 1u);
  EXPECT_EQ(reg.counter_value("cluster/faults/link_stalls"), 2u);
  EXPECT_EQ(reg.counter_value("cluster/faults/link_cuts"), 1u);
  EXPECT_EQ(reg.counter_value("cluster/faults/chip_freezes"), 1u);
  EXPECT_EQ(reg.counter_value("cluster/faults/tile_freezes"), 0u);
}

TEST(FaultPlanTest, EventCodecRoundTripsEveryKindAndTarget) {
  FaultEvent permanent_tile = freeze(30, 6, 1, /*permanent=*/true);
  FaultEvent flip_link = on_link(FaultKind::kBitFlip, 4);
  flip_link.bit = 13;
  FaultEvent stall_link = on_link(FaultKind::kLinkStall, 1);
  stall_link.duration = 300;
  const std::vector<FaultEvent> events = {
      flip(20, "net1.tile2.N.out", 31),
      stall(21, "net0.tile4.W.in", 40),
      freeze(22, 5, 50),
      permanent_tile,
      overrun(23, 2, 2000, 8),
      flip_link,
      stall_link,
      on_link(FaultKind::kLinkStall, 0, /*permanent=*/true),
      chip_freeze(3),
  };
  for (const FaultEvent& e : events) {
    std::string text;
    append_fault_event(text, e);
    common::json::Parser p{text};
    FaultEvent parsed;
    std::string error;
    ASSERT_TRUE(p.finish(parse_fault_event(p, &parsed), &error)) << error;
    EXPECT_EQ(parsed, e) << text;
  }
}

TEST(FaultPlanTest, ReaderMapsClusterV1KindNames) {
  // Cluster bundles of schema v1 spelled link and chip events apart.
  const auto read = [](const std::string& text) {
    common::json::Parser p{text};
    FaultEvent e;
    EXPECT_TRUE(parse_fault_event(p, &e)) << p.err;
    return e;
  };
  FaultEvent e = read(R"({"kind": "trunk_corrupt", "at": 11, "duration": 1,
                          "link": 4, "chip": -1, "bit": 13})");
  EXPECT_EQ(e.kind, FaultKind::kBitFlip);
  EXPECT_EQ(e.link, 4);
  EXPECT_EQ(e.bit, 13u);
  EXPECT_FALSE(e.permanent);
  e = read(R"({"kind": "trunk_stall", "at": 11, "duration": 90, "link": 2})");
  EXPECT_EQ(e.kind, FaultKind::kLinkStall);
  EXPECT_EQ(e.duration, 90u);
  EXPECT_FALSE(e.permanent);
  e = read(R"({"kind": "trunk_cut", "at": 29, "duration": 1, "link": 1})");
  EXPECT_EQ(e.kind, FaultKind::kLinkStall);
  EXPECT_EQ(e.link, 1);
  EXPECT_TRUE(e.permanent);
  e = read(R"({"kind": "chip_freeze", "at": 40, "link": -1, "chip": 2})");
  EXPECT_EQ(e.kind, FaultKind::kTileFreeze);
  EXPECT_EQ(e.chip, 2);
  EXPECT_TRUE(e.permanent);
  EXPECT_EQ(fabric_bind_error(FaultPlan({e})), "");

  common::json::Parser p{R"({"kind": "meteor", "at": 1})"};
  FaultEvent bad;
  EXPECT_FALSE(parse_fault_event(p, &bad));
  EXPECT_EQ(p.err, "unknown fault kind");
}

TEST(FaultPlanTest, EmptyPlanIsByteIdenticalToNoPlan) {
  const std::vector<common::Word> payload = iota_payload(64);
  RowStream bare(payload);
  bare.chip.run(250);

  FaultPlan empty;
  RowStream hooked(payload, &empty);
  hooked.chip.run(250);

  EXPECT_EQ(bare.sink->received(), hooked.sink->received());
  EXPECT_EQ(bare.sink->arrivals(), hooked.sink->arrivals());
  EXPECT_EQ(bare.chip.static_words_transferred(),
            hooked.chip.static_words_transferred());
  EXPECT_EQ(empty.fired(), 0u);
}

TEST(FaultPlanTest, ExportsMetricsAndTracesFaults) {
  FaultPlan plan;
  Chip probe;
  const std::string edge = probe.io_port(0, 4, Dir::kWest).to_chip->name();
  plan.add(flip(15, edge));
  plan.add(freeze(20, 5, 10));
  common::PacketTracer tracer;
  tracer.enable(64);
  plan.set_tracer(&tracer);

  RowStream s(iota_payload(16), &plan);
  s.chip.run(200);

  common::MetricRegistry reg;
  plan.export_metrics(reg);
  EXPECT_EQ(reg.counter_value("faults/injected"), 2u);
  EXPECT_EQ(reg.counter_value("faults/bit_flips"), 1u);
  EXPECT_EQ(reg.counter_value("faults/tile_freezes"), 1u);

  // One instant tracer event per fired fault, on the fault track.
  std::size_t fault_events = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.event == common::PacketEvent::kFault) {
      ++fault_events;
      EXPECT_EQ(ev.track, kFaultTrack);
    }
  }
  EXPECT_EQ(fault_events, 2u);
}

}  // namespace
}  // namespace raw::sim
