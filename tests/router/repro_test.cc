// Record / replay / minimize tests (router/repro.h): JSON round-trips, the
// replay path is digest-stable across engines and across bundle formats,
// and ddmin shrinks a mixed fault schedule to the one event that matters.
#include "router/repro.h"

#include <stdexcept>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "cluster/chaos.h"
#include "router/chaos.h"
#include "sim/fault_plan.h"

namespace raw::router {
namespace {

ChaosRepro sample_repro() {
  ChaosRepro repro;
  repro.spec.seed = 42;
  repro.spec.mix = ChaosMix{.bitflips = true, .permanent_freeze = true};
  repro.spec.run_cycles = 12345;
  repro.spec.drain_cycles = 67890;
  repro.spec.faults_per_kind = 3;
  repro.spec.bytes = 512;
  repro.spec.load = 0.75;
  repro.spec.reliable_links = true;
  repro.spec.recovery = true;
  repro.spec.force_dense = true;

  sim::FaultEvent flip;
  flip.kind = sim::FaultKind::kBitFlip;
  flip.at = 100;
  flip.channel = "net0.t4.edge_in";
  flip.bit = 17;
  repro.events.push_back(flip);

  sim::FaultEvent stall;
  stall.kind = sim::FaultKind::kLinkStall;
  stall.at = 200;
  stall.channel = "net0.t5.E";
  stall.duration = 64;
  repro.events.push_back(stall);

  sim::FaultEvent freeze;
  freeze.kind = sim::FaultKind::kTileFreeze;
  freeze.at = 300;
  freeze.permanent = true;
  freeze.tile = 6;
  repro.events.push_back(freeze);

  sim::FaultEvent overrun;
  overrun.kind = sim::FaultKind::kOverrun;
  overrun.at = 400;
  overrun.port = 2;
  overrun.duration = 32;
  overrun.factor = 3;
  repro.events.push_back(overrun);

  repro.signature.pass = false;
  repro.signature.category = "conservation violated";
  repro.signature.outcome = DrainOutcome::kStalled;
  repro.signature.stalled_in_run = true;
  repro.signature.degraded = true;
  repro.signature.stall_tile = 6;
  repro.digest = 0xdeadbeefcafef00dull;
  return repro;
}

TEST(ReproJsonTest, RoundTrip) {
  ChaosRepro original = sample_repro();
  // Every escape the writer emits, a \u00XX control character included.
  original.failure = "quote\" back\\ nl\n tab\t cr\r bell\x07";
  ChaosRepro parsed;
  std::string error;
  ASSERT_TRUE(from_json(to_json(original), &parsed, &error)) << error;

  EXPECT_EQ(parsed.spec.seed, original.spec.seed);
  EXPECT_EQ(parsed.spec.mix.name(), original.spec.mix.name());
  EXPECT_EQ(parsed.spec.run_cycles, original.spec.run_cycles);
  EXPECT_EQ(parsed.spec.drain_cycles, original.spec.drain_cycles);
  EXPECT_EQ(parsed.spec.faults_per_kind, original.spec.faults_per_kind);
  EXPECT_EQ(parsed.spec.bytes, original.spec.bytes);
  EXPECT_DOUBLE_EQ(parsed.spec.load, original.spec.load);
  EXPECT_EQ(parsed.spec.reliable_links, original.spec.reliable_links);
  EXPECT_EQ(parsed.spec.recovery, original.spec.recovery);
  EXPECT_EQ(parsed.spec.force_dense, original.spec.force_dense);
  EXPECT_EQ(parsed.signature, original.signature);
  EXPECT_EQ(parsed.digest, original.digest);
  EXPECT_EQ(parsed.failure, original.failure);

  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const sim::FaultEvent& a = parsed.events[i];
    const sim::FaultEvent& b = original.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.duration, b.duration) << i;
    EXPECT_EQ(a.permanent, b.permanent) << i;
    EXPECT_EQ(a.channel, b.channel) << i;
    EXPECT_EQ(a.tile, b.tile) << i;
    EXPECT_EQ(a.port, b.port) << i;
    EXPECT_EQ(a.bit, b.bit) << i;
    EXPECT_EQ(a.factor, b.factor) << i;
  }
}

// The v2 schema additions (endurance spec, full-width seeds, replay
// anchors, failure/soak metadata) must survive a round trip, and a v1-era
// document with none of them must still parse.
TEST(ReproJsonTest, RoundTripV2EnduranceFields) {
  ChaosRepro original = sample_repro();
  // Full 64-bit seed: splitmix64-derived soak seeds exceed a double's
  // 53-bit mantissa, so the parser must keep the low bits exact.
  original.spec.seed = 0xBCA9D3FE01234567ull;
  original.spec.traffic_profile = "pareto";
  original.spec.inject_invariant_failure_at = 123456;
  original.spec.endurance.enabled = true;
  original.spec.endurance.invariant_cadence = 4096;
  original.spec.endurance.checkpoint_interval = 65536;
  original.spec.endurance.checkpoint_ring = 3;
  original.failure = "router/conservation: off by 1";
  original.failure_cycle = 98304;
  original.soak_epoch = 7;
  original.soak_start_cycle = 28'000'000;
  original.anchors = {{32768, 0xAAAAAAAAAAAAAAAAull, 0x1111111111111111ull},
                      {65536, 0xBBBBBBBBBBBBBBBBull, 0x2222222222222222ull}};

  ChaosRepro parsed;
  std::string error;
  ASSERT_TRUE(from_json(to_json(original), &parsed, &error)) << error;

  EXPECT_EQ(parsed.spec.seed, original.spec.seed);
  EXPECT_EQ(parsed.spec.traffic_profile, "pareto");
  EXPECT_EQ(parsed.spec.inject_invariant_failure_at, 123456u);
  EXPECT_TRUE(parsed.spec.endurance.enabled);
  EXPECT_EQ(parsed.spec.endurance.invariant_cadence, 4096u);
  EXPECT_EQ(parsed.spec.endurance.checkpoint_interval, 65536u);
  EXPECT_EQ(parsed.spec.endurance.checkpoint_ring, 3u);
  EXPECT_EQ(parsed.failure, original.failure);
  EXPECT_EQ(parsed.failure_cycle, original.failure_cycle);
  EXPECT_EQ(parsed.soak_epoch, 7);
  EXPECT_EQ(parsed.soak_start_cycle, 28'000'000u);
  EXPECT_EQ(parsed.anchors, original.anchors);
}

TEST(ReproJsonTest, V1DocumentWithoutV2FieldsStillParses) {
  const char* v1 =
      "{\n"
      "  \"spec\": {\"seed\": 42, \"mix\": \"flip\", \"run_cycles\": 1000,"
      " \"drain_cycles\": 2000, \"faults_per_kind\": 1, \"bytes\": 256,"
      " \"load\": 0.9, \"threads\": 0, \"reliable_links\": false,"
      " \"recovery\": false, \"force_dense\": false},\n"
      "  \"signature\": {\"pass\": true, \"category\": \"\","
      " \"outcome\": \"drained\", \"stalled_in_run\": false,"
      " \"degraded\": false, \"stall_tile\": -1},\n"
      "  \"digest\": \"0xabc\",\n"
      "  \"events\": []\n"
      "}\n";
  ChaosRepro parsed;
  std::string error;
  ASSERT_TRUE(from_json(v1, &parsed, &error)) << error;
  EXPECT_EQ(parsed.spec.seed, 42u);
  EXPECT_FALSE(parsed.spec.endurance.enabled);
  EXPECT_TRUE(parsed.spec.traffic_profile.empty());
  EXPECT_TRUE(parsed.anchors.empty());
  EXPECT_TRUE(parsed.failure.empty());
  EXPECT_EQ(parsed.soak_epoch, -1);
}

TEST(ReproJsonTest, RejectsMalformedInput) {
  ChaosRepro out;
  std::string error;
  EXPECT_FALSE(from_json("", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(from_json("{\"spec\": {", &out, &error));
  EXPECT_FALSE(from_json("{\"spec\": {\"mix\": \"no_such_kind\"}}", &out, &error));
  EXPECT_EQ(error, "unknown mix name");
  EXPECT_FALSE(
      from_json("{\"events\": [{\"kind\": \"meteor_strike\"}]}", &out, &error));
  EXPECT_EQ(error, "unknown fault kind");
  EXPECT_FALSE(from_json("{\"version\": 3, \"events\": []}", &out, &error));
  EXPECT_EQ(error, "unknown chip bundle version 3");
  // Integers are read exactly or not at all.
  EXPECT_FALSE(from_json("{\"spec\": {\"seed\": 1.5}}", &out, &error));
  EXPECT_FALSE(from_json("{\"spec\": {\"seed\": -1}}", &out, &error));
}

TEST(ReproJsonTest, SignatureToStringNamesTheShape) {
  ChaosSignature sig;
  EXPECT_EQ(sig.to_string(), "pass outcome=drained");
  sig.pass = false;
  sig.category = "conservation violated";
  sig.outcome = DrainOutcome::kStalled;
  sig.stalled_in_run = true;
  sig.stall_tile = 6;
  EXPECT_EQ(sig.to_string(),
            "FAIL(conservation violated) outcome=stalled stalled_in_run "
            "frozen_tile=6");
}

// A chip bundle in an older format: its spec carries "threads": 2 and its
// endurance block a capture-deferral key later builds dropped; the reader
// skips both. Its digest was recorded by a 2-worker run, and a serial
// replay must reproduce it.
constexpr const char* kBundleWithThreads = R"({
  "version": 2,
  "spec": {"seed": 23, "mix": "flip+stall", "run_cycles": 6000, "drain_cycles": 400000, "faults_per_kind": 6, "bytes": 256, "load": 0.90000000000000002, "threads": 2, "reliable_links": false, "recovery": false, "force_dense": false, "traffic_profile": "", "inject_invariant_failure_at": 0, "endurance": {"enabled": false, "invariant_cadence": 16384, "checkpoint_interval": 524288, "checkpoint_ring": 4, "checkpoint_grace": 4096}},
  "signature": {"pass": true, "category": "", "outcome": "drained", "stalled_in_run": false, "degraded": false, "stall_tile": -1},
  "digest": "0xfbd18d5c621be2fb",
  "failure": {"detail": "", "cycle": 0},
  "soak": {"epoch": -1, "start_cycle": 0},
  "anchors": [
  ],
  "events": [
    {"kind": "bit_flip", "at": 785, "duration": 1, "permanent": false, "channel": "net1.tile11.E.in", "tile": -1, "port": -1, "bit": 15, "factor": 4},
    {"kind": "bit_flip", "at": 1175, "duration": 1, "permanent": false, "channel": "net1.tile7.E.in", "tile": -1, "port": -1, "bit": 17, "factor": 4},
    {"kind": "link_stall", "at": 2706, "duration": 24, "permanent": false, "channel": "net2.tile15.S.out", "tile": -1, "port": -1, "bit": 0, "factor": 4},
    {"kind": "link_stall", "at": 2413, "duration": 124, "permanent": false, "channel": "net1.tile12.N.out", "tile": -1, "port": -1, "bit": 0, "factor": 4}
  ]
}
)";

TEST(ReproReplayTest, DigestStableAcrossEnginesAndThreads) {
  // The record/replay contract: the same (spec, events) pair reproduces the
  // same state digest under the sparse engine and the dense reference
  // engine — for a freshly generated schedule, for a bundle recorded in
  // the older format by a run with "threads": 2, and for a
  // flip+permafreeze bundle an earlier build wrote (`rawchaos --mix
  // flip+permafreeze --seed 7 --record`), read through the one loader.
  ChaosSpec spec;
  spec.seed = 23;
  spec.mix = ChaosMix{.bitflips = true, .stalls = true};
  spec.run_cycles = 12000;

  ChaosRepro fresh;
  fresh.spec = spec;
  fresh.events = make_fault_events(spec);
  fresh.digest = run_chaos_events(spec, fresh.events).digest;

  ChaosRepro old_format;
  std::string error;
  ASSERT_TRUE(from_json(kBundleWithThreads, &old_format, &error)) << error;
  ASSERT_EQ(old_format.events.size(), 4u);

  cluster::Repro loaded;
  ASSERT_TRUE(cluster::load_repro(
      RAW_TEST_DATA_DIR "/chip_flip_permafreeze_seed7.json", &loaded, &error))
      << error;
  ASSERT_TRUE(std::holds_alternative<ChaosRepro>(loaded));
  ChaosRepro& recorded = std::get<ChaosRepro>(loaded);
  ASSERT_EQ(recorded.events.size(), 7u);

  for (const ChaosRepro* bundle : {&fresh, &old_format, &recorded}) {
    for (const bool dense : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << bundle->spec.mix.name() << " seed " << bundle->spec.seed
                   << " " << (dense ? "dense" : "sparse"));
      ChaosSpec s = bundle->spec;
      s.force_dense = dense;
      const ChaosResult r = run_chaos_events(s, bundle->events);
      EXPECT_EQ(r.digest, bundle->digest);
      EXPECT_GT(r.delivered, 0u);
    }
  }
  for (const ChaosRepro* bundle : {&old_format, &recorded}) {
    std::string why;
    (void)replay_repro(*bundle, &why);
    EXPECT_EQ(why, "");
  }
}

TEST(ReproReplayTest, BadChipTargetsThrowInsteadOfAborting) {
  // A bundle whose event names a channel, tile or port the router does not
  // have is rejected with std::invalid_argument before the run starts
  // (rawchaos reports it and exits 2) — never an assert, never a run that
  // silently targets nothing.
  cluster::Repro loaded;
  std::string error;
  ASSERT_TRUE(cluster::load_repro(
      RAW_TEST_DATA_DIR "/chip_flip_permafreeze_seed7.json", &loaded, &error))
      << error;
  const ChaosRepro& bundle = std::get<ChaosRepro>(loaded);
  ASSERT_EQ(bundle.events[0].kind, sim::FaultKind::kBitFlip);
  ASSERT_EQ(bundle.events[6].kind, sim::FaultKind::kTileFreeze);

  std::vector<sim::FaultEvent> unknown_channel = bundle.events;
  unknown_channel[0].channel = "net1.tile99.N.out";
  std::vector<sim::FaultEvent> off_grid_tile = bundle.events;
  off_grid_tile[6].tile = 16;
  std::vector<sim::FaultEvent> missing_port = bundle.events;
  missing_port[0] = sim::FaultEvent{};
  missing_port[0].kind = sim::FaultKind::kOverrun;
  missing_port[0].port = kNumPorts;
  for (const auto* events : {&unknown_channel, &off_grid_tile, &missing_port}) {
    EXPECT_THROW((void)run_chaos_events(bundle.spec, *events),
                 std::invalid_argument);
  }
}

TEST(ReproMinimizeTest, BadTargetIsNamedByItsBundleIndex) {
  // ddmin's first subset is events 0-3 and its second 4-6, where event 6 is
  // the subset's event 2; the error must still name event 6, as a replay
  // of the whole bundle does.
  cluster::Repro loaded;
  std::string error;
  ASSERT_TRUE(cluster::load_repro(
      RAW_TEST_DATA_DIR "/chip_flip_permafreeze_seed7.json", &loaded, &error))
      << error;
  ChaosRepro bundle = std::get<ChaosRepro>(loaded);
  bundle.events[6].tile = 16;
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  const std::string replayed = message_of(
      [&] { (void)run_chaos_events(bundle.spec, bundle.events); });
  const std::string minimized = message_of([&] {
    (void)minimize_events(bundle.spec, bundle.events, bundle.signature);
  });
  EXPECT_EQ(replayed.rfind("fault event 6 ", 0), 0u) << replayed;
  EXPECT_EQ(minimized, replayed);
  EXPECT_EQ(message_of([&] { (void)minimize_repro(bundle); }), replayed);
}

TEST(ReproMinimizeTest, FlipPermafreezeShrinksToTheFreeze) {
  // flip+permafreeze schedules six bit flips plus one permanent freeze; the
  // freeze alone reproduces the stall signature, so ddmin must land at one
  // event — well under the <=25% acceptance bound.
  ChaosSpec spec;
  spec.seed = 7;
  spec.mix = ChaosMix{.bitflips = true, .permanent_freeze = true};
  spec.run_cycles = 10000;

  const std::vector<sim::FaultEvent> events = make_fault_events(spec);
  ASSERT_EQ(events.size(), 7u);

  const ChaosSignature target = signature_of(run_chaos_events(spec, events));
  EXPECT_TRUE(target.stalled_in_run ||
              target.outcome == DrainOutcome::kStalled);
  ASSERT_GE(target.stall_tile, 0);

  MinimizeStats stats;
  const std::vector<sim::FaultEvent> minimal =
      minimize_events(spec, events, target, &stats);
  EXPECT_EQ(stats.original_events, 7u);
  EXPECT_EQ(stats.minimized_events, minimal.size());
  EXPECT_GT(stats.runs, 0);
  ASSERT_FALSE(minimal.empty());
  EXPECT_LE(minimal.size() * 4, events.size());  // the <=25% acceptance bound

  // The minimal schedule keeps only the freeze and fails identically under
  // both engines — the "same bug" guarantee the minimizer rests on.
  EXPECT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0].kind, sim::FaultKind::kTileFreeze);
  EXPECT_TRUE(minimal[0].permanent);
  EXPECT_EQ(signature_of(run_chaos_events(spec, minimal)), target);
  ChaosSpec dense_spec = spec;
  dense_spec.force_dense = true;
  EXPECT_EQ(signature_of(run_chaos_events(dense_spec, minimal)), target);

  // Determinism: minimizing again yields the same subset.
  const std::vector<sim::FaultEvent> again =
      minimize_events(spec, events, target);
  ASSERT_EQ(again.size(), minimal.size());
  EXPECT_EQ(again[0].at, minimal[0].at);
  EXPECT_EQ(again[0].tile, minimal[0].tile);
}

}  // namespace
}  // namespace raw::router
