// Cluster chaos harness: every standard mix passes with reliable links and
// fail-over armed, repro bundles round-trip through JSON, replay
// bit-identically and minimize, and the validation rules catch what they
// claim to.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/chaos.h"

namespace raw::cluster {
namespace {

ClusterChaosSpec quick_spec(std::uint64_t seed) {
  ClusterChaosSpec spec;
  spec.seed = seed;
  spec.num_chips = 4;
  spec.run_cycles = 8000;
  spec.drain_cycles = 400000;
  spec.reliable_links = true;
  spec.failover = true;
  return spec;
}

TEST(ClusterChaosTest, MixNamesRoundTripThroughParse) {
  for (const ClusterChaosMix& mix : standard_cluster_mixes()) {
    ClusterChaosMix parsed;
    ASSERT_TRUE(parse_cluster_mix(mix.name(), &parsed)) << mix.name();
    EXPECT_EQ(parsed.name(), mix.name());
  }
  ClusterChaosMix out;
  EXPECT_FALSE(parse_cluster_mix("meteor", &out));
  EXPECT_FALSE(parse_cluster_mix("", &out));
  // Empty tokens are rejected wherever they sit.
  for (const char* bad : {"corrupt+", "+stall", "corrupt++cut", "+"}) {
    EXPECT_FALSE(parse_cluster_mix(bad, &out)) << bad;
  }
}

TEST(ClusterChaosTest, StandardMixesPassWithRecoveryArmed) {
  for (const ClusterChaosMix& mix : standard_cluster_mixes()) {
    ClusterChaosSpec spec = quick_spec(3);
    spec.mix = mix;
    const ClusterChaosResult r = run_cluster_chaos(spec);
    EXPECT_TRUE(r.pass) << mix.name() << ": " << r.failure;
    EXPECT_GT(r.delivered, 0u) << mix.name();
    if (mix.any()) {
      EXPECT_GT(r.faults_injected, 0u) << mix.name();
    }
    if (mix.permanent()) {
      EXPECT_TRUE(r.degraded) << mix.name();
      EXPECT_GE(r.failover_generation, 1) << mix.name();
    } else {
      EXPECT_FALSE(r.degraded) << mix.name();
    }
  }
}

TEST(ClusterChaosTest, ScheduleRejectsGeometryItCannotWire) {
  // One chip is not a cluster: the schedule builder validates the config
  // before it builds the topology, so bad geometry throws instead of
  // aborting.
  ClusterChaosSpec spec = quick_spec(1);
  spec.mix.cuts = true;
  spec.num_chips = 1;
  EXPECT_THROW(make_cluster_fault_events(spec), std::invalid_argument);
}

TEST(ClusterChaosTest, CorruptingMixDoesZeroDamageOnReliableLinks) {
  ClusterChaosSpec spec = quick_spec(5);
  spec.mix.corrupts = true;
  spec.faults_per_kind = 6;
  const ClusterChaosResult r = run_cluster_chaos(spec);
  EXPECT_TRUE(r.pass) << r.failure;
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.delivered_corrupt, 0u);
}

TEST(ClusterChaosTest, RunsAreDeterministicAcrossWorkerCounts) {
  ClusterChaosSpec spec = quick_spec(7);
  spec.mix.corrupts = true;
  spec.mix.cuts = true;
  spec.threads = 1;
  const ClusterChaosResult serial = run_cluster_chaos(spec);
  for (const int workers : {2, 4}) {
    spec.threads = workers;
    const ClusterChaosResult r = run_cluster_chaos(spec);
    EXPECT_EQ(r.digest, serial.digest) << workers << " workers";
    EXPECT_EQ(r.delivered, serial.delivered) << workers << " workers";
    EXPECT_EQ(r.degraded, serial.degraded) << workers << " workers";
  }
}

TEST(ClusterChaosTest, ReproBundleRoundTripsThroughJson) {
  // 2^53 + 1 is not representable as a double: the reader must keep it
  // exact, or the replay runs a different seed.
  for (const std::uint64_t seed :
       {std::uint64_t{11}, std::uint64_t{9007199254740993}}) {
    SCOPED_TRACE(seed);
    ClusterChaosSpec spec = quick_spec(seed);
    spec.mix.stalls = true;
    spec.mix.freezes = true;
    const std::vector<sim::FaultEvent> events =
        make_cluster_fault_events(spec);
    const ClusterChaosRepro repro =
        make_repro(spec, events, run_cluster_chaos_events(spec, events));

    const std::string json = to_json(repro);
    ClusterChaosRepro parsed;
    std::string error;
    ASSERT_TRUE(from_json(json, &parsed, &error)) << error;
    EXPECT_EQ(parsed.spec.seed, spec.seed);
    EXPECT_EQ(parsed.spec.mix.name(), spec.mix.name());
    EXPECT_EQ(parsed.spec.num_chips, spec.num_chips);
    EXPECT_EQ(parsed.spec.reliable_links, spec.reliable_links);
    EXPECT_EQ(parsed.spec.failover, spec.failover);
    ASSERT_EQ(parsed.events.size(), repro.events.size());
    for (std::size_t i = 0; i < parsed.events.size(); ++i) {
      EXPECT_EQ(static_cast<int>(parsed.events[i].kind),
                static_cast<int>(repro.events[i].kind));
      EXPECT_EQ(parsed.events[i].at, repro.events[i].at);
      EXPECT_EQ(parsed.events[i].link, repro.events[i].link);
      EXPECT_EQ(parsed.events[i].chip, repro.events[i].chip);
    }
    EXPECT_EQ(parsed.digest, repro.digest);
    EXPECT_EQ(parsed.degraded, repro.degraded);
    EXPECT_EQ(to_json(parsed), json);

    // The parsed bundle replays bit-identically.
    std::string why;
    const ClusterChaosResult replayed = replay_cluster_repro(parsed, &why);
    EXPECT_TRUE(why.empty()) << why;
    EXPECT_EQ(replayed.digest, repro.digest);
  }
}

TEST(ClusterChaosTest, ReplayFlagsATamperedDigest) {
  ClusterChaosSpec spec = quick_spec(13);
  spec.mix.corrupts = true;
  const std::vector<sim::FaultEvent> events = make_cluster_fault_events(spec);
  const ClusterChaosRepro fresh =
      make_repro(spec, events, run_cluster_chaos_events(spec, events));

  // A corrupt+cut bundle an earlier build wrote (`rawchaos --cluster --mix
  // corrupt+cut --seed 3 --record`), read through the one loader.
  Repro loaded;
  std::string error;
  ASSERT_TRUE(load_repro(RAW_TEST_DATA_DIR "/cluster_corrupt_cut_seed3.json",
                         &loaded, &error))
      << error;
  ASSERT_TRUE(std::holds_alternative<ClusterChaosRepro>(loaded));
  const ClusterChaosRepro& recorded = std::get<ClusterChaosRepro>(loaded);
  ASSERT_EQ(recorded.events.size(), 5u);
  // Its v1 kind names load as link events: three trunk_corrupt flips, then
  // a trunk_cut of both directions of trunk 0 (permanent link stalls).
  for (std::size_t i = 0; i < recorded.events.size(); ++i) {
    const sim::FaultEvent& e = recorded.events[i];
    EXPECT_EQ(e.kind, i < 3 ? sim::FaultKind::kBitFlip
                            : sim::FaultKind::kLinkStall);
    EXPECT_EQ(e.permanent, i >= 3);
    EXPECT_GE(e.link, 0);
    EXPECT_EQ(e.chip, -1);
  }

  for (const ClusterChaosRepro* bundle : {&fresh, &recorded}) {
    SCOPED_TRACE(bundle->spec.mix.name());
    std::string why;
    EXPECT_EQ(replay_cluster_repro(*bundle, &why).digest, bundle->digest);
    EXPECT_TRUE(why.empty()) << why;

    ClusterChaosRepro tampered = *bundle;
    tampered.digest ^= 1;
    const ClusterChaosResult replayed = replay_cluster_repro(tampered, &why);
    EXPECT_FALSE(replayed.pass);
    EXPECT_EQ(why, "digest mismatch");
  }
}

TEST(ClusterChaosTest, BadLinkOrChipTargetsThrowInsteadOfAborting) {
  // The checked-in bundle with one target pushed out of its 4-chip,
  // 6-link fabric: the replay is rejected with std::invalid_argument
  // (rawchaos reports it and exits 2).
  Repro loaded;
  std::string error;
  ASSERT_TRUE(load_repro(RAW_TEST_DATA_DIR "/cluster_corrupt_cut_seed3.json",
                         &loaded, &error))
      << error;
  const ClusterChaosRepro& bundle = std::get<ClusterChaosRepro>(loaded);
  std::vector<sim::FaultEvent> bad_link = bundle.events;
  bad_link[0].link = 6;
  std::vector<sim::FaultEvent> bad_chip = bundle.events;
  bad_chip[3] = sim::FaultEvent{};
  bad_chip[3].kind = sim::FaultKind::kTileFreeze;
  bad_chip[3].permanent = true;
  bad_chip[3].chip = 4;
  for (const auto* events : {&bad_link, &bad_chip}) {
    EXPECT_THROW((void)run_cluster_chaos_events(bundle.spec, *events),
                 std::invalid_argument);
  }
}

TEST(ClusterChaosTest, MinimizeNamesABadTargetByItsBundleIndex) {
  // ddmin's first subsets are events 0-2 and 3-4; the bad link in event 4
  // (the second subset's event 1) must be named as event 4, as a replay of
  // the whole bundle names it.
  Repro loaded;
  std::string error;
  ASSERT_TRUE(load_repro(RAW_TEST_DATA_DIR "/cluster_corrupt_cut_seed3.json",
                         &loaded, &error))
      << error;
  ClusterChaosRepro bundle = std::get<ClusterChaosRepro>(loaded);
  bundle.events[4].link = 6;
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  const std::string replayed = message_of(
      [&] { (void)run_cluster_chaos_events(bundle.spec, bundle.events); });
  EXPECT_EQ(replayed.rfind("fault event 4 ", 0), 0u) << replayed;
  EXPECT_EQ(message_of([&] { (void)minimize_repro(bundle); }), replayed);
}

TEST(ClusterChaosTest, FromJsonRejectsGarbage) {
  ClusterChaosRepro out;
  std::string error;
  EXPECT_FALSE(from_json("not json", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(from_json("{\"schema\": \"wrong/v9\"}", &out, &error));
  EXPECT_FALSE(from_json("{\"spec\": {}}", &out, &error));
  EXPECT_EQ(error, "missing \"schema\" marker");

  // The one loader needs a marker to know which reader applies.
  Repro any;
  EXPECT_FALSE(parse_repro("{\"spec\": {}}", &any, &error));
  EXPECT_EQ(error, "no bundle marker (\"version\" or \"schema\")");
  EXPECT_FALSE(parse_repro("{\"schema\": \"wrong/v9\"}", &any, &error));
  EXPECT_EQ(error, "unknown schema wrong/v9");
}

TEST(ClusterChaosTest, MinimizeKeepsTheRecordedOutcome) {
  // corrupt+cut ends degraded through the cut alone: ddmin drops the
  // corrupt words (which reliable links repair anyway) and at least one
  // direction of the cut survives.
  ClusterChaosSpec spec = quick_spec(3);
  spec.mix.corrupts = true;
  spec.mix.cuts = true;
  const std::vector<sim::FaultEvent> events = make_cluster_fault_events(spec);
  const ClusterChaosRepro target =
      make_repro(spec, events, run_cluster_chaos_events(spec, events));
  ASSERT_TRUE(target.degraded);

  router::MinimizeStats stats;
  const ClusterChaosRepro minimal = minimize_repro(target, &stats);
  EXPECT_EQ(stats.original_events, events.size());
  EXPECT_LT(minimal.events.size(), events.size());
  EXPECT_TRUE(same_outcome(minimal, target));
  for (const sim::FaultEvent& e : minimal.events) {
    EXPECT_EQ(e.kind, sim::FaultKind::kLinkStall);  // a cut
    EXPECT_TRUE(e.permanent);
  }
}

TEST(ClusterChaosTest, BoundedSweepPasses) {
  // The shape of a bounded `rawchaos --cluster` sweep: seed 1, 6,000
  // cycles, 4 chips, 2 workers, default drain, every standard mix.
  for (const ClusterChaosMix& mix : standard_cluster_mixes()) {
    ClusterChaosSpec spec;
    spec.seed = 1;
    spec.mix = mix;
    spec.num_chips = 4;
    spec.threads = 2;
    spec.run_cycles = 6000;
    spec.reliable_links = true;
    spec.failover = true;
    const ClusterChaosResult r = run_cluster_chaos(spec);
    EXPECT_TRUE(r.pass) << r.mix << " seed " << r.seed << ": " << r.failure;
  }
}

}  // namespace
}  // namespace raw::cluster
