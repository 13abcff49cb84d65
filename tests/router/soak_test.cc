// Endurance soak tests (router/soak.h): config validation for the soak
// knobs, epoch derivation determinism, a small green soak under chaos with
// links+recovery, and the acceptance property — an injected invariant
// failure produces a bundle whose replay reproduces the failure cycle, every
// checkpoint anchor and the final digest, under both engines.
#include "router/soak.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "router/chaos.h"
#include "router/raw_router.h"

namespace raw::router {
namespace {

RouterConfig endurance_config() {
  RouterConfig cfg;
  cfg.endurance.enabled = true;
  return cfg;
}

TEST(EnduranceConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(endurance_config().validate());
}

TEST(EnduranceConfigTest, ZeroInvariantCadenceRejected) {
  RouterConfig cfg = endurance_config();
  cfg.endurance.invariant_cadence = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EnduranceConfigTest, ZeroCheckpointIntervalRejected) {
  RouterConfig cfg = endurance_config();
  cfg.endurance.checkpoint_interval = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EnduranceConfigTest, ZeroRingRejected) {
  RouterConfig cfg = endurance_config();
  cfg.endurance.checkpoint_ring = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EnduranceConfigTest, CadenceBelowWatchdogIntervalRejected) {
  RouterConfig cfg = endurance_config();
  cfg.endurance.invariant_cadence = kWatchdogCheckInterval - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EnduranceConfigTest, DisabledEnduranceIgnoresItsKnobs) {
  RouterConfig cfg;
  cfg.endurance.invariant_cadence = 0;
  cfg.endurance.checkpoint_ring = 0;
  EXPECT_NO_THROW(cfg.validate());
}

SoakSpec small_spec() {
  SoakSpec spec;
  spec.seed = 3;
  spec.total_cycles = 300000;
  spec.epoch_cycles = 150000;
  spec.drain_cycles = 400000;
  spec.invariant_cadence = 8192;
  spec.checkpoint_interval = 32768;
  spec.checkpoint_ring = 3;
  spec.faults_per_kind = 2;
  return spec;
}

TEST(EpochSpecTest, SeedsDifferPerEpochButAreStable) {
  const SoakSpec spec = small_spec();
  const ChaosSpec e0 = epoch_spec(spec, 0);
  const ChaosSpec e1 = epoch_spec(spec, 1);
  EXPECT_NE(e0.seed, e1.seed);
  EXPECT_EQ(e0.seed, epoch_spec(spec, 0).seed);
  EXPECT_EQ(e0.run_cycles, spec.epoch_cycles);
  EXPECT_TRUE(e0.endurance.enabled);
  // The rotation table starts clean/uniform then adds fault kinds.
  EXPECT_FALSE(e0.mix.any());
  EXPECT_TRUE(e1.mix.any());
}

// An epoch's chip steps serially: SoakSpec::threads accepts only 0 or 1.
TEST(EpochSpecTest, RejectsThreadsOtherThanSerial) {
  SoakSpec spec = small_spec();
  spec.threads = 4;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_THROW((void)epoch_spec(spec, 0), std::invalid_argument);
  spec.threads = 1;
  EXPECT_NO_THROW(spec.validate());
}

TEST(EpochSpecTest, InjectedFailureLandsOnlyInItsEpoch) {
  SoakSpec spec = small_spec();
  spec.inject_invariant_failure_at = spec.epoch_cycles + 1000;  // epoch 1
  EXPECT_EQ(epoch_spec(spec, 0).inject_invariant_failure_at, 0u);
  EXPECT_EQ(epoch_spec(spec, 1).inject_invariant_failure_at, 1000u);
  EXPECT_EQ(epoch_spec(spec, 2).inject_invariant_failure_at, 0u);
}

TEST(SoakTest, SmallGreenSoakPasses) {
  const SoakReport rep = run_soak(small_spec());
  EXPECT_TRUE(rep.pass) << rep.failure;
  EXPECT_EQ(rep.epochs_run, 2);
  EXPECT_GE(rep.cycles_run, rep.total_cycles);
  EXPECT_GT(rep.invariant_sweeps, 0u);
  EXPECT_GT(rep.checkpoints_captured, 0u);
  EXPECT_GT(rep.delivered, 0u);
  EXPECT_EQ(rep.dense_sweeps, 0u);
  EXPECT_FALSE(rep.replay.attempted);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"soak/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
}

TEST(SoakTest, CheckpointIntervalDoesNotChangeEpochDigests) {
  // Checkpoints are pure observation: a capture only reads digests, so
  // every epoch of the rotation (slot 7 is the permafreeze epoch, where
  // recovery makes watchdog cycles matter) ends in the same state at any
  // checkpoint interval.
  SoakSpec spec;
  spec.seed = 1;
  spec.epoch_cycles = 50000;
  ASSERT_TRUE(spec.reliable_links);
  ASSERT_TRUE(spec.recovery);
  for (std::int64_t slot = 0; slot < 8; ++slot) {
    std::vector<std::uint64_t> digests;
    for (const common::Cycle interval : {16384u, 32768u, 65536u}) {
      spec.checkpoint_interval = interval;
      const ChaosResult r = run_chaos(epoch_spec(spec, slot));
      EXPECT_TRUE(r.pass) << "slot " << slot << ": " << r.failure;
      digests.push_back(r.digest);
    }
    EXPECT_EQ(digests[1], digests[0]) << "slot " << slot;
    EXPECT_EQ(digests[2], digests[0]) << "slot " << slot;
  }
}

// Injects a failure `offset` cycles into epoch 1 of small_spec(). It fires
// at `failing_sweep`, the first invariant sweep (cadence 8192) at or after
// the offset, and the bundle's last anchor is the checkpoint (interval
// 32768) at or before that sweep.
void expect_injected_replay_roundtrip(bool force_dense, common::Cycle offset,
                                      common::Cycle failing_sweep) {
  SoakSpec spec = small_spec();
  spec.force_dense = force_dense;
  spec.inject_invariant_failure_at = spec.epoch_cycles + offset;
  const SoakReport rep = run_soak(spec);
  EXPECT_FALSE(rep.pass);
  ASSERT_EQ(rep.epochs_run, 2);
  ASSERT_TRUE(rep.replay.attempted)
      << "dense=" << force_dense << " failure=" << rep.failure;
  EXPECT_TRUE(rep.replay.ok) << rep.replay.detail;
  const ChaosResult& r = rep.epochs.back().chaos;
  EXPECT_EQ(r.invariant_failure_cycle, failing_sweep);
  ASSERT_FALSE(r.anchors.empty());
  EXPECT_EQ(r.anchors.back().cycle,
            failing_sweep - failing_sweep % spec.checkpoint_interval);
}

// The failing sweep 57344 falls between the checkpoints at 32768 and 65536;
// 65536 is itself a checkpoint cycle, so the last anchor is captured at the
// very cycle the failure stops the run.
TEST(SoakTest, InjectedFailureReplayMatchesSparseSerial) {
  expect_injected_replay_roundtrip(/*force_dense=*/false, 50000, 57344);
  expect_injected_replay_roundtrip(/*force_dense=*/false, 60000, 65536);
}

TEST(SoakTest, InjectedFailureReplayMatchesDense) {
  expect_injected_replay_roundtrip(/*force_dense=*/true, 50000, 57344);
  expect_injected_replay_roundtrip(/*force_dense=*/true, 60000, 65536);
}

// A failure that lands before the first checkpoint is due leaves the bundle
// without anchors: the replay from the epoch's seed still has the failure
// cycle and the final digest to reproduce.
TEST(SoakTest, FailureBeforeFirstCheckpointAnchorsAtEpochStart) {
  SoakSpec spec = small_spec();
  spec.inject_invariant_failure_at = 20000;  // < checkpoint_interval 32768
  const SoakReport rep = run_soak(spec);
  EXPECT_FALSE(rep.pass);
  ASSERT_TRUE(rep.replay.attempted) << rep.failure;
  EXPECT_TRUE(rep.replay.ok) << rep.replay.detail;
  EXPECT_TRUE(rep.epochs.back().chaos.anchors.empty());
}

// The failing epoch's bundle as run_soak writes it.
ChaosRepro failing_epoch_bundle(const SoakSpec& spec, const SoakReport& rep) {
  const ChaosSpec cs = epoch_spec(spec, rep.epochs_run - 1);
  return make_repro(cs, make_fault_events(cs), rep.epochs.back().chaos);
}

// A bundle whose anchors were tampered with must not replay as a match,
// even though its signature, failure cycle and final digest still do.
TEST(SoakTest, ReplayReportsAnEditedAnchor) {
  SoakSpec spec = small_spec();
  spec.inject_invariant_failure_at = 100000;  // epoch 0, after 3 anchors
  const SoakReport rep = run_soak(spec);
  ASSERT_FALSE(rep.pass);
  const ChaosRepro bundle = failing_epoch_bundle(spec, rep);
  ASSERT_EQ(bundle.anchors.size(), 3u);

  std::string why;
  (void)replay_repro(bundle, &why);
  EXPECT_EQ(why, "");

  ChaosRepro edited_chip = bundle;
  edited_chip.anchors[1].chip_digest ^= 1;
  (void)replay_repro(edited_chip, &why);
  EXPECT_NE(why.find("anchor 1 mismatch"), std::string::npos) << why;

  ChaosRepro edited_router = bundle;
  edited_router.anchors[2].owner_digest ^= 1;
  (void)replay_repro(edited_router, &why);
  EXPECT_NE(why.find("anchor 2 mismatch"), std::string::npos) << why;

  ChaosRepro dropped = bundle;
  dropped.anchors.pop_back();
  (void)replay_repro(dropped, &why);
  EXPECT_NE(why.find("3 anchors, bundle has 2"), std::string::npos) << why;
}

// The stop-violation and its cycle are part of the run result, and the
// failing epoch's bundle replays to the same digest whether the harness
// rebuilds it in-process or parses it back from JSON.
TEST(SoakTest, FailureBundleSurvivesJsonRoundTrip) {
  SoakSpec spec = small_spec();
  spec.inject_invariant_failure_at = 50000;  // epoch 0
  const SoakReport rep = run_soak(spec);
  ASSERT_FALSE(rep.pass);
  ASSERT_EQ(rep.epochs.size(), 1u);
  const ChaosResult& r = rep.epochs[0].chaos;
  EXPECT_EQ(r.outcome, DrainOutcome::kInvariantViolation);
  EXPECT_GT(r.invariant_failure_cycle, 0u);

  // Rebuild the bundle the way run_soak writes it, round-trip through JSON,
  // and replay the parsed copy.
  const ChaosRepro bundle = failing_epoch_bundle(spec, rep);
  std::string err;
  ChaosRepro parsed;
  ASSERT_TRUE(from_json(to_json(bundle), &parsed, &err)) << err;
  EXPECT_EQ(parsed.anchors, bundle.anchors);
  std::string why;
  (void)replay_repro(parsed, &why);
  EXPECT_EQ(why, "");
}

}  // namespace
}  // namespace raw::router
