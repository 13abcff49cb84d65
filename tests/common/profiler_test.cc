// Engine profiler unit tests: deterministic (fake-clock) phase accounting,
// exclusive-time nesting, the flight-recorder ring, and the exporters. The
// engine-level behaviour (digest invariance, snapshot-on-stall) lives in
// tests/exec/profiler_engine_test.cc.
#include "common/profiler.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace raw::common {
namespace {

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

/// Installs the fake clock for a test body and always restores the real one.
class FakeClock {
 public:
  FakeClock() {
    g_fake_now = 0;
    Profiler::set_clock_for_test(&fake_clock);
  }
  ~FakeClock() { Profiler::set_clock_for_test(nullptr); }
  void advance(std::uint64_t ns) { g_fake_now += ns; }
};

/// Charges `ns` of fake time to `phase` through one scope.
void spend(Profiler& prof, FakeClock& clock, ProfPhase phase, std::uint64_t ns) {
  ProfScope scope(&prof, phase);
  clock.advance(ns);
}

TEST(ProfilerTest, ScopesAccumulateExclusiveTime) {
  FakeClock clock;
  Profiler prof;
  {
    ProfScope outer(&prof, ProfPhase::kCompute);
    clock.advance(100);
    {
      ProfScope inner(&prof, ProfPhase::kSerialSection);
      clock.advance(30);
    }
    clock.advance(20);
  }
  // The nested scope pauses its parent: compute gets its *self* time only.
  EXPECT_EQ(prof.phase_total(ProfPhase::kCompute).ns, 120u);
  EXPECT_EQ(prof.phase_total(ProfPhase::kCompute).calls, 1u);
  EXPECT_EQ(prof.phase_total(ProfPhase::kSerialSection).ns, 30u);
  EXPECT_EQ(prof.phase_total(ProfPhase::kSerialSection).calls, 1u);
  EXPECT_EQ(prof.phase_ns_sum(), 150u);
}

TEST(ProfilerTest, NullProfilerScopeIsInert) {
  FakeClock clock;
  ProfScope scope(nullptr, ProfPhase::kCompute);
  clock.advance(100);
  // Nothing to assert beyond "does not crash / does not touch the clock
  // path": the scope holds no profiler.
}

TEST(ProfilerTest, CoverageAgainstWallClock) {
  FakeClock clock;
  Profiler prof;
  prof.start();
  spend(prof, clock, ProfPhase::kCompute, 600);
  spend(prof, clock, ProfPhase::kChannelCommit, 300);
  clock.advance(100);
  prof.stop();
  EXPECT_EQ(prof.wall_ns(), 1000u);
  EXPECT_DOUBLE_EQ(prof.coverage(), 0.9);
}

TEST(ProfilerTest, FlightRingWrapsKeepingMostRecent) {
  Profiler prof;
  prof.enable_flight(/*capacity=*/4, /*interval=*/100);
  EXPECT_TRUE(prof.flight_enabled());
  EXPECT_FALSE(prof.flight_due(99));
  for (Cycle c = 100; c <= 1000; c += 100) {
    ASSERT_TRUE(prof.flight_due(c)) << c;
    prof.flight_snap(c);
  }
  EXPECT_EQ(prof.flight_recorded(), 10u);
  const auto snaps = prof.flight();
  ASSERT_EQ(snaps.size(), 4u);
  // Oldest first, and only the most recent window survives the wrap.
  EXPECT_EQ(snaps[0].cycle, 700u);
  EXPECT_EQ(snaps[1].cycle, 800u);
  EXPECT_EQ(snaps[2].cycle, 900u);
  EXPECT_EQ(snaps[3].cycle, 1000u);
}

TEST(ProfilerTest, StallSnapshotDoesNotAdvanceSchedule) {
  Profiler prof;
  prof.enable_flight(/*capacity=*/4, /*interval=*/100);
  prof.flight_snap(50, /*on_stall=*/true);
  // The forced snapshot recorded, but the periodic one at 100 is still due.
  EXPECT_EQ(prof.flight_recorded(), 1u);
  EXPECT_TRUE(prof.flight_due(100));
  const auto snaps = prof.flight();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].on_stall);
}

TEST(ProfilerTest, FlightJsonlOneSchemaTaggedObjectPerLine) {
  FakeClock clock;
  Profiler prof;
  prof.enable_flight(/*capacity=*/8, /*interval=*/10);
  spend(prof, clock, ProfPhase::kParkWake, 42);
  prof.flight_snap(10);
  prof.flight_snap(20, /*on_stall=*/true);
  const std::string jsonl = prof.flight_jsonl();
  std::stringstream ss(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    EXPECT_EQ(line.rfind("{\"schema\":\"flight/v1\",", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(jsonl.find("\"on_stall\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"park_wake\":{\"ns\":42,\"calls\":1}"),
            std::string::npos);
}

TEST(ProfilerTest, ExportMetricsPublishesLintCleanNames) {
  FakeClock clock;
  Profiler prof;
  spend(prof, clock, ProfPhase::kSerialSection, 100);
  prof.count_dense_sweep();
  MetricRegistry reg;
  prof.export_metrics(reg);
  EXPECT_EQ(reg.counter_value("profile/phase/serial_section/ns"), 100u);
  EXPECT_EQ(reg.counter_value("profile/phase/serial_section/calls"), 1u);
  EXPECT_EQ(reg.counter_value("profile/engine/dense_sweeps"), 1u);
  for (const auto& s : reg.snapshot()) {
    for (const char c : s.name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '/')
          << "bad metric name: " << s.name;
    }
  }
}

TEST(ProfilerTest, MergedChromeJsonCarriesEngineTrack) {
  FakeClock clock;
  Profiler prof;
  prof.enable_flight(/*capacity=*/4, /*interval=*/100);
  spend(prof, clock, ProfPhase::kCompute, 1000);
  prof.flight_snap(100);
  prof.flight_snap(150, /*on_stall=*/true);
  const std::string json = merged_chrome_json(nullptr, &prof);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"engine profile\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);   // counter samples
  EXPECT_NE(json.find("stall_snapshot"), std::string::npos);  // instant marker
}

}  // namespace
}  // namespace raw::common
