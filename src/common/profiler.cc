#include "common/profiler.h"

#include <chrono>
#include <cstdio>

#include "common/metrics.h"
#include "common/trace_event.h"

namespace raw::common {

thread_local ProfScope* ProfScope::t_open_ = nullptr;

namespace {

// Test clock hook; null means the real steady clock.
std::uint64_t (*g_clock_for_test)() = nullptr;

// Dedicated Chrome-trace track for the engine-profile counter series, well
// clear of the packet tracks (tiles use tile ids, cards use 100/200/300
// blocks — see RawRouter::set_tracer).
constexpr int kEngineProfileTrack = 400;

}  // namespace

const char* prof_phase_name(ProfPhase p) {
  switch (p) {
    case ProfPhase::kCompute: return "compute";
    case ProfPhase::kChannelCommit: return "channel_commit";
    case ProfPhase::kParkWake: return "park_wake";
    case ProfPhase::kSerialSection: return "serial_section";
    case ProfPhase::kStats: return "stats";
  }
  return "?";
}

std::uint64_t Profiler::now_ns() {
  if (g_clock_for_test != nullptr) return g_clock_for_test();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::set_clock_for_test(std::uint64_t (*clock)()) {
  g_clock_for_test = clock;
}

void Profiler::start() {
  if (running_) return;
  running_ = true;
  start_ns_ = now_ns();
}

void Profiler::stop() {
  if (!running_) return;
  running_ = false;
  wall_ns_ += now_ns() - start_ns_;
}

std::uint64_t Profiler::wall_ns() const {
  std::uint64_t ns = wall_ns_;
  if (running_) ns += now_ns() - start_ns_;
  return ns;
}

std::uint64_t Profiler::phase_ns_sum() const {
  std::uint64_t sum = 0;
  for (const PhaseTotal& t : phase_) sum += t.ns;
  return sum;
}

double Profiler::coverage() const {
  const std::uint64_t wall = wall_ns();
  if (wall == 0) return 0.0;
  return static_cast<double>(phase_ns_sum()) / static_cast<double>(wall);
}

void Profiler::enable_flight(std::size_t capacity, Cycle interval) {
  flight_capacity_ = capacity;
  flight_interval_ = interval > 0 ? interval : 1;
  flight_next_ = flight_interval_;
  flight_head_ = 0;
  flight_recorded_ = 0;
  flight_ring_.clear();
  flight_ring_.reserve(capacity);
}

void Profiler::flight_snap(Cycle cycle, bool on_stall) {
  if (flight_capacity_ == 0) return;
  FlightSnapshot snap;
  snap.cycle = cycle;
  snap.wall_ns = wall_ns();
  snap.on_stall = on_stall;
  snap.phase = phase_;
  snap.parks = parks_;
  snap.wakes = wakes_;
  snap.commit_batches = commit_batches_;
  snap.dirty_channels = dirty_channels_;
  snap.dense_sweeps = dense_sweeps_;
  snap.sparse_cycles = sparse_cycles_;

  ++flight_recorded_;
  if (flight_ring_.size() < flight_capacity_) {
    flight_ring_.push_back(snap);
  } else {
    flight_ring_[flight_head_] = snap;  // overwrite oldest: keep recent window
    flight_head_ = (flight_head_ + 1) % flight_capacity_;
  }
  // Periodic snapshots advance the schedule; forced (stall/dump) ones don't.
  if (!on_stall && cycle >= flight_next_) {
    flight_next_ = cycle + flight_interval_;
  }
}

std::vector<Profiler::FlightSnapshot> Profiler::flight() const {
  std::vector<FlightSnapshot> out;
  out.reserve(flight_ring_.size());
  for (std::size_t i = 0; i < flight_ring_.size(); ++i) {
    out.push_back(flight_ring_[(flight_head_ + i) % flight_ring_.size()]);
  }
  return out;
}

std::string Profiler::flight_jsonl() const {
  std::string out;
  char buf[256];
  for (const FlightSnapshot& s : flight()) {
    std::snprintf(buf, sizeof buf,
                  "{\"schema\":\"flight/v1\",\"cycle\":%llu,\"wall_ns\":%llu,"
                  "\"on_stall\":%s,\"phases\":{",
                  static_cast<unsigned long long>(s.cycle),
                  static_cast<unsigned long long>(s.wall_ns),
                  s.on_stall ? "true" : "false");
    out += buf;
    for (int p = 0; p < kNumProfPhases; ++p) {
      const PhaseTotal& t = s.phase[static_cast<std::size_t>(p)];
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"ns\":%llu,\"calls\":%llu}",
                    p == 0 ? "" : ",",
                    prof_phase_name(static_cast<ProfPhase>(p)),
                    static_cast<unsigned long long>(t.ns),
                    static_cast<unsigned long long>(t.calls));
      out += buf;
    }
    std::snprintf(
        buf, sizeof buf,
        "},\"parks\":%llu,\"wakes\":%llu,\"commit_batches\":%llu,"
        "\"dirty_channels\":%llu,\"dense_sweeps\":%llu,\"sparse_cycles\":%llu}\n",
        static_cast<unsigned long long>(s.parks),
        static_cast<unsigned long long>(s.wakes),
        static_cast<unsigned long long>(s.commit_batches),
        static_cast<unsigned long long>(s.dirty_channels),
        static_cast<unsigned long long>(s.dense_sweeps),
        static_cast<unsigned long long>(s.sparse_cycles));
    out += buf;
  }
  return out;
}

void Profiler::export_metrics(MetricRegistry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + "/wall_ns").set(wall_ns());
  registry.gauge(prefix + "/coverage").set(coverage());
  for (int p = 0; p < kNumProfPhases; ++p) {
    const PhaseTotal& t = phase_[static_cast<std::size_t>(p)];
    const std::string pp =
        prefix + "/phase/" + prof_phase_name(static_cast<ProfPhase>(p));
    registry.counter(pp + "/ns").set(t.ns);
    registry.counter(pp + "/calls").set(t.calls);
  }
  registry.counter(prefix + "/parks").set(parks_);
  registry.counter(prefix + "/wakes").set(wakes_);
  registry.counter(prefix + "/commit_batches").set(commit_batches_);
  registry.counter(prefix + "/dirty_channels").set(dirty_channels_);
  registry.counter(prefix + "/engine/dense_sweeps").set(dense_sweeps_);
  registry.counter(prefix + "/engine/sparse_cycles").set(sparse_cycles_);
  registry.counter(prefix + "/engine/flight_snapshots").set(flight_recorded_);
}

std::string merged_chrome_json(const PacketTracer* tracer, const Profiler* prof,
                               double clock_hz) {
  const double us_per_cycle = 1e6 / clock_hz;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  if (tracer != nullptr) {
    out += tracer->chrome_events_json(clock_hz);
  } else {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"rawswitch\"}}";
  }

  char buf[512];
  std::snprintf(buf, sizeof buf,
                ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"name\":\"engine profile\"}}",
                kEngineProfileTrack);
  out += buf;

  if (prof != nullptr) {
    // One counter sample per flight snapshot: the per-phase time spent since
    // the previous snapshot, so the track reads as a rate over sim time.
    Profiler::FlightSnapshot prev;  // zeros: first snapshot charges from t=0
    for (const Profiler::FlightSnapshot& s : prof->flight()) {
      std::snprintf(buf, sizeof buf,
                    ",{\"name\":\"engine_phase_ns\",\"cat\":\"engine\","
                    "\"ph\":\"C\",\"ts\":%.4f,\"pid\":0,\"tid\":%d,\"args\":{",
                    static_cast<double>(s.cycle) * us_per_cycle,
                    kEngineProfileTrack);
      out += buf;
      for (int p = 0; p < kNumProfPhases; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const std::uint64_t delta = s.phase[i].ns >= prev.phase[i].ns
                                        ? s.phase[i].ns - prev.phase[i].ns
                                        : 0;
        std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", p == 0 ? "" : ",",
                      prof_phase_name(static_cast<ProfPhase>(p)),
                      static_cast<unsigned long long>(delta));
        out += buf;
      }
      out += "}}";
      if (s.on_stall) {
        std::snprintf(buf, sizeof buf,
                      ",{\"name\":\"stall_snapshot\",\"cat\":\"engine\","
                      "\"ph\":\"i\",\"s\":\"g\",\"ts\":%.4f,\"pid\":0,"
                      "\"tid\":%d,\"args\":{}}",
                      static_cast<double>(s.cycle) * us_per_cycle,
                      kEngineProfileTrack);
        out += buf;
      }
      prev = s;
    }
  }
  out += "]}";
  return out;
}

}  // namespace raw::common
