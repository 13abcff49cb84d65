// Unified benchmark runner for the serial cycle engine.
//
// Runs a named suite of simulator workloads and emits a machine-readable
// JSON report (schema "rawbench/v3") for perf-regression tracking. Every
// row runs its case kRepeats times and reports the median simulated
// cycles/second with the interquartile range, plus a determinism digest
// that must agree across the repeats (the run fails otherwise — the
// benchmark doubles as an end-to-end check that a run is reproducible).
//
//   ./rawbench [--suite smoke|scaling|fig7|chaos] [--cycles N] [--out FILE]
//              [--baseline FILE] [--tolerance F]
//              [--profile] [--speedscope FILE]
//
// --profile embeds an engine-profile object into every result row (see
// common/profiler.h), accumulated over the row's repeats: per-phase
// wall-time attribution (compute, channel commit, park/wake, serial
// sections, stats), sparse-engine efficiency counters, and the fraction of
// measured wall time the phases account for. --speedscope additionally
// writes all profiled rows as one speedscope-compatible JSON file (one
// sampled profile per row; https://www.speedscope.app).
//
// Suites:
//   smoke    router (full + sparse load) + small StreamMesh + idle mesh,
//            seconds-fast (CI per-commit gate)
//   scaling  StreamMesh meshes 8x8 and 12x12 (the §8.5 mesh-level bench)
//   fig7     the Figure 7-1 router workload at 64 B and 1,024 B
//   chaos    two seeded fault-mix soak runs through the full router
//
// --baseline FILE   compare each row's median cycles/second against the row
//                   of the same name in a previous rawbench JSON report;
//                   exit nonzero if any row is slower than
//                   (1 - tolerance) x baseline.
// --tolerance F     fractional slowdown allowed by --baseline (default 0.40,
//                   loose enough for shared CI runners).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/profiler.h"
#include "exec/stream_mesh.h"
#include "router/chaos.h"
#include "router/raw_router.h"
#include "sim/chip.h"

namespace {

using raw::common::Cycle;
using raw::common::Profiler;

/// Runs per row. One run of a smoke case lasts ~10 ms, so a single sample
/// is at the mercy of the scheduler; the median of five is not.
constexpr int kRepeats = 5;

struct RunOutput {
  Cycle cycles = 0;        // simulated cycles
  std::uint64_t digest = 0;  // must agree across repeats
};

struct Case {
  std::string name;
  /// `prof` is null unless --profile; cases attach it to their engine and
  /// bracket the run with prof->start()/stop() (construction excluded), so
  /// coverage is judged against the simulated region only.
  std::function<RunOutput(Profiler* prof)> run;
};

struct Row {
  std::string name;
  Cycle cycles = 0;
  double wall_seconds = 0.0;    // median over the repeats
  double cycles_per_sec = 0.0;  // median over the repeats
  double cycles_per_sec_q1 = 0.0;
  double cycles_per_sec_q3 = 0.0;
  std::uint64_t digest = 0;
  bool deterministic = true;
  std::unique_ptr<Profiler> prof;  // set only under --profile
};

/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

Case router_case(std::string name, raw::net::DestPattern pattern,
                 raw::common::ByteCount bytes, Cycle cycles,
                 double load = 1.0) {
  return Case{
      std::move(name), [=](Profiler* prof) {
        raw::router::RouterConfig cfg;
        raw::net::TrafficConfig t;
        t.num_ports = 4;
        t.pattern = pattern;
        t.size = raw::net::SizeDist::kFixed;
        t.fixed_bytes = bytes;
        t.load = load;
        raw::router::RawRouter router(cfg, raw::net::RouteTable::simple4(), t,
                                      2003);
        if (prof != nullptr) {
          router.set_profiler(prof);
          prof->start();
        }
        (void)router.run(cycles);
        if (prof != nullptr) prof->stop();
        std::uint64_t d = kFnvBasis;
        d = fnv(d, router.offered_packets());
        d = fnv(d, router.delivered_packets());
        d = fnv(d, router.dropped_at_card());
        d = fnv(d, router.errors());
        d = fnv(d, router.ledger().erased_total());
        d = fnv(d, router.chip().static_words_transferred());
        return RunOutput{router.chip().cycle(), d};
      }};
}

Case mesh_case(std::string name, int dim, Cycle cycles, Cycle proc_work) {
  return Case{
      std::move(name), [=](Profiler* prof) {
        raw::exec::StreamMeshConfig cfg;
        cfg.shape = raw::sim::GridShape{dim, dim};
        cfg.proc_work = proc_work;
        raw::exec::StreamMesh mesh(cfg);
        if (prof != nullptr) {
          mesh.chip().set_profiler(prof);
          prof->start();
        }
        mesh.chip().run(cycles);
        if (prof != nullptr) prof->stop();
        return RunOutput{mesh.chip().cycle(), mesh.digest()};
      }};
}

// A bare mesh with nothing programmed: the sparse engine's best case (every
// agent parks immediately) and the workload the old eager engine paid full
// price on. The digest folds in the summed switch idle counters, which the
// park/credit path must keep exactly equal to cycles x tiles.
Case idle_mesh_case(std::string name, int dim, Cycle cycles) {
  return Case{
      std::move(name), [=](Profiler* prof) {
        raw::sim::ChipConfig cfg;
        cfg.shape = raw::sim::GridShape{dim, dim};
        cfg.with_dynamic_network = false;
        raw::sim::Chip chip(cfg);
        if (prof != nullptr) {
          chip.set_profiler(prof);
          prof->start();
        }
        chip.run(cycles);
        if (prof != nullptr) prof->stop();
        std::uint64_t idle = 0;
        for (int t = 0; t < chip.num_tiles(); ++t) {
          idle += chip.tile(t).switch_proc().cycles_idle();
        }
        std::uint64_t d = kFnvBasis;
        d = fnv(d, chip.cycle());
        d = fnv(d, idle);
        d = fnv(d, chip.static_words_transferred());
        return RunOutput{chip.cycle(), d};
      }};
}

Case chaos_case(std::string name, const char* mix_str, std::uint64_t seed,
                Cycle cycles) {
  return Case{
      std::move(name), [=](Profiler* prof) {
        raw::router::ChaosSpec spec;
        raw::router::ChaosMix mix;
        if (!raw::router::parse_mix(mix_str, &mix)) std::abort();
        spec.seed = seed;
        spec.mix = mix;
        spec.run_cycles = cycles;
        spec.drain_cycles = 50 * cycles;
        spec.profiler = prof;  // the harness brackets run+drain itself
        const raw::router::ChaosResult r = raw::router::run_chaos(spec);
        std::uint64_t d = kFnvBasis;
        d = fnv(d, r.pass ? 1 : 0);
        d = fnv(d, r.offered);
        d = fnv(d, r.delivered);
        d = fnv(d, r.errors);
        d = fnv(d, r.lost);
        d = fnv(d, r.malformed);
        d = fnv(d, r.faults_injected);
        return RunOutput{cycles, d};
      }};
}

std::vector<Case> make_suite(const std::string& suite, Cycle cycles_override) {
  const auto c = [&](Cycle dflt) {
    return cycles_override > 0 ? cycles_override : dflt;
  };
  if (suite == "smoke") {
    return {router_case("router_uniform_256B", raw::net::DestPattern::kUniform,
                        256, c(8000)),
            router_case("sparse_router_256B", raw::net::DestPattern::kUniform,
                        256, c(8000), 0.05),
            mesh_case("stream_mesh_4x4", 4, c(6000), 4),
            idle_mesh_case("idle_mesh_8x8", 8, c(100000))};
  }
  if (suite == "scaling") {
    return {mesh_case("stream_mesh_8x8", 8, c(20000), 4),
            mesh_case("stream_mesh_12x12", 12, c(20000), 4)};
  }
  if (suite == "fig7") {
    return {router_case("fig7_peak_64B", raw::net::DestPattern::kPermutation,
                        64, c(200000)),
            router_case("fig7_peak_1024B", raw::net::DestPattern::kPermutation,
                        1024, c(200000)),
            router_case("fig7_avg_1024B", raw::net::DestPattern::kUniform,
                        1024, c(200000))};
  }
  if (suite == "chaos") {
    return {chaos_case("chaos_flip_stall_s1", "flip+stall", 1, c(16000)),
            chaos_case("chaos_all_transient_s2", "flip+stall+freeze+overrun", 2,
                       c(16000))};
  }
  std::fprintf(stderr, "unknown suite '%s' (smoke|scaling|fig7|chaos)\n",
               suite.c_str());
  std::exit(2);
}

// Baseline rows from a previous rawbench JSON report.
struct BaselineRow {
  std::string name;
  double cycles_per_sec = 0.0;
};

std::vector<BaselineRow> load_baseline(const char* path) {
  std::string text;
  if (!raw::common::json::read_file(path, &text)) {
    std::fprintf(stderr, "cannot read baseline %s\n", path);
    std::exit(2);
  }
  std::vector<BaselineRow> rows;
  raw::common::json::Parser p(text);
  const bool ok = p.parse_object([&](const std::string& key) {
    if (key != "results") return p.skip_value();
    return p.parse_array([&] {
      BaselineRow r;
      const bool row_ok = p.parse_object([&](const std::string& k) {
        if (k == "name") return p.parse(&r.name);
        if (k == "cycles_per_sec") return p.parse(&r.cycles_per_sec);
        return p.skip_value();
      });
      rows.push_back(std::move(r));
      return row_ok;
    });
  });
  if (!ok || rows.empty()) {
    std::fprintf(stderr, "baseline %s holds no result rows%s%s\n", path,
                 p.err.empty() ? "" : ": ", p.err.c_str());
    std::exit(2);
  }
  return rows;
}

// 1-minute load average at startup, or -1 when the platform cannot say. A
// loaded host silently poisons every cycles/second figure, so the report
// records the evidence.
double host_load_avg() {
#if defined(__linux__) || defined(__APPLE__)
  double loads[1] = {-1.0};
  if (getloadavg(loads, 1) == 1) return loads[0];
#endif
  return -1.0;
}

// The per-row "profile" JSON object: per-phase attribution, sparse-engine
// counters, and coverage (phase sum over wall).
std::string profile_json(const Profiler& prof) {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof buf, "\"wall_ns\": %" PRIu64 ", ", prof.wall_ns());
  out += buf;
  out += "\"phases\": {";
  for (int p = 0; p < raw::common::kNumProfPhases; ++p) {
    const auto phase = static_cast<raw::common::ProfPhase>(p);
    const Profiler::PhaseTotal t = prof.phase_total(phase);
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"ns\": %" PRIu64 ", \"calls\": %" PRIu64 "}",
                  p == 0 ? "" : ", ", raw::common::prof_phase_name(phase),
                  t.ns, t.calls);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "}, \"coverage\": %.4f, ", prof.coverage());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"parks\": %" PRIu64 ", \"wakes\": %" PRIu64
                ", \"commit_batches\": %" PRIu64 ", \"dirty_channels\": %" PRIu64
                ", \"dense_sweeps\": %" PRIu64 ", \"sparse_cycles\": %" PRIu64
                "}",
                prof.parks(), prof.wakes(), prof.commit_batches(),
                prof.dirty_channels(), prof.dense_sweeps(),
                prof.sparse_cycles());
  out += buf;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite = "smoke";
  Cycle cycles_override = 0;
  const char* out_path = "BENCH_engine.json";
  const char* baseline_path = nullptr;
  const char* speedscope_path = nullptr;
  bool profile = false;
  double tolerance = 0.40;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--suite") && i + 1 < argc) {
      suite = argv[++i];
    } else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc) {
      cycles_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "--profile")) {
      profile = true;
    } else if (!std::strcmp(argv[i], "--speedscope") && i + 1 < argc) {
      speedscope_path = argv[++i];
      profile = true;  // a speedscope file implies profiled rows
    } else {
      std::fprintf(stderr,
                   "usage: rawbench [--suite smoke|scaling|fig7|chaos] "
                   "[--cycles N] [--out FILE] [--baseline FILE] "
                   "[--tolerance F] [--profile] [--speedscope FILE]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const double load_avg = host_load_avg();
  std::printf("rawbench: suite '%s', %d repeats per row, host concurrency %u, "
              "load avg %.2f%s\n\n",
              suite.c_str(), kRepeats, hw, load_avg,
              profile ? ", profiling on" : "");

  const std::vector<Case> cases = make_suite(suite, cycles_override);
  std::vector<Row> rows;
  bool all_deterministic = true;

  for (const Case& cs : cases) {
    Row row;
    row.name = cs.name;
    if (profile) row.prof = std::make_unique<Profiler>();
    std::vector<double> walls;
    std::vector<double> rates;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const RunOutput out = cs.run(row.prof.get());
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      walls.push_back(wall);
      rates.push_back(static_cast<double>(out.cycles) / wall);
      if (rep == 0) {
        row.cycles = out.cycles;
        row.digest = out.digest;
      }
      row.deterministic &= out.digest == row.digest;
    }
    all_deterministic &= row.deterministic;
    std::sort(walls.begin(), walls.end());
    std::sort(rates.begin(), rates.end());
    row.wall_seconds = quantile(walls, 0.5);
    row.cycles_per_sec = quantile(rates, 0.5);
    row.cycles_per_sec_q1 = quantile(rates, 0.25);
    row.cycles_per_sec_q3 = quantile(rates, 0.75);
    std::printf("  %-24s %9" PRIu64 " cycles  %10.0f cyc/s (IQR %.0f-%.0f)  "
                "digest %016" PRIx64 "%s\n",
                cs.name.c_str(), static_cast<std::uint64_t>(row.cycles),
                row.cycles_per_sec, row.cycles_per_sec_q1,
                row.cycles_per_sec_q3, row.digest,
                row.deterministic ? "" : "  <-- MISMATCH");
    if (row.prof != nullptr) {
      std::printf("    %-22s coverage %3.0f%%  parks %" PRIu64 "  wakes %" PRIu64
                  "  dense sweeps %" PRIu64 "\n",
                  "profile:", row.prof->coverage() * 100.0, row.prof->parks(),
                  row.prof->wakes(), row.prof->dense_sweeps());
    }
    rows.push_back(std::move(row));
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"rawbench/v3\",\n  \"suite\": \"%s\",\n",
               suite.c_str());
  std::fprintf(f,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"load_avg_1m\": %.2f},\n",
               hw, load_avg);
  std::fprintf(f, "  \"repeats\": %d,\n  \"deterministic\": %s,\n",
               kRepeats, all_deterministic ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"cycles\": %" PRIu64
                 ", \"wall_seconds\": %.6f, \"cycles_per_sec\": %.1f, "
                 "\"cycles_per_sec_q1\": %.1f, \"cycles_per_sec_q3\": %.1f, "
                 "\"digest\": \"%016" PRIx64 "\", \"deterministic\": %s",
                 r.name.c_str(), static_cast<std::uint64_t>(r.cycles),
                 r.wall_seconds, r.cycles_per_sec, r.cycles_per_sec_q1,
                 r.cycles_per_sec_q3, r.digest,
                 r.deterministic ? "true" : "false");
    if (r.prof != nullptr) {
      std::fprintf(f, ", \"profile\": %s", profile_json(*r.prof).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s%s\n", out_path,
              all_deterministic ? "" : " (DETERMINISM FAILURE)");

  if (speedscope_path != nullptr) {
    std::vector<raw::common::ProfiledRun> pruns;
    for (const Row& r : rows) {
      if (r.prof != nullptr) pruns.push_back({r.name, r.prof.get()});
    }
    if (!raw::common::json::write_file(speedscope_path,
                                       raw::common::speedscope_json(pruns))) {
      std::fprintf(stderr, "cannot write %s\n", speedscope_path);
      return 1;
    }
    std::printf("wrote %s (%zu profiles)\n", speedscope_path, pruns.size());
  }

  bool baseline_ok = true;
  if (baseline_path != nullptr) {
    const std::vector<BaselineRow> base = load_baseline(baseline_path);
    for (const Row& r : rows) {
      for (const BaselineRow& b : base) {
        if (b.name != r.name) continue;
        const double floor = b.cycles_per_sec * (1.0 - tolerance);
        if (r.cycles_per_sec < floor) {
          std::fprintf(stderr,
                       "perf regression: %s median %.0f cyc/s < %.0f "
                       "(baseline %.0f, tolerance %.0f%%)\n",
                       r.name.c_str(), r.cycles_per_sec, floor,
                       b.cycles_per_sec, tolerance * 100.0);
          baseline_ok = false;
        }
        break;
      }
    }
    if (baseline_ok) {
      std::printf("baseline check passed (%s, tolerance %.0f%%)\n",
                  baseline_path, tolerance * 100.0);
    }
  }

  return (all_deterministic && baseline_ok) ? 0 : 1;
}
