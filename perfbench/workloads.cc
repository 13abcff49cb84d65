// The five benchmark workloads. Each one builds its inputs from the seed,
// repeats a checked operation until the time budget is spent, and reports
// medians over the repetitions. See README.md for why each was chosen.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cluster/fabric.h"
#include "common/histogram.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "net/route_table.h"
#include "net/traffic.h"
#include "router/chaos.h"
#include "router/config_space.h"
#include "router/layout.h"
#include "router/raw_router.h"
#include "router/schedule_compiler.h"
#include "router/soak.h"

namespace perfbench {
namespace {

using raw::common::Cycle;
using raw::common::Profiler;
using raw::common::ProfPhase;
using raw::router::RawRouter;

// ---- Reference values --------------------------------------------------

// The soak's rotation slots, in epoch order (router/soak.cc's table).
constexpr const char* kSoakSlotNames[] = {
    "clean", "flip", "stall", "flip-stall",
    "freeze", "overrun", "all", "permafreeze"};
constexpr std::size_t kSoakSlots = std::size(kSoakSlotNames);

// Figure 7-1 of the paper: 64-byte packets to uniform destinations (the
// "average" point) and 1,024-byte packets to permutation destinations (the
// headline peak).
constexpr double kPaperAvgGbps64 = 5.0;
constexpr double kPaperPeakGbps1024 = 26.9;

// Peak resident set of this process image. getrusage's ru_maxrss would
// also count the launching process, whose high-water mark survives exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// Refuses a worker count the host cannot run in parallel: oversubscribed
// rows measure the scheduler, not the simulator.
void require_cores(int threads, const char* what) {
  if (threads < 1 || threads > host_cores()) {
    throw std::runtime_error(std::string(what) + " wants " +
                             std::to_string(threads) +
                             " threads but the host has " +
                             std::to_string(host_cores()) + " cores");
  }
}

// ---- Timed loop --------------------------------------------------------

// Repeats `op(rep, traced)` until `seconds` have passed and at least
// `min_reps` untraced repetitions ran. In a traced run the repetitions
// alternate between untraced (even `rep`) and traced (odd), so the tracing
// overhead is measured on interleaved samples; repetition 0 is always
// untraced.
void timed_loop(const Params& p, int min_reps,
                const std::function<void(int, bool)>& op) {
  const std::uint64_t start = p.clock();
  const double budget_ns = p.seconds * 1e9;
  if (p.trace) min_reps *= 2;
  for (int rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(p.clock() - start);
    if (rep >= min_reps && elapsed >= budget_ns) break;
    op(rep, p.trace && rep % 2 == 1);
  }
}

// A fixed discrete-event kernel: 64 bounded FIFOs of packet ids, a hash-map
// ledger of the ids in flight, and a xorshift stream deciding arrivals,
// hops and departures. Its mix of branches, small allocations and hash
// lookups slows down with the host the way the simulator does (README.md,
// "Host-time normalization").
std::uint64_t event_kernel(int steps) {
  std::vector<std::deque<std::uint64_t>> queues(64);
  std::unordered_map<std::uint64_t, std::uint32_t> ledger;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, uid = 1, acc = 0;
  for (int s = 0; s < steps; ++s) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::deque<std::uint64_t>& in = queues[x & 63];
    if (in.size() < 64 && (x & 0x300) != 0) {
      in.push_back(uid);
      ledger.emplace(uid, static_cast<std::uint32_t>(x & 63));
      ++uid;
    }
    const std::size_t src = (x >> 8) & 63;
    std::deque<std::uint64_t>& out = queues[src];
    if (out.empty()) continue;
    const std::uint64_t id = out.front();
    out.pop_front();
    if ((x >> 20) & 1) {
      queues[(src + 1) & 63].push_back(id);
    } else if (const auto it = ledger.find(id); it != ledger.end()) {
      acc += it->second;
      ledger.erase(it);
    }
  }
  return acc + ledger.size();
}

// Times the event kernel before an operation and records the host-time
// scale it gives: kCalibrationRefNs over the kernel's time. The kernel runs
// on as many threads as the workload does, each after a short warm-up pass,
// so contention for the cores shows; the median thread's time counts, so
// one briefly preempted thread does not.
void calibrate(const Params& p, int threads, std::vector<double>& scales) {
  // Keeps the kernel's result alive so it cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  std::vector<std::uint64_t> ns(static_cast<std::size_t>(threads), 0);
  std::vector<std::exception_ptr> errors(ns.size());
  const auto pass = [&](std::size_t t) {
    try {
      sink.fetch_add(event_kernel(kCalibrationSteps / 4),
                     std::memory_order_relaxed);
      const std::uint64_t start = p.clock();
      sink.fetch_add(event_kernel(kCalibrationSteps),
                     std::memory_order_relaxed);
      ns[t] = p.clock() - start;
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < ns.size(); ++t) helpers.emplace_back(pass, t);
  pass(0);
  for (std::thread& h : helpers) h.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  scales.push_back(kCalibrationRefNs /
                   median(std::vector<double>(ns.begin(), ns.end())));
}

// Scales every host-time metric by the run's median host-time scale: times
// are multiplied by it, rates divided.
void normalize_host_time(Report& r, double scale) {
  for (const std::string& name : r.names()) {
    const Metric& m = r.get(name);
    if (m.unit == "s" || m.unit == "ms" || m.unit == "ns" ||
        m.unit == "ns/cycle") {
      r.set(name, m.value * scale);
    } else if (m.unit == "1/s") {
      r.set(name, m.value / scale);
    }
  }
}

// ---- Shared reporting -------------------------------------------------

// Declares every metric of both kinds, so each report lists them all and a
// layer a workload does not reach reads 0.
void declare_metrics(Result& res) {
  for (const MetricSpec& m : end_to_end_metrics()) {
    res.end_to_end.declare(m.name, m.unit);
  }
  for (const MetricSpec& m : per_layer_metrics()) {
    res.per_layer.declare(m.name, m.unit);
  }
}

// A latency percentile read from a histogram with an overflow bucket.
// `clamped` is set when the percentile lands in the overflow bucket; the
// value is then the bucket's lower edge, a lower bound, not a measurement.
struct Percentile {
  double value = 0.0;
  bool clamped = false;
};

Percentile percentile(const raw::common::Histogram& h, double q) {
  Percentile out;
  out.value = h.quantile(q);
  const double target = q * static_cast<double>(h.count());
  out.clamped = h.count() > 0 &&
                target > static_cast<double>(h.count() - h.overflow());
  return out;
}

// Records self time per layer from the traced spans, as a share of the
// traced operations' wall time.
void report_self_time(const SpanLog& spans, Report& r) {
  std::uint64_t total = 0;
  for (const SpanLog::Span& s : spans.spans()) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  for (const auto& [layer, ns] : spans.self_ns_by_layer()) {
    const std::string name = layer + ".self_share";
    if (r.has(name)) {
      r.set(name, ratio(static_cast<double>(ns), static_cast<double>(total)));
    }
  }
}

// ---- Router ------------------------------------------------------------

raw::router::RouterConfig router_config() {
  raw::router::RouterConfig cfg;
  // Serial engine, pinned: with 0 the RAWSIM_THREADS environment variable
  // could switch the run onto the intra-chip parallel engine.
  cfg.threads = 1;
  cfg.max_lookahead = 1;
  return cfg;
}

raw::net::TrafficConfig router_traffic(raw::common::ByteCount bytes,
                                       raw::net::DestPattern pattern,
                                       std::uint64_t seed = 0) {
  raw::net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = pattern;
  if (pattern == raw::net::DestPattern::kPermutation) {
    // Every permutation is conflict-free, so each gives the paper's peak
    // point; the seed picks which one (Fisher-Yates).
    t.permutation = {0, 1, 2, 3};
    raw::common::Rng rng(seed);
    for (std::size_t i = t.permutation.size() - 1; i > 0; --i) {
      std::swap(t.permutation[i], t.permutation[rng.below(i + 1)]);
    }
  }
  t.size = raw::net::SizeDist::kFixed;
  t.fixed_bytes = bytes;
  t.load = 1.0;
  return t;
}

// Checks that every offered packet is accounted for, the drain emptied the
// fabric and nothing arrived damaged.
void check_router_books(Gate& g, const RawRouter& r, bool drained) {
  const raw::router::PacketLedger& l = r.ledger();
  g.expect_eq<std::uint64_t>(
      r.offered_packets(),
      r.dropped_at_card() + l.erased_total() + l.in_flight.size(),
      "packet conservation");
  g.check(drained, std::string("drain outcome ") +
                       raw::router::drain_outcome_name(r.drain_outcome()));
  g.expect_eq<std::uint64_t>(r.errors(), 0, "validation errors");
  g.expect_eq<std::uint64_t>(r.lost_packets(), 0, "lost packets");
}

// The model's exact counts from a finished router.
void report_router_model(RawRouter& r, Report& out) {
  raw::sim::Chip& chip = r.chip();
  chip.sync_block_accounting();
  const double tile_cycles =
      static_cast<double>(chip.cycle()) * static_cast<double>(chip.num_tiles());
  double busy = 0, recv = 0, send = 0, proc = 0;
  for (int t = 0; t < chip.num_tiles(); ++t) {
    const raw::sim::Tile& tile = chip.tile(t);
    busy += static_cast<double>(tile.switch_proc().cycles_busy());
    recv += static_cast<double>(tile.switch_proc().cycles_blocked_recv());
    send += static_cast<double>(tile.switch_proc().cycles_blocked_send());
    proc += static_cast<double>(tile.proc_cycles_busy());
  }
  out.set("sim.switch_busy_share", ratio(busy, tile_cycles));
  out.set("sim.switch_blocked_recv_share", ratio(recv, tile_cycles));
  out.set("sim.switch_blocked_send_share", ratio(send, tile_cycles));
  out.set("sim.proc_busy_share", ratio(proc, tile_cycles));
  out.set("sim.static_words",
          static_cast<double>(chip.static_words_transferred()));
  double grants = 0, denials = 0;
  raw::common::Histogram lat(16.0, 2048);
  for (int port = 0; port < raw::router::kNumPorts; ++port) {
    const raw::router::PortCounters& c =
        r.core().counters[static_cast<std::size_t>(port)];
    grants += static_cast<double>(c.grants);
    denials += static_cast<double>(c.denials);
    lat.merge(r.output(port).latency_histogram());
  }
  out.set("router.crossbar_grant_ratio", ratio(grants, grants + denials));
  const Percentile p50 = percentile(lat, 0.50);
  const Percentile p99 = percentile(lat, 0.99);
  out.set("router.latency_p50_cycles", p50.value);
  out.set("router.latency_p99_cycles", p99.value);
  out.set("router.latency_clamped",
          static_cast<double>(p50.clamped) + static_cast<double>(p99.clamped));
  out.set("router.delivered_packets",
          static_cast<double>(r.delivered_packets()));
  out.set("router.dropped_at_card", static_cast<double>(r.dropped_at_card()));
}

// Engine-profiler totals over the traced repetitions (one Profiler per
// repetition, so flight snapshots of different runs never mix). Phase times
// sum over every traced repetition; the engine counts only over the first
// traced pass through the inputs, so they do not depend on how many
// repetitions fit in the time budget.
struct ProfTotals {
  double phase_ns[raw::common::kNumProfPhases] = {};
  double wall_ns = 0.0;
  double cycles = 0.0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t dirty = 0;
  double counted_cycles = 0.0;

  void add(const Profiler& prof, Cycle sim_cycles, bool count) {
    for (int ph = 0; ph < raw::common::kNumProfPhases; ++ph) {
      phase_ns[ph] +=
          static_cast<double>(prof.phase_total(static_cast<ProfPhase>(ph)).ns);
    }
    wall_ns += static_cast<double>(prof.wall_ns());
    cycles += static_cast<double>(sim_cycles);
    if (!count) return;
    parks += prof.parks();
    wakes += prof.wakes();
    dirty += prof.dirty_channels();
    counted_cycles += static_cast<double>(sim_cycles);
  }

  void report(Report& r) const {
    const auto per_cycle = [&](ProfPhase ph) {
      return ratio(phase_ns[static_cast<int>(ph)], cycles);
    };
    const auto per_counted = [&](std::uint64_t n) {
      return ratio(static_cast<double>(n), counted_cycles);
    };
    double sum = 0.0;
    for (const double ns : phase_ns) sum += ns;
    r.set("sim.compute_ns_per_cycle", per_cycle(ProfPhase::kCompute));
    r.set("sim.commit_ns_per_cycle", per_cycle(ProfPhase::kChannelCommit));
    r.set("sim.serial_ns_per_cycle", per_cycle(ProfPhase::kSerialSection));
    r.set("sim.park_wake_ns_per_cycle", per_cycle(ProfPhase::kParkWake));
    r.set("sim.profile_coverage", ratio(sum, wall_ns));
    r.set("sim.parks_per_cycle", per_counted(parks));
    r.set("sim.wakes_per_cycle", per_counted(wakes));
    r.set("sim.dirty_channels_per_cycle", per_counted(dirty));
  }
};

// Phase-time sum of a profiler (0 for none): the sim layer's share of a
// router call.
std::uint64_t sim_ns(const Profiler* prof) {
  return prof == nullptr ? 0 : prof->phase_ns_sum();
}

struct RouterShape {
  const char* name;
  raw::common::ByteCount bytes;
  raw::net::DestPattern pattern;
  double paper_gbps;
};

double gap_pct(double gbps, double paper_gbps) {
  return 100.0 * std::fabs(gbps - paper_gbps) / paper_gbps;
}

// The Figure 7-1 64-byte average point on the default seed, run once before
// timing. It warms the simulator and gives the workloads that have no paper
// point of their own the model's error beside their speed.
double accuracy_reference(const Params& p, Result& res) {
  res.gate.begin_op("accuracy reference (64 B uniform)");
  RawRouter r(router_config(), raw::net::RouteTable::simple4(),
              router_traffic(64, raw::net::DestPattern::kUniform),
              p.refs->default_seed);
  r.run(p.router_cycles);
  const double gbps = r.gbps();
  check_router_books(res.gate, r, r.drain(20 * p.router_cycles));
  res.gate.end_op();
  char line[128];
  std::snprintf(line, sizeof line,
                "accuracy reference: 64 B uniform %.4f Gbps (paper %.1f)",
                gbps, kPaperAvgGbps64);
  res.notes.push_back(line);
  return gap_pct(gbps, kPaperAvgGbps64);
}

// Seed of a workload's input `j` (one of Params::inputs).
std::uint64_t input_seed(std::uint64_t seed, std::size_t j) {
  return raw::common::mix64(seed ^
                            raw::common::mix64(static_cast<std::uint64_t>(j) + 1));
}

// The input repetition `rep` runs. A traced repetition reruns the input of
// the untraced one before it.
std::size_t input_of(const Params& p, int rep) {
  return static_cast<std::size_t>(p.trace ? rep / 2 : rep) %
         static_cast<std::size_t>(p.inputs);
}

// True for the untraced repetition that runs its input for the first time.
bool first_run(const Params& p, int rep, bool traced) {
  return !traced && (p.trace ? rep / 2 : rep) < p.inputs;
}

// FNV-1a fold of the per-input digests: the value the gate pins.
std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : digests) {
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Result run_router(const Params& p, const RouterShape& shape,
                  std::uint64_t pinned_digest) {
  Result res;
  declare_metrics(res);
  Gate& g = res.gate;
  SpanLog plain(false, p.clock);
  SpanLog traced(true, p.clock);
  ProfTotals prof_totals;
  std::vector<double> op_ns[2], setup_ns, run_ns_per_cycle, drain_ns_per_cycle,
      ns_per_packet, ns_per_word;
  const auto inputs = static_cast<std::size_t>(p.inputs);
  std::vector<std::uint64_t> digests(inputs, 0);
  std::vector<double> gbps_by_input(inputs, 0.0), scales;

  timed_loop(p, std::max(p.min_reps, p.inputs), [&](int rep, bool tr) {
    SpanLog& spans = tr ? traced : plain;
    calibrate(p, 1, scales);
    const std::size_t j = input_of(p, rep);
    const bool first = first_run(p, rep, tr);
    const std::unique_ptr<Profiler> prof =
        tr ? std::make_unique<Profiler>() : nullptr;
    g.begin_op(std::string(shape.name) + " run " + std::to_string(rep) +
               " input " + std::to_string(j));
    const std::uint64_t seed = input_seed(p.seed, j);
    const SpanLog::Open op = spans.open("bench", "router_op");
    SpanLog::Open o = spans.open("router", "ctor");
    RawRouter r(router_config(), raw::net::RouteTable::simple4(),
                router_traffic(shape.bytes, shape.pattern, seed), seed);
    const std::uint64_t ctor_ns = spans.close(o);
    if (prof) {
      r.set_profiler(prof.get());
      prof->start();
    }
    std::uint64_t run_ns = 0;
    for (Cycle done = 0; done < p.router_cycles;) {
      const Cycle chunk = std::min(p.run_chunk_cycles, p.router_cycles - done);
      const std::uint64_t sim_before = sim_ns(prof.get());
      o = spans.open("router", "run");
      const raw::router::RunStatus st = r.run(chunk);
      run_ns += spans.close(o);
      spans.attribute(o, "sim", sim_ns(prof.get()) - sim_before);
      g.check(st == raw::router::RunStatus::kOk, "run status");
      done += chunk;
    }
    const double gbps = r.gbps();
    const Cycle run_cycles = r.chip().cycle();
    const std::uint64_t sim_before = sim_ns(prof.get());
    o = spans.open("router", "drain");
    const bool drained = r.drain(20 * p.router_cycles);
    const std::uint64_t drain_ns = spans.close(o);
    spans.attribute(o, "sim", sim_ns(prof.get()) - sim_before);
    spans.close(op);
    const Cycle cycles = r.chip().cycle();
    if (prof) {
      prof->stop();
      r.set_profiler(nullptr);
      prof_totals.add(*prof, cycles, rep / 2 < p.inputs);
    }
    const double work_ns = static_cast<double>(run_ns + drain_ns);
    op_ns[tr].push_back(work_ns / static_cast<double>(cycles));
    if (!tr) {
      setup_ns.push_back(static_cast<double>(ctor_ns));
      run_ns_per_cycle.push_back(static_cast<double>(run_ns) /
                                 static_cast<double>(run_cycles));
      drain_ns_per_cycle.push_back(
          ratio(static_cast<double>(drain_ns),
                static_cast<double>(cycles - run_cycles)));
      ns_per_packet.push_back(
          ratio(work_ns, static_cast<double>(r.delivered_packets())));
      ns_per_word.push_back(ratio(
          work_ns, static_cast<double>(r.chip().static_words_transferred())));
    }

    check_router_books(g, r, drained);
    const std::uint64_t digest = r.state_digest();
    if (first) {
      digests[j] = digest;
      gbps_by_input[j] = gbps;
      if (rep == 0) report_router_model(r, res.per_layer);
    } else {
      g.expect_eq(digest, digests[j], "digest repeats across runs");
    }
    g.end_op();
  });

  res.host_scale = median(scales);
  double gbps = 0.0;
  for (const double v : gbps_by_input) gbps += v / static_cast<double>(inputs);
  const std::uint64_t digest = fold_digests(digests);
  if (p.seed == p.refs->default_seed) {
    g.begin_op(std::string(shape.name) + " pinned reference");
    g.expect_eq(digest, pinned_digest, "pinned digest of the inputs' digests");
    g.end_op();
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "%s: %.4f Gbps simulated over %zu inputs (paper %.1f), digest "
                "0x%016" PRIx64,
                shape.name, gbps, inputs, shape.paper_gbps, digest);
  res.notes.push_back(line);

  // End-to-end metrics come from the untraced repetitions only.
  res.end_to_end.set("setup_s", median(setup_ns) / 1e9);
  res.end_to_end.set("work_per_s", 1e9 / median(op_ns[0]));
  res.end_to_end.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end.set("paper_gap_pct", gap_pct(gbps, shape.paper_gbps));

  Report& l = res.per_layer;
  l.set("router.ctor_ms", median(setup_ns) / 1e6);
  l.set("router.run_ns_per_cycle", median(run_ns_per_cycle));
  l.set("router.drain_ns_per_cycle", median(drain_ns_per_cycle));
  l.set("router.ns_per_delivered_packet", median(ns_per_packet));
  l.set("router.ns_per_static_word", median(ns_per_word));
  if (p.trace) {
    prof_totals.report(l);
    l.set("sim.trace_overhead", ratio(median(op_ns[1]), median(op_ns[0])));
    report_self_time(traced, l);
    res.trace_json = traced.chrome_json();
  }
  return res;
}

// ---- Soak --------------------------------------------------------------

raw::router::SoakSpec soak_spec(const Params& p) {
  raw::router::SoakSpec spec;
  spec.seed = p.seed;
  spec.epoch_cycles = p.soak_epoch_cycles;
  spec.drain_cycles = 20 * p.soak_epoch_cycles;
  spec.threads = 1;
  spec.reliable_links = true;
  spec.recovery = true;
  // Pinned: with recovery on, the checkpoint interval changes the
  // permafreeze epoch's result (README.md, "Known defect").
  spec.checkpoint_interval = 65536;
  return spec;
}

Result run_soak(const Params& p) {
  Result res;
  declare_metrics(res);
  Gate& g = res.gate;
  SpanLog plain(false, p.clock);
  SpanLog traced(true, p.clock);
  const double gap = accuracy_reference(p, res);
  const raw::router::SoakSpec spec = soak_spec(p);
  const bool pinned = p.seed == p.refs->default_seed;
  const std::size_t slots = kSoakSlots;

  // Wall ns of each slot's run_chaos call, per slot and repetition kind.
  std::vector<std::vector<double>> slot_ns[2];
  slot_ns[0].resize(slots);
  slot_ns[1].resize(slots);
  std::vector<double> slot_cycles(slots, 0.0), setup_ns;
  std::vector<std::uint64_t> first_digests(slots, 0);
  ProfTotals prof_totals;
  double drain_ns = 0.0, drain_cycles = 0.0;
  std::uint64_t faults = 0, retransmits = 0, sweeps = 0, checkpoints = 0,
                recoveries = 0, lost = 0;
  std::vector<double> scales;

  timed_loop(p, p.min_reps, [&](int rep, bool tr) {
    SpanLog& spans = tr ? traced : plain;
    const SpanLog::Open op = spans.open("bench", "soak_rotation");
    for (std::size_t e = 0; e < slots; ++e) {
      const char* slot = kSoakSlotNames[e];
      g.begin_op(std::string("soak rotation ") + std::to_string(rep) +
                 " slot " + slot);
      raw::router::ChaosSpec cs =
          raw::router::epoch_spec(spec, static_cast<std::int64_t>(e));
      calibrate(p, 1, scales);
      // The soak's per-epoch set-up: it builds the epoch's router to
      // materialize the fault schedule before running the epoch.
      SpanLog::Open o = spans.open("router", "ctor");
      {
        const RawRouter epoch_router(raw::router::router_config_for(cs),
                                     raw::net::RouteTable::simple4(),
                                     raw::router::traffic_for(cs), cs.seed);
      }
      const std::uint64_t ctor_ns = spans.close(o);
      if (!tr) setup_ns.push_back(static_cast<double>(ctor_ns));

      std::unique_ptr<Profiler> prof;
      if (tr) {
        prof = std::make_unique<Profiler>();
        prof->enable_flight(/*capacity=*/1024, /*interval=*/4096);
        cs.profiler = prof.get();
      }
      o = spans.open("router", std::string("epoch.") + slot);
      const raw::router::ChaosResult r = raw::router::run_chaos(cs);
      slot_ns[tr][e].push_back(static_cast<double>(spans.close(o)));
      if (prof) {
        spans.attribute(o, "sim", prof->phase_ns_sum());
        prof_totals.add(*prof, r.end_cycle, rep == 1);
        // Split the epoch at the end of its run phase with the flight
        // recorder's (cycle, wall) snapshots.
        for (const Profiler::FlightSnapshot& snap : prof->flight()) {
          if (snap.cycle >= cs.run_cycles) {
            drain_ns += static_cast<double>(prof->wall_ns() - snap.wall_ns);
            drain_cycles += static_cast<double>(r.end_cycle - snap.cycle);
            break;
          }
        }
      }

      g.check(r.pass, "verdict: " + r.failure);
      g.check(r.outcome == raw::router::DrainOutcome::kDrained ||
                  r.outcome == raw::router::DrainOutcome::kDrainedDegraded,
              std::string("drain outcome ") +
                  raw::router::drain_outcome_name(r.outcome));
      g.expect_eq<std::uint64_t>(r.errors, 0, "validation errors");
      if (rep == 0) {
        first_digests[e] = r.digest;
        slot_cycles[e] = static_cast<double>(r.end_cycle);
        if (pinned && e < p.refs->soak_digests.size()) {
          g.expect_eq(r.digest, p.refs->soak_digests[e], "pinned epoch digest");
        }
        faults += r.faults_injected;
        retransmits += r.link_retransmits;
        sweeps += r.invariant_sweeps;
        checkpoints += r.checkpoints_captured;
        recoveries += r.degraded ? 1 : 0;
        lost += r.lost;
        char line[200];
        std::snprintf(line, sizeof line,
                      "soak slot %-11s %-16s %8" PRIu64 " cycles %6" PRIu64
                      " delivered  digest 0x%016" PRIx64 "  %s",
                      slot, raw::router::drain_outcome_name(r.outcome),
                      static_cast<std::uint64_t>(r.end_cycle), r.delivered,
                      r.digest, r.pass ? "PASS" : "FAIL");
        res.notes.push_back(line);
      } else {
        g.expect_eq(r.digest, first_digests[e], "digest repeats across runs");
      }
      g.end_op();
    }
    spans.close(op);
  });

  res.host_scale = median(scales);
  // The rotation's rate from per-slot medians, so one slow slot in one
  // repetition does not move the others.
  double cycles = 0.0, ns[2] = {0.0, 0.0};
  for (std::size_t e = 0; e < slots; ++e) {
    cycles += slot_cycles[e];
    ns[0] += median(slot_ns[0][e]);
    ns[1] += median(slot_ns[1][e]);
  }
  res.end_to_end.set("setup_s", median(setup_ns) / 1e9);
  res.end_to_end.set("work_per_s", 1e9 * cycles / ns[0]);
  res.end_to_end.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end.set("paper_gap_pct", gap);

  Report& l = res.per_layer;
  l.set("router.ctor_ms", median(setup_ns) / 1e6);
  for (std::size_t e = 0; e < slots; ++e) {
    l.set(std::string("soak.ns_per_cycle.") + kSoakSlotNames[e],
          ratio(median(slot_ns[0][e]), slot_cycles[e]));
  }
  l.set("soak.faults_injected", static_cast<double>(faults));
  l.set("soak.link_retransmits", static_cast<double>(retransmits));
  l.set("soak.invariant_sweeps", static_cast<double>(sweeps));
  l.set("soak.checkpoints", static_cast<double>(checkpoints));
  l.set("soak.recoveries", static_cast<double>(recoveries));
  l.set("soak.lost_packets", static_cast<double>(lost));
  if (p.trace) {
    prof_totals.report(l);
    l.set("router.drain_ns_per_cycle", ratio(drain_ns, drain_cycles));
    l.set("sim.trace_overhead", ratio(ns[1], ns[0]));
    report_self_time(traced, l);
    res.trace_json = traced.chrome_json();
  }
  return res;
}

// ---- Cluster -----------------------------------------------------------

raw::cluster::ClusterConfig cluster_config(int workers) {
  raw::cluster::ClusterConfig cfg;
  cfg.topology = raw::cluster::TopologyKind::kLeafSpine;
  cfg.num_chips = 16;
  cfg.threads = workers;
  cfg.link_latency = 16;
  cfg.traffic.fixed_bytes = 512;
  cfg.traffic.remote_fraction = 0.5;
  // Below trunk saturation, so per-cycle work does not drift with run
  // length (README.md, "cluster_16chip").
  cfg.traffic.load = 0.2;
  return cfg;
}

std::string percentile_text(const Percentile& q) {
  char buf[48];
  if (q.clamped) {
    std::snprintf(buf, sizeof buf, "clamped (>= %.0f)", q.value);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f", q.value);
  }
  return buf;
}

void report_cluster_model(const raw::cluster::ClusterFabric& fabric,
                          Result& res) {
  const raw::common::Histogram lat = fabric.latency_histogram();
  const Percentile p50 = percentile(lat, 0.50);
  const Percentile p99 = percentile(lat, 0.99);
  std::uint64_t link_words = 0;
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    link_words += fabric.link(i).delivered_total();
  }
  Report& l = res.per_layer;
  l.set("cluster.link_words", static_cast<double>(link_words));
  l.set("cluster.latency_p50_cycles", p50.value);
  l.set("cluster.latency_p99_cycles", p99.value);
  l.set("cluster.latency_overflow", static_cast<double>(lat.overflow()));
  l.set("cluster.latency_clamped",
        static_cast<double>(p50.clamped) + static_cast<double>(p99.clamped));
  char line[256];
  std::snprintf(line, sizeof line,
                "cluster_16chip input 0: %" PRIu64 " delivered, %.4f Gbps, "
                "latency p50 %s p99 %s cycles, overflow %" PRIu64,
                fabric.delivered_packets(), fabric.aggregate_gbps(),
                percentile_text(p50).c_str(), percentile_text(p99).c_str(),
                lat.overflow());
  res.notes.push_back(line);
}

Result run_cluster(const Params& p) {
  Result res;
  declare_metrics(res);
  Gate& g = res.gate;
  require_cores(p.cluster_workers, "cluster_16chip");
  SpanLog plain(false, p.clock);
  SpanLog traced(true, p.clock);
  const double gap = accuracy_reference(p, res);
  std::vector<double> op_ns[2], setup_ns, chip_ns_per_cycle, efficiency,
      imbalance;
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(p.inputs), 0);
  std::vector<double> scales;

  timed_loop(p, std::max(p.min_reps, p.inputs), [&](int rep, bool tr) {
    SpanLog& spans = tr ? traced : plain;
    calibrate(p, p.cluster_workers, scales);
    const std::size_t j = input_of(p, rep);
    g.begin_op("cluster run " + std::to_string(rep) + " input " +
               std::to_string(j));
    const SpanLog::Open op = spans.open("bench", "cluster_op");
    SpanLog::Open o = spans.open("cluster", "ctor");
    raw::cluster::ClusterFabric fabric(cluster_config(p.cluster_workers),
                                       input_seed(p.seed, j));
    const std::uint64_t ctor_ns = spans.close(o);
    g.expect_eq<std::uint64_t>(static_cast<std::uint64_t>(fabric.workers()),
                               static_cast<std::uint64_t>(p.cluster_workers),
                               "thread-per-chip workers");
    std::uint64_t wall = 0;
    for (Cycle done = 0; done < p.cluster_cycles;) {
      const Cycle chunk = std::min(p.run_chunk_cycles, p.cluster_cycles - done);
      o = spans.open("cluster", "run");
      fabric.run(chunk);
      wall += spans.close(o);
      done += chunk;
    }
    o = spans.open("cluster", "drain");
    const bool drained = fabric.drain(40 * p.cluster_cycles);
    wall += spans.close(o);
    spans.close(op);
    const double cycles = static_cast<double>(fabric.cycle());
    op_ns[tr].push_back(static_cast<double>(wall) / cycles);
    if (!tr) {
      setup_ns.push_back(static_cast<double>(ctor_ns));
      double sum = 0.0, max = 0.0;
      for (const std::uint64_t ns : fabric.chip_wall_ns()) {
        sum += static_cast<double>(ns);
        max = std::max(max, static_cast<double>(ns));
      }
      const double chips = static_cast<double>(fabric.num_chips());
      chip_ns_per_cycle.push_back(sum / (chips * cycles));
      efficiency.push_back(sum / (static_cast<double>(fabric.workers()) *
                                  static_cast<double>(wall)));
      imbalance.push_back(ratio(max, sum / chips));
    }

    const raw::router::PacketLedger& l = fabric.ledger();
    g.expect_eq<std::uint64_t>(
        fabric.offered_packets(),
        fabric.dropped_at_card() + l.erased_total() + l.in_flight.size(),
        "packet conservation");
    g.check(drained, "drain");
    g.expect_eq<std::uint64_t>(fabric.errors(), 0, "validation errors");
    g.expect_eq<std::uint64_t>(fabric.lost_packets(), 0, "lost packets");
    const std::uint64_t digest = fabric.cluster_digest();
    if (first_run(p, rep, tr)) {
      digests[j] = digest;
      if (rep == 0) report_cluster_model(fabric, res);
    } else {
      g.expect_eq(digest, digests[j], "digest repeats across runs");
    }
    g.end_op();
  });
  res.host_scale = median(scales);
  const std::uint64_t digest = fold_digests(digests);
  if (p.seed == p.refs->default_seed) {
    g.begin_op("cluster_16chip pinned reference");
    g.expect_eq(digest, p.refs->cluster_digest,
                "digest equals the pinned serial-engine digest");
    g.end_op();
  }
  char line[128];
  std::snprintf(line, sizeof line,
                "cluster_16chip: %zu inputs, digest 0x%016" PRIx64, digests.size(),
                digest);
  res.notes.push_back(line);

  res.end_to_end.set("setup_s", median(setup_ns) / 1e9);
  res.end_to_end.set("work_per_s", 1e9 / median(op_ns[0]));
  res.end_to_end.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end.set("paper_gap_pct", gap);

  Report& l = res.per_layer;
  l.set("cluster.ctor_ms", median(setup_ns) / 1e6);
  l.set("exec.chip_ns_per_cycle", median(chip_ns_per_cycle));
  l.set("exec.parallel_efficiency", median(efficiency));
  l.set("exec.chip_imbalance", median(imbalance));
  if (p.trace) {
    l.set("sim.trace_overhead", ratio(median(op_ns[1]), median(op_ns[0])));
    report_self_time(traced, l);
    res.trace_json = traced.chrome_json();
  }
  return res;
}

// ---- Configuration space ----------------------------------------------

Result run_config_space(const Params& p) {
  Result res;
  declare_metrics(res);
  Gate& g = res.gate;
  SpanLog plain(false, p.clock);
  SpanLog traced(true, p.clock);
  const double gap = accuracy_reference(p, res);
  std::map<int, std::vector<double>> ring_ns;
  std::map<int, raw::router::SpaceSummary> summaries;
  std::vector<double> op_ns[2], setup_ns, scales;

  // One checked enumerate_space call; returns its wall ns.
  const auto ring = [&](SpanLog& spans, int r) {
    g.begin_op("enumerate_space(" + std::to_string(r) + ")");
    const SpanLog::Open o =
        spans.open("config_space", "ring" + std::to_string(r));
    raw::router::SpaceSummary sum = raw::router::enumerate_space(r);
    const std::uint64_t ns = spans.close(o);
    const auto it = p.refs->config_space.find(r);
    g.check(it != p.refs->config_space.end(), "no pinned counts");
    if (it != p.refs->config_space.end()) {
      g.expect_eq<std::uint64_t>(sum.global_configs, it->second.first,
                                 "global configurations");
      g.expect_eq<std::uint64_t>(sum.distinct_tile_configs, it->second.second,
                                 "distinct tile configurations");
    }
    g.end_op();
    summaries[r] = std::move(sum);
    return static_cast<double>(ns);
  };

  timed_loop(p, p.min_reps, [&](int, bool tr) {
    SpanLog& spans = tr ? traced : plain;
    calibrate(p, 1, scales);
    const SpanLog::Open op = spans.open("bench", "config_space_op");
    // The set-up that consumes the minimization: the router's schedule
    // compiler enumerates the 4-port space when it is built.
    const SpanLog::Open o = spans.open("router", "schedule_compiler");
    {
      const raw::router::Layout layout;
      const raw::router::ScheduleCompiler compiler(layout);
    }
    const std::uint64_t ctor_ns = spans.close(o);
    if (!tr) setup_ns.push_back(static_cast<double>(ctor_ns));
    double configs = 0.0, ns = 0.0;
    for (const int r : p.config_timed_rings) {
      const double t = ring(spans, r);
      configs += static_cast<double>(summaries[r].global_configs);
      ns += t;
      if (!tr) ring_ns[r].push_back(t);
    }
    op_ns[tr].push_back(ns / configs);
    spans.close(op);
  });
  SpanLog& once = p.trace ? traced : plain;
  for (const int r : p.config_once_rings) {
    calibrate(p, 1, scales);
    const SpanLog::Open op = once.open("bench", "config_space_once");
    ring_ns[r].push_back(ring(once, r));
    once.close(op);
  }
  res.host_scale = median(scales);

  for (const auto& [r, sum] : summaries) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "config_space ring %d: %" PRIu64 " global -> %" PRIu64
                  " tile configurations, %.3f ms",
                  r, sum.global_configs, sum.distinct_tile_configs,
                  median(ring_ns[r]) / 1e6);
    res.notes.push_back(line);
  }

  res.end_to_end.set("setup_s", median(setup_ns) / 1e9);
  res.end_to_end.set("work_per_s", 1e9 / median(op_ns[0]));
  res.end_to_end.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end.set("paper_gap_pct", gap);

  Report& l = res.per_layer;
  for (const auto& [r, sum] : summaries) {
    const std::string tag = ".r" + std::to_string(r);
    if (l.has("config_space.ns_per_config" + tag)) {
      l.set("config_space.ns_per_config" + tag,
            median(ring_ns[r]) / static_cast<double>(sum.global_configs));
    }
    if (l.has("config_space.global_configs" + tag)) {
      l.set("config_space.global_configs" + tag,
            static_cast<double>(sum.global_configs));
      l.set("config_space.distinct_tile_configs" + tag,
            static_cast<double>(sum.distinct_tile_configs));
    }
  }
  if (p.trace) {
    l.set("sim.trace_overhead", ratio(median(op_ns[1]), median(op_ns[0])));
    report_self_time(traced, l);
    res.trace_json = traced.chrome_json();
  }
  return res;
}

}  // namespace

const References& pinned_references() {
  static const References refs = [] {
    References r;
    r.default_seed = 1;
    r.router_64B_digest = 0xc5a08373e9ab2e33ULL;
    r.router_1024B_digest = 0xf92823f624ae522eULL;
    r.soak_digests = {0x8a755768c3e4c6f9ULL, 0xae75adf843a7f517ULL,
                      0x5bac70c13466bd2eULL, 0xa4b1649d6b22ef53ULL,
                      0xd74ba111c96e883eULL, 0xbc037c8170a9d372ULL,
                      0x3a0cf9c9fc3e5bfcULL, 0xf7c2ef4ef3ddd029ULL};
    // Computed with the cluster on one worker (the serial epoch schedule).
    r.cluster_digest = 0x8da91d9bc0cd93e8ULL;
    r.config_space = {{4, {2500, 36}},
                      {6, {705894, 145}},
                      {7, {14680064, 212}}};
    return r;
  }();
  return refs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "router_64B", "router_1024B", "soak_rotating", "cluster_16chip",
      "config_space"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"work_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"paper_gap_pct", "%"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> m = {
        // Host time, from the spans around each public call.
        {"router.ctor_ms", "ms"},
        {"cluster.ctor_ms", "ms"},
        {"router.run_ns_per_cycle", "ns/cycle"},
        {"router.drain_ns_per_cycle", "ns/cycle"},
        {"router.ns_per_delivered_packet", "ns"},
        {"router.ns_per_static_word", "ns"},
        {"exec.chip_ns_per_cycle", "ns/cycle"},
        {"exec.parallel_efficiency", "ratio"},
        {"exec.chip_imbalance", "ratio"},
        {"config_space.ns_per_config.r6", "ns"},
        {"config_space.ns_per_config.r7", "ns"},
        // Self time per layer, as a share of the traced operations.
        {"bench.self_share", "ratio"},
        {"router.self_share", "ratio"},
        {"sim.self_share", "ratio"},
        {"cluster.self_share", "ratio"},
        {"config_space.self_share", "ratio"},
        // Host time, from the engine profiler.
        {"sim.compute_ns_per_cycle", "ns/cycle"},
        {"sim.commit_ns_per_cycle", "ns/cycle"},
        {"sim.serial_ns_per_cycle", "ns/cycle"},
        {"sim.park_wake_ns_per_cycle", "ns/cycle"},
        {"sim.profile_coverage", "ratio"},
        {"sim.trace_overhead", "ratio"}};
    for (const char* slot : kSoakSlotNames) {
      m.push_back({std::string("soak.ns_per_cycle.") + slot, "ns/cycle"});
    }
    const std::vector<MetricSpec> counts = {
        // Model counts (exact).
        {"sim.switch_busy_share", "ratio", true},
        {"sim.switch_blocked_recv_share", "ratio", true},
        {"sim.switch_blocked_send_share", "ratio", true},
        {"sim.proc_busy_share", "ratio", true},
        {"sim.static_words", "count", true},
        {"router.crossbar_grant_ratio", "ratio", true},
        {"router.latency_p50_cycles", "cycles", true},
        {"router.latency_p99_cycles", "cycles", true},
        {"router.latency_clamped", "count", true},
        {"router.delivered_packets", "count", true},
        {"router.dropped_at_card", "count", true},
        // Engine counts (exact).
        {"sim.parks_per_cycle", "1/cycle", true},
        {"sim.wakes_per_cycle", "1/cycle", true},
        {"sim.dirty_channels_per_cycle", "1/cycle", true},
        // Soak counts (exact).
        {"soak.faults_injected", "count", true},
        {"soak.link_retransmits", "count", true},
        {"soak.invariant_sweeps", "count", true},
        {"soak.checkpoints", "count", true},
        {"soak.recoveries", "count", true},
        {"soak.lost_packets", "count", true},
        // Cluster counts (exact).
        {"cluster.link_words", "count", true},
        {"cluster.latency_p50_cycles", "cycles", true},
        {"cluster.latency_p99_cycles", "cycles", true},
        {"cluster.latency_overflow", "count", true},
        {"cluster.latency_clamped", "count", true}};
    m.insert(m.end(), counts.begin(), counts.end());
    for (const int r : {4, 6, 7}) {
      m.push_back(
          {"config_space.global_configs.r" + std::to_string(r), "count", true});
      m.push_back({"config_space.distinct_tile_configs.r" + std::to_string(r),
                   "count", true});
    }
    return m;
  }();
  return specs;
}

Result run_workload(const std::string& name, const Params& params) {
  Params p = params;
  if (p.refs == nullptr) p.refs = &pinned_references();
  Result res;
  if (name == "router_64B") {
    res = run_router(p, {"router_64B", 64, raw::net::DestPattern::kUniform,
                         kPaperAvgGbps64},
                     p.refs->router_64B_digest);
  } else if (name == "router_1024B") {
    res = run_router(p, {"router_1024B", 1024,
                         raw::net::DestPattern::kPermutation,
                         kPaperPeakGbps1024},
                     p.refs->router_1024B_digest);
  } else if (name == "soak_rotating") {
    res = run_soak(p);
  } else if (name == "cluster_16chip") {
    res = run_cluster(p);
  } else if (name == "config_space") {
    res = run_config_space(p);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  res.gate.end_op();
  char line[160];
  std::snprintf(line, sizeof line,
                "host speed: median host-time scale %.4f (calibration kernel "
                "%.2f ns per step; reference %.0f)",
                res.host_scale,
                kCalibrationRefNs / res.host_scale / kCalibrationSteps,
                kCalibrationRefNs / kCalibrationSteps);
  res.notes.push_back(line);
  normalize_host_time(res.end_to_end, res.host_scale);
  normalize_host_time(res.per_layer, res.host_scale);
  return res;
}

}  // namespace perfbench
