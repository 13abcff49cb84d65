// Benchmark driver: runs one workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//   perfbench_driver --list-metrics
//
// Prints the host record and human-readable notes, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 2 on bad arguments or a host it refuses to measure on.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && !std::strcmp(argv[1], "--list-metrics")) {
    for (const perfbench::MetricSpec& m : perfbench::end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    for (const perfbench::MetricSpec& m : perfbench::per_layer_metrics()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  perfbench::Params p;
  std::string workload;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      p.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      p.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && p.seconds > 0;
    } else if (a == "--trace") {
      have_trace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
      p.trace = !std::strcmp(v, "1");
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
#ifdef PERFBENCH_SANITIZED
  return usage("refusing to measure a sanitizer build");
#endif

  const unsigned cores = std::thread::hardware_concurrency();
  // Thread-per-chip workers for the cluster: fixed, and below the core
  // count so the calling thread's barrier work never shares a core.
  p.cluster_workers = cores >= 4 ? 3 : std::max(1, static_cast<int>(cores) - 1);
  const std::string load_before = read_first_line("/proc/loadavg");

  perfbench::Result res;
  try {
    res = perfbench::run_workload(workload, p);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const std::string load_after = read_first_line("/proc/loadavg");

  std::printf("host: nproc=%u cpu=\"%s\" build=%s cluster_workers=%d\n", cores,
              cpu_model().c_str(), PERFBENCH_BUILD_TYPE, p.cluster_workers);
  std::printf("host: loadavg before \"%s\" after \"%s\"\n", load_before.c_str(),
              load_after.c_str());
  std::printf("run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload.c_str(), p.seed, p.seconds, p.trace ? 1 : 0);
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  for (const std::string& m : res.gate.messages()) {
    std::printf("FAILED %s\n", m.c_str());
  }
  const perfbench::Report& shown = p.trace ? res.per_layer : res.end_to_end;
  for (const std::string& name : shown.names()) {
    const perfbench::Metric& m = shown.get(name);
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (p.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << res.trace_json;
    if (!out) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   trace_out.c_str());
      return 2;
    }
    std::printf("trace: %s\n", trace_out.c_str());
  }

  const bool correct = res.gate.failed() == 0 && res.gate.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", res.gate.attempted(),
              res.gate.failed(), shown.json().c_str());
  return 0;
}
