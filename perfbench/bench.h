// rawswitch performance benchmark: shared pieces of the driver and its
// self-tests.
//
// The benchmark drives the simulator only through its public API
// (router::RawRouter, router::run_chaos/epoch_spec, cluster::ClusterFabric,
// router::enumerate_space) and times every call into a layer from outside.
// A traced run additionally records one span per call in memory (written
// out as Chrome trace JSON at exit) and attaches the existing
// common::Profiler where the API accepts one; untraced runs record nothing
// and give the end-to-end numbers. See perfbench/README.md for the metric
// definitions and the layer-to-end-to-end map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanosecond clock; replaceable so the self-tests can drive the
/// span arithmetic with a deterministic clock.
using ClockFn = std::uint64_t (*)();
std::uint64_t steady_ns();

/// In-memory span log. Timestamps are always taken (the caller needs the
/// durations for end-to-end metrics); spans are stored only when recording
/// is on, so an untraced run pays two clock reads per call and nothing else.
class SpanLog {
 public:
  struct Span {
    std::string layer;  // module the call enters: bench, router, cluster, ...
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    /// Time inside this span that a nested layer reported without spans of
    /// its own (the profiler's sim phases inside a router call).
    std::string inner_layer;
    std::uint64_t inner_ns = 0;
  };

  /// An open span: its index (-1 when not recording) and start time.
  struct Open {
    int id = -1;
    std::uint64_t start_ns = 0;
  };

  explicit SpanLog(bool record, ClockFn clock = steady_ns)
      : record_(record), clock_(clock) {}

  /// Opens a span nested in the innermost open one.
  Open open(const std::string& layer, const std::string& name);
  /// Closes `o` (which must be the innermost open span) and returns its
  /// duration in nanoseconds.
  std::uint64_t close(const Open& o);
  /// Attributes `ns` of `o`'s duration to `layer` (see Span::inner_ns).
  void attribute(const Open& o, const std::string& layer, std::uint64_t ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer: each span's duration minus the part its child
  /// spans and inner attribution cover, summed by layer.
  [[nodiscard]] std::map<std::string, std::uint64_t> self_ns_by_layer() const;
  /// Chrome trace_event JSON ("X" events, microseconds from the first span).
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool record_;
  ClockFn clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Host-speed calibration (README.md, "Host-time normalization"). A shared
/// VM's speed can change by a factor of 2 within minutes, so the driver
/// times a fixed event-driven kernel before every operation and scales the
/// run's host times to a reference host on which the kernel takes
/// kCalibrationRefNs.
inline constexpr int kCalibrationSteps = 200000;
inline constexpr double kCalibrationRefNs = 5e6;  // 25 ns per step

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in declaration order, rendered as the result line's "metrics"
/// object. Every metric is declared with its unit (and value 0) before a
/// workload runs, so a layer a workload does not reach reads 0.
class Report {
 public:
  void declare(const std::string& name, const std::string& unit);
  /// Sets a declared metric; throws std::out_of_range for any other name.
  void set(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const Metric& get(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& names() const { return order_; }
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
};

/// True when `name` matches [A-Za-z0-9_.-]+ (and starts with a letter or
/// digit).
bool valid_metric_name(const std::string& name);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// x / y, or 0 when y is 0.
double ratio(double x, double y);

/// Correctness bookkeeping for a workload: operations attempted and failed,
/// with the first few failure messages.
class Gate {
 public:
  /// Starts a new operation (router run, soak epoch, cluster run, ring).
  void begin_op(const std::string& what);
  /// Records a check of the current operation; a false `ok` fails it.
  void check(bool ok, const std::string& what);
  template <typename T>
  void expect_eq(const T& got, const T& want, const std::string& what) {
    check(got == want, what + ": got " + to_text(got) + ", want " +
                           to_text(want));
  }
  /// Ends the current operation (also done implicitly by begin_op).
  void end_op();

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

  static std::string to_text(std::uint64_t v);
  static std::string to_text(const std::string& v) { return v; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool open_ = false;
  bool op_failed_ = false;
  std::string op_;
  std::vector<std::string> messages_;
};

/// Pinned reference outputs for the default seed (see workloads.cc). The
/// self-tests tamper with a copy to prove a wrong reference fails an
/// operation.
struct References {
  std::uint64_t default_seed = 1;
  /// Router and cluster workloads: the fold of their inputs' digests.
  std::uint64_t router_64B_digest = 0;
  std::uint64_t router_1024B_digest = 0;
  std::vector<std::uint64_t> soak_digests;  // one per rotation slot
  std::uint64_t cluster_digest = 0;  // computed on the serial engine
  /// enumerate_space(r) -> {global configs, distinct tile configs}; these
  /// hold for every seed.
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> config_space;
};
const References& pinned_references();

/// Workload parameters. The defaults are the benchmark's; the self-tests
/// shrink them to tiny deterministic runs.
struct Params {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Cluster thread-per-chip workers (fixed below the host's core count).
  int cluster_workers = 3;
  /// Lower bound on timed repetitions, whatever `seconds` says.
  int min_reps = 3;
  /// Distinct seeded inputs the router and cluster workloads cycle through.
  /// A router's paper gap is over their mean Gbps, and a pinned digest
  /// folds their digests.
  int inputs = 16;
  std::uint64_t router_cycles = 200000;
  std::uint64_t run_chunk_cycles = 50000;
  std::uint64_t soak_epoch_cycles = 100000;
  std::uint64_t cluster_cycles = 30000;
  /// enumerate_space rings repeated in the timed loop, and rings too long
  /// to repeat, run once after it.
  std::vector<int> config_timed_rings = {4, 6};
  std::vector<int> config_once_rings = {7};
  const References* refs = nullptr;  // null: pinned_references()
  ClockFn clock = steady_ns;
};

struct Result {
  Gate gate;
  Report end_to_end;
  Report per_layer;
  /// The run's host-time scale: the median over its operations of
  /// kCalibrationRefNs / kernel time. Host times are multiplied by it.
  double host_scale = 1.0;
  /// Human-readable lines printed above the result line.
  std::vector<std::string> notes;
  std::string trace_json;  // Chrome trace of a traced run
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();
/// Runs one workload. Throws std::invalid_argument on an unknown name.
Result run_workload(const std::string& name, const Params& p);

/// Every metric a workload reports, by kind, with its unit.
struct MetricSpec {
  std::string name;
  std::string unit;
  /// An exact count of the model or engine: identical on every run of the
  /// same seed, and unchanged by a change that only speeds up the simulator.
  bool exact = false;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
