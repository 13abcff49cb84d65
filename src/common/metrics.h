// Chip-wide metric registry: named counters, gauges, and percentile
// histograms with hierarchical slash-separated names
// ("router/port0/ingress/drops"), plus JSON and CSV exporters.
//
// The registry is pull-model: simulation hot paths keep their own plain
// integer counters (as they always have) and components expose an
// `export_metrics(MetricRegistry&)` that publishes them on demand. A metric
// that nobody exports therefore costs literally nothing; registry access
// never appears on a per-cycle path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"

namespace raw::common {

class MetricRegistry {
 public:
  /// Monotonic event count. `set()` exists for pull-model publishing, where
  /// an exporter mirrors an externally maintained total.
  class Counter {
   public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    void set(std::uint64_t value) { value_ = value; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  /// Point-in-time measurement (occupancy, rate, fraction).
  class Gauge {
   public:
    void set(double value) { value_ = value; }
    void add(double delta) { value_ += delta; }
    [[nodiscard]] double value() const { return value_; }

   private:
    double value_ = 0.0;
  };

  /// Distribution: a linear-bucket Histogram for quantiles plus a
  /// RunningStat for exact count/mean/min/max.
  class HistogramMetric {
   public:
    HistogramMetric(double bucket_width, std::size_t num_buckets)
        : hist_(bucket_width, num_buckets) {}

    void add(double x) {
      hist_.add(x);
      stat_.add(x);
    }

    [[nodiscard]] std::uint64_t count() const { return stat_.count(); }
    [[nodiscard]] double mean() const { return stat_.mean(); }
    [[nodiscard]] double min() const { return stat_.min(); }
    [[nodiscard]] double max() const { return stat_.max(); }
    [[nodiscard]] double quantile(double q) const { return hist_.quantile(q); }
    [[nodiscard]] const Histogram& histogram() const { return hist_; }

   private:
    Histogram hist_;
    RunningStat stat_;
  };

  /// Finds or creates the metric. References stay valid for the registry's
  /// lifetime. Registering the same name with a different kind is a hard
  /// error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double bucket_width = 16.0,
                             std::size_t num_buckets = 1024);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;

  /// Counter value (0 if absent), gauge value (0.0 if absent) — convenience
  /// for dashboards reading back published metrics.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  enum class Kind { kCounter, kGauge, kHistogram };

  /// One exported metric. Counters fill `value`; gauges fill `value`;
  /// histograms fill the distribution fields.
  struct Sample {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// All metrics, sorted by name (deterministic export order).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// {"schema":"metrics/v2","metrics":[{"name":...,"kind":"counter",
  /// "value":...}, ...]} — v2 added the schema tag itself alongside the
  /// introduction of the `profile` metric section.
  [[nodiscard]] std::string to_json() const;

  /// Header row then one row per metric:
  /// name,kind,value,count,mean,min,max,p50,p95,p99
  [[nodiscard]] std::string to_csv() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

const char* metric_kind_name(MetricRegistry::Kind kind);

/// Rewrites `name` to satisfy the registry naming lint (^[a-z0-9_/]+$):
/// uppercase letters are lowercased and every other disallowed character
/// maps to '_'. Exporters that embed externally supplied identifiers (e.g.
/// channel names like "net1.t00.N.out") must pass the embedded segment
/// through this before registering.
[[nodiscard]] std::string sanitize_metric_name(const std::string& name);

}  // namespace raw::common
