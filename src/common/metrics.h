// Chip-wide metric registry: named counters and gauges with hierarchical
// slash-separated names
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

  /// Finds or creates the metric. References stay valid for the registry's
  /// lifetime. Registering the same name with a different kind is a hard
  /// error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Counter value (0 if absent), gauge value (0.0 if absent) — convenience
  /// for dashboards reading back published metrics.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size();
  }

  enum class Kind { kCounter, kGauge };

  /// One exported metric. Both kinds fill `value`; a counter also fills
  /// `count`, its exact integer value.
  struct Sample {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;
    std::uint64_t count = 0;
  };

  /// All metrics, sorted by name (deterministic export order).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// {"schema":"metrics/v2","metrics":[{"name":...,"kind":"counter",
  /// "value":...}, ...]} — v2 added the schema tag itself alongside the
  /// introduction of the `profile` metric section.
  [[nodiscard]] std::string to_json() const;

  /// Header row then one row per metric:
  /// name,kind,value,count,mean,min,max,p50,p95,p99
  /// (the distribution columns stay in the header but are always empty).
  [[nodiscard]] std::string to_csv() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
};

const char* metric_kind_name(MetricRegistry::Kind kind);

/// Rewrites `name` to satisfy the registry naming lint (^[a-z0-9_/]+$):
/// uppercase letters are lowercased and every other disallowed character
/// maps to '_'. Exporters that embed externally supplied identifiers (e.g.
/// channel names like "net1.t00.N.out") must pass the embedded segment
/// through this before registering.
[[nodiscard]] std::string sanitize_metric_name(const std::string& name);

}  // namespace raw::common
