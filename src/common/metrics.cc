#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"
#include "common/json.h"

namespace raw::common {
namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

const char* metric_kind_name(MetricRegistry::Kind kind) {
  switch (kind) {
    case MetricRegistry::Kind::kCounter: return "counter";
    case MetricRegistry::Kind::kGauge: return "gauge";
  }
  return "?";
}

MetricRegistry::Counter& MetricRegistry::counter(const std::string& name) {
  RAW_ASSERT_MSG(gauges_.find(name) == gauges_.end(),
                 "metric name already registered with a different kind");
  return counters_[name];
}

MetricRegistry::Gauge& MetricRegistry::gauge(const std::string& name) {
  RAW_ASSERT_MSG(counters_.find(name) == counters_.end(),
                 "metric name already registered with a different kind");
  return gauges_[name];
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.value() : 0;
}

double MetricRegistry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.value() : 0.0;
}

std::vector<MetricRegistry::Sample> MetricRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(size());
  for (const auto& [name, c] : counters_) {
    Sample s;
    s.name = name;
    s.kind = Kind::kCounter;
    s.value = static_cast<double>(c.value());
    s.count = c.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    Sample s;
    s.name = name;
    s.kind = Kind::kGauge;
    s.value = g.value();
    out.push_back(std::move(s));
  }
  // The two maps are each sorted; merge into one name-sorted list.
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
        c == '/') {
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += '_';
    }
  }
  if (out.empty()) out = "_";
  return out;
}

std::string MetricRegistry::to_json() const {
  std::string out = "{\"schema\":\"metrics/v2\",\"metrics\":[";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_escaped(out, s.name);
    out += ",\"kind\":\"";
    out += metric_kind_name(s.kind);
    out += '"';
    out += ",\"value\":";
    out += s.kind == Kind::kCounter ? std::to_string(s.count)
                                    : format_double(s.value);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string MetricRegistry::to_csv() const {
  std::string out = "name,kind,value,count,mean,min,max,p50,p95,p99\n";
  for (const Sample& s : snapshot()) {
    out += s.name;
    out += ',';
    out += metric_kind_name(s.kind);
    out += ',';
    out += s.kind == Kind::kCounter ? std::to_string(s.count)
                                    : format_double(s.value);
    out += ",,,,,,,\n";
  }
  return out;
}

}  // namespace raw::common
