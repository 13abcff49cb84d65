#include "common/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

namespace raw::common {
namespace {

TEST(MetricsTest, CounterIncAndSet) {
  MetricRegistry reg;
  auto& c = reg.counter("router/port0/ingress/drops");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.set(17);
  EXPECT_EQ(c.value(), 17u);
  // Same name returns the same metric.
  EXPECT_EQ(&reg.counter("router/port0/ingress/drops"), &c);
  EXPECT_EQ(reg.counter_value("router/port0/ingress/drops"), 17u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricRegistry reg;
  auto& g = reg.gauge("chip/channel/x/mean_occupancy");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("chip/channel/x/mean_occupancy"), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("absent"), 0.0);
}

TEST(MetricsTest, ReferencesStayValidAcrossInsertions) {
  MetricRegistry reg;
  auto& a = reg.counter("a");
  a.inc();
  for (int i = 0; i < 100; ++i) reg.counter("bulk/" + std::to_string(i));
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricRegistry reg;
  reg.counter("z/last");
  reg.gauge("m/middle");
  reg.counter("a/first");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a/first");
  EXPECT_EQ(snap[1].name, "m/middle");
  EXPECT_EQ(snap[2].name, "z/last");
}

// Minimal CSV split (no quoting in our exporter output).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

TEST(MetricsTest, CsvRoundTripsSnapshot) {
  MetricRegistry reg;
  reg.counter("router/delivered").set(42);
  reg.gauge("router/gbps").set(26.9);

  const std::string csv = reg.to_csv();
  std::stringstream ss(csv);
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  EXPECT_EQ(line, "name,kind,value,count,mean,min,max,p50,p95,p99");

  std::map<std::string, std::vector<std::string>> rows;
  while (std::getline(ss, line)) {
    auto cells = split_csv(line);
    rows[cells[0]] = cells;
  }
  ASSERT_EQ(rows.size(), 2u);

  // Compare the parsed rows against the snapshot they were exported from.
  for (const auto& s : reg.snapshot()) {
    const auto it = rows.find(s.name);
    ASSERT_NE(it, rows.end()) << s.name;
    const auto& cells = it->second;
    EXPECT_EQ(cells[1], metric_kind_name(s.kind));
    EXPECT_DOUBLE_EQ(std::stod(cells[2]), s.value);
  }
}

// Tiny helper: extract the value following `"key":` inside the object that
// contains `"name":"<name>"`.
std::string json_field(const std::string& json, const std::string& name,
                       const std::string& key) {
  const std::string tag = "{\"name\":\"" + name + "\"";
  const auto obj = json.find(tag);
  if (obj == std::string::npos) return {};
  const auto end = json.find('}', obj);
  const auto k = json.find("\"" + key + "\":", obj);
  if (k == std::string::npos || k > end) return {};
  const auto start = k + key.size() + 3;
  auto stop = json.find_first_of(",}", start);
  return json.substr(start, stop - start);
}

TEST(MetricsTest, JsonRoundTripsSnapshot) {
  MetricRegistry reg;
  reg.counter("router/port0/ingress/drops").set(7);
  reg.gauge("router/port0/gbps").set(12.5);

  const std::string json = reg.to_json();
  // Schema "metrics/v2": the envelope carries a version tag so downstream
  // consumers (CI artifact tooling, bench --metrics-json dumps) can detect
  // drift.
  EXPECT_EQ(json.rfind("{\"schema\":\"metrics/v2\",\"metrics\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");

  EXPECT_EQ(json_field(json, "router/port0/ingress/drops", "kind"),
            "\"counter\"");
  EXPECT_EQ(json_field(json, "router/port0/ingress/drops", "value"), "7");
  EXPECT_EQ(json_field(json, "router/port0/gbps", "kind"), "\"gauge\"");
  EXPECT_DOUBLE_EQ(std::stod(json_field(json, "router/port0/gbps", "value")),
                   12.5);
}

TEST(MetricsTest, SanitizeMetricName) {
  // Channel names carry dots and uppercase ("net1.t00.N.out"); exporters
  // must fold them into the ^[a-z0-9_/]+$ namespace the lint enforces.
  EXPECT_EQ(sanitize_metric_name("net1.t00.N.out"), "net1_t00_n_out");
  EXPECT_EQ(sanitize_metric_name("already/fine_123"), "already/fine_123");
  EXPECT_EQ(sanitize_metric_name("UPPER"), "upper");
  EXPECT_EQ(sanitize_metric_name("a b\tc"), "a_b_c");
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(MetricsTest, JsonIsStructurallyBalanced) {
  MetricRegistry reg;
  reg.counter("a").set(1);
  reg.gauge("b").set(2.0);
  const std::string json = reg.to_json();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace raw::common
