#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Open SpanLog::open(const std::string& layer, const std::string& name) {
  Open o;
  o.start_ns = clock_();
  if (!record_) return o;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = o.start_ns;
  o.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(o.id);
  return o;
}

std::uint64_t SpanLog::close(const Open& o) {
  const std::uint64_t end = clock_();
  if (o.id >= 0) {
    if (stack_.empty() || stack_.back() != o.id) {
      throw std::logic_error("span closed out of order");
    }
    stack_.pop_back();
    spans_[static_cast<std::size_t>(o.id)].end_ns = end;
  }
  return end - o.start_ns;
}

void SpanLog::attribute(const Open& o, const std::string& layer,
                        std::uint64_t ns) {
  if (o.id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(o.id)];
  s.inner_layer = layer;
  s.inner_ns = ns;
}

std::map<std::string, std::uint64_t> SpanLog::self_ns_by_layer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t covered = std::min(dur, child_ns[i] + s.inner_ns);
    self[s.layer] += dur - covered;
    if (!s.inner_layer.empty()) {
      self[s.inner_layer] += std::min(dur - std::min(dur, child_ns[i]),
                                      s.inner_ns);
    }
  }
  return self;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof buf,
                  "\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"cat\": \"",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    out += s.layer + "\", \"name\": \"" + s.name + "\", \"args\": {\"id\": " +
           std::to_string(i) + ", \"parent\": " + std::to_string(s.parent);
    if (!s.inner_layer.empty()) {
      out += ", \"" + s.inner_layer + "_ns\": " + std::to_string(s.inner_ns);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

void Report::declare(const std::string& name, const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name: " + name);
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Metric{0.0, unit};
}

void Report::set(const std::string& name, double value) {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) throw std::out_of_range("undeclared metric " + name);
  it->second.value = value;
}

bool Report::has(const std::string& name) const {
  return metrics_.find(name) != metrics_.end();
}

const Metric& Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) throw std::out_of_range("no metric " + name);
  return it->second;
}

std::string Report::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Metric& m = metrics_.at(order_[i]);
    if (i > 0) out += ", ";
    // %.17g keeps every digit; JSON has no NaN or infinity.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}";
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double x, double y) { return y == 0.0 ? 0.0 : x / y; }

void Gate::begin_op(const std::string& what) {
  end_op();
  open_ = true;
  op_failed_ = false;
  op_ = what;
  ++attempted_;
}

void Gate::check(bool ok, const std::string& what) {
  if (ok) return;
  if (!open_) begin_op("unnamed operation");
  op_failed_ = true;
  if (messages_.size() < 20) messages_.push_back(op_ + ": " + what);
}

void Gate::end_op() {
  if (open_ && op_failed_) ++failed_;
  open_ = false;
  op_failed_ = false;
}

std::string Gate::to_text(std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 " (%" PRIu64 ")", v, v);
  return buf;
}

}  // namespace perfbench
