// Streaming statistics accumulators used by all measurement code.
#pragma once

#include <cstdint>
#include <limits>

#include "common/types.h"

namespace raw::common {

/// Welford online mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void reset() { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Counts bytes and packets over a measured cycle window and converts them to
/// link-rate figures at a given clock frequency.
class RateMeter {
 public:
  void on_packet(ByteCount bytes) {
    ++packets_;
    bytes_ += bytes;
  }

  void set_window(Cycle cycles) { window_ = cycles; }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] ByteCount bytes() const { return bytes_; }
  [[nodiscard]] Cycle window() const { return window_; }

  [[nodiscard]] double gbps(double clock_hz = kRawClockHz) const {
    return common::gbps(bytes_, window_, clock_hz);
  }
  [[nodiscard]] double mpps(double clock_hz = kRawClockHz) const {
    return common::mpps(packets_, window_, clock_hz);
  }

  void reset() { *this = RateMeter{}; }

 private:
  std::uint64_t packets_ = 0;
  ByteCount bytes_ = 0;
  Cycle window_ = 0;
};

/// Jain's fairness index over per-flow throughputs: (Σx)² / (n·Σx²).
/// 1.0 means perfectly fair; 1/n means one flow starves the rest.
double jain_fairness(const double* throughputs, std::size_t n);

}  // namespace raw::common
