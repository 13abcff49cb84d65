#include "common/stats.h"

namespace raw::common {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double jain_fairness(const double* throughputs, std::size_t n) {
  if (n == 0) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += throughputs[i];
    sum_sq += throughputs[i] * throughputs[i];
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

}  // namespace raw::common
