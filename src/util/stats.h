// Streaming statistics helpers used by campaign reports and benchmarks.
#pragma once

#include <cstddef>
#include <vector>

namespace drivefi::util {

// Welford's online mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exact percentile over a retained sample (fine at campaign scale).
class Percentiles {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  // q in [0,1]; linear interpolation between order statistics.
  double quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace drivefi::util
