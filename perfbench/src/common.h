// Small shared helpers of the benchmark: clocks, exact order
// statistics, and the metric sink that renders the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Exact quantile (linear interpolation between order statistics, the
/// same rule as numpy's default); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Ordered (name, value, unit) triples, rendered as the "metrics" object
/// of the result line. Values print with every significant digit.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", e.value);
      if (i > 0) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
