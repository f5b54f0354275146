#pragma once
// Measurement helpers shared by the benchmark's sources: order statistics,
// the process RSS high-water mark, CPU pinning, and the metric list printed
// as the result line.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sched.h>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Resets this process's RSS high-water mark (VmHWM) to the current RSS.
/// A no-op on kernels without /proc/self/clear_refs.
inline void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (out) out << "5";
}

/// This process's RSS high-water mark in MiB (VmHWM); 0 when unavailable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// one CPU: the last one it may use. Returns that CPU, or -1 when the
/// affinity cannot be read or set.
inline int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  const std::vector<Metric>& items() const noexcept { return metrics_; }

  /// Human-readable table, one metric per line.
  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_result(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char number[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(number, sizeof number, "%.17g", m.value);
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
