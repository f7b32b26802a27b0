/// \file report.hpp
/// What one benchmark run prints: a human-readable table, then as the last
/// line of stdout one JSON object {"correct", "attempted", "failed",
/// "metrics"}. An untraced run's metrics are the end-to-end set, a traced
/// run's the per-layer set; `info` values (the workload's own names for
/// its end-to-end numbers, host attribution) go to the table only.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of the JSON line (end-to-end or per-layer, by run kind).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A number for the table only.
  void info(const std::string& name, double value, const std::string& unit);
  /// A string for the table only (build type, revision, thread budget).
  void note(const std::string& name, const std::string& text);

  /// Record a correctness check; a failed one is printed at once, loudly,
  /// and makes the run incorrect.
  void check(bool ok, const std::string& what);

  /// Count operations (pipeline runs, requests) attempted and failed.
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const { return failedChecks_ == 0 && failed_ == 0; }

  /// Table on stdout, then the JSON line.
  void print() const;

 private:
  std::string workload_;
  std::vector<Metric> metrics_, infos_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  long checks_ = 0, failedChecks_ = 0;
};

/// Linear-interpolated q-quantile of a sample (0 for an empty one).
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

}  // namespace perfbench
