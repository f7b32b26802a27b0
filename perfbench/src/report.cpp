#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "common/stats.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  infos_.push_back({name, value, unit});
}

void Report::note(const std::string& name, const std::string& text) {
  notes_.emplace_back(name, text);
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failedChecks_;
  std::fprintf(stderr, "perfbench: CORRECTNESS CHECK FAILED [%s]: %s\n",
               workload_.c_str(), what.c_str());
  std::printf("CORRECTNESS CHECK FAILED: %s\n", what.c_str());
}

void Report::print() const {
  std::printf("== perfbench workload %s ==\n", workload_.c_str());
  for (const auto& [name, text] : notes_)
    std::printf("  %-28s %s\n", name.c_str(), text.c_str());
  for (const auto& m : infos_)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  -- reported --\n");
  for (const auto& m : metrics_)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  checks %ld, failed %ld; operations attempted %llu, failed %llu\n",
              checks_, failedChecks_,
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    // %.17g keeps every digit; JSON has no NaN/inf, so a non-finite value
    // (already a failed check) prints as null.
    if (std::isfinite(m.value))
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    else
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double quantile(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : artsci::stats::quantile(std::move(xs), q);
}

}  // namespace perfbench
