/// \file spans.hpp
/// Span self times from the program's own tracer. `collect` flushes what
/// obs::TraceRecorder buffered (its Chrome trace JSON), folds it into
/// per-span totals, and clears the recorder; call it at a quiescent point,
/// after the traced work has joined its threads.
///
/// A span's self time is its duration minus the part of it that its
/// direct children cover on the same thread. Times are summed over
/// threads, so a span that runs on every thread of an OpenMP team (the
/// PIC tile pass) adds up thread-seconds, not wall seconds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanSummary {
 public:
  struct Totals {
    double seconds = 0;      ///< summed durations
    double selfSeconds = 0;  ///< summed durations minus direct children
  };

  /// Flush, fold in and clear the recorder's buffered spans.
  void collect();

  /// Totals for "category/name" (zero when the span never ran).
  Totals get(const std::string& key) const;

  /// Per-iteration trainer step times (first replay draw to end of the
  /// optimizer step, on every trainer rank thread), in milliseconds.
  const std::vector<double>& trainStepMs() const { return trainStepMs_; }

  /// Spans the recorder dropped because a ring wrapped (should be 0).
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t spans() const { return spans_; }

 private:
  std::map<std::string, Totals> totals_;
  std::vector<double> trainStepMs_;
  std::uint64_t dropped_ = 0, spans_ = 0;
};

}  // namespace perfbench
