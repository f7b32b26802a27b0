#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

struct Span {
  std::string key;  ///< "category/name"
  std::int64_t begin = 0, end = 0;  ///< ns
  std::int64_t childNs = 0;
};

/// Value of `"field": "..."` in one JSON event line.
std::string stringField(const std::string& line, const char* field) {
  const std::string tag = std::string("\"") + field + "\": \"";
  const auto at = line.find(tag);
  if (at == std::string::npos) return {};
  const auto from = at + tag.size();
  return line.substr(from, line.find('"', from) - from);
}

/// Value of `"field": <number>` in one JSON event line.
double numberField(const std::string& line, const char* field) {
  const std::string tag = std::string("\"") + field + "\": ";
  const auto at = line.find(tag);
  return at == std::string::npos ? 0.0
                                 : std::strtod(line.c_str() + at + tag.size(),
                                               nullptr);
}

}  // namespace

void SpanSummary::collect() {
  auto& recorder = artsci::obs::TraceRecorder::instance();
  dropped_ += recorder.droppedCount();
  std::ostringstream json;
  recorder.writeJson(json);
  recorder.clear();

  // The writer puts every event on a line of its own.
  std::unordered_map<long, std::vector<Span>> byThread;
  std::unordered_map<long, std::string> threadNames;
  std::istringstream lines(json.str());
  for (std::string line; std::getline(lines, line);) {
    const long tid = static_cast<long>(numberField(line, "tid"));
    if (line.find("\"ph\": \"M\"") != std::string::npos) {
      if (stringField(line, "name") == "thread_name") {
        const auto args = line.find("\"args\"");
        threadNames[tid] = stringField(line.substr(args), "name");
      }
      continue;
    }
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    Span s;
    s.key = stringField(line, "cat") + "/" + stringField(line, "name");
    s.begin = std::llround(numberField(line, "ts") * 1e3);
    s.end = s.begin + std::llround(numberField(line, "dur") * 1e3);
    byThread[tid].push_back(std::move(s));
    ++spans_;
  }

  for (auto& [tid, spans] : byThread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<Span*> open;
    for (auto& s : spans) {
      while (!open.empty() && open.back()->end <= s.begin) open.pop_back();
      if (!open.empty()) open.back()->childNs += s.end - s.begin;
      open.push_back(&s);
    }
    const bool trainerRank =
        threadNames[tid].rfind("trainer rank", 0) == 0;
    std::int64_t stepBegin = -1;
    for (const auto& s : spans) {
      auto& t = totals_[s.key];
      t.seconds += 1e-9 * static_cast<double>(s.end - s.begin);
      t.selfSeconds += 1e-9 * static_cast<double>(s.end - s.begin - s.childNs);
      if (!trainerRank) continue;
      if (s.key == "replay/sample_batch") {
        stepBegin = s.begin;
      } else if (s.key == "train/optim" && stepBegin >= 0) {
        trainStepMs_.push_back(1e-6 * static_cast<double>(s.end - stepBegin));
        stepBegin = -1;
      }
    }
  }
}

SpanSummary::Totals SpanSummary::get(const std::string& key) const {
  const auto it = totals_.find(key);
  return it == totals_.end() ? Totals{} : it->second;
}

}  // namespace perfbench
