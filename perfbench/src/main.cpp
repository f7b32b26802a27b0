// Benchmark runner: runs one workload and prints its report, the last
// line of stdout being the JSON result.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--revision <text>]
//
// Workloads: khi_stream, insitu_train, serve_predict, serve_invert (see
// workloads.hpp). Exit code 0 when every correctness check passed, 1 when
// one failed (the JSON line then says "correct": false), 2 on bad usage.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunOptions;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<khi_stream|insitu_train|serve_predict|serve_invert> --seed <n> "
               "--seconds <s> --trace <0|1> [--revision <text>]\n",
               why);
  return 2;
}

bool knownWorkload(const std::string& w) {
  return w == "khi_stream" || w == "insitu_train" || w == "serve_predict" ||
         w == "serve_invert";
}

/// The thread budget: the producer-bound pipeline runs an OpenMP team of
/// nproc - 1, leaving a core to the consumer thread, and its workers spin
/// between parallel regions (a sleeping team pays a futex wake-up per
/// region; on a shared VM those wake-ups, and a team of nproc competing
/// with the consumer, make the run-to-run spread several times wider).
/// Every other workload runs a team of 1, so ranks, producer, server and
/// generator threads stay within nproc. libgomp reads both settings once,
/// at start-up, so the runner re-executes itself when they differ.
void fixThreadBudget(const std::string& workload, char** argv) {
  const bool producerBound = workload == "khi_stream";
  const std::string threads =
      producerBound ? std::to_string(std::max(1, perfbench::hostCpus() - 1))
                    : "1";
  const char* policy = producerBound ? "active" : "passive";
  const char* haveThreads = std::getenv("OMP_NUM_THREADS");
  const char* havePolicy = std::getenv("OMP_WAIT_POLICY");
  if (haveThreads != nullptr && threads == haveThreads &&
      havePolicy != nullptr && std::strcmp(policy, havePolicy) == 0)
    return;
  if (std::getenv("PERFBENCH_REEXEC") != nullptr) {
    std::fprintf(stderr, "perfbench_runner: OpenMP settings did not take\n");
    std::exit(2);
  }
  setenv("OMP_NUM_THREADS", threads.c_str(), 1);
  setenv("OMP_WAIT_POLICY", policy, 1);
  setenv("PERFBENCH_REEXEC", "1", 1);
  execv("/proc/self/exe", argv);
  std::perror("perfbench_runner: re-exec");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string revision = "unknown";
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload || !knownWorkload(opt.workload))
    return usage("unknown or missing workload");
  if (!(opt.seconds >= 1 && opt.seconds <= 600))
    return usage("--seconds must be within [1, 600]");
  fixThreadBudget(opt.workload, argv);

  perfbench::Report report(opt.workload);
  report.note("revision", revision);
  report.note("run", std::string(opt.trace ? "traced" : "untraced") +
                         ", seed " + std::to_string(opt.seed));
  try {
    if (opt.workload == "khi_stream" || opt.workload == "insitu_train")
      perfbench::runPipelineWorkload(opt, report);
    else
      perfbench::runServeWorkload(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
