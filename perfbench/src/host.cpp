#include "host.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double spinProbe(int threads, double windowS) {
  std::vector<double> cpu(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> team;
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration<double>(windowS);
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      const double c0 = threadCpuSeconds();
      volatile unsigned long sink = 0;
      while (Clock::now() < until)
        for (int i = 0; i < 4096; ++i) sink = sink + static_cast<unsigned long>(i);
      cpu[static_cast<std::size_t>(t)] = threadCpuSeconds() - c0;
    });
  }
  for (auto& th : team) th.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  double total = 0;
  for (double c : cpu) total += c;
  return total / wall;
}

HostWarmth warmHost(int nproc, double maxSeconds) {
  HostWarmth w;
  const auto start = Clock::now();
  do {
    w.coresEffective = spinProbe(nproc, 0.25);
    w.warmSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (w.coresEffective < 0.9 * nproc && w.warmSeconds < maxSeconds);
  return w;
}

double refWorkSeconds() {
  // 64 Ki doubles = 512 KiB: larger than L1, touched in a strided
  // read-modify-write so the loop is bound by the cache hierarchy, not by
  // the FP units.
  std::vector<double> a(std::size_t{1} << 16, 1.0);
  const auto start = Clock::now();
  for (int pass = 0; pass < 400; ++pass)
    for (std::size_t s = 0; s < 8; ++s)
      for (std::size_t i = s; i < a.size(); i += 8) a[i] = a[i] * 0.999999 + 1e-9;
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  volatile double sink = a[a.size() / 2];
  (void)sink;
  return seconds;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int hostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int ompTeamSize() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace perfbench
