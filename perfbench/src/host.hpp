/// \file host.hpp
/// Host conditioning and attribution for the benchmark runner.
///
/// A shared VM parks idle vCPUs: after a few seconds without load, four
/// spinning threads get about one core for a second or more before the
/// host hands back all four. `warmHost` keeps every core busy until a spin
/// probe sees them, so a timed phase never starts on a parked host.
/// `refWorkSeconds` times a fixed memory-touching loop, so drift of the
/// host itself can be told apart from a change in the program.
#pragma once

namespace perfbench {

struct HostWarmth {
  double coresEffective = 0;  ///< cores delivered to nproc spinning threads
  double warmSeconds = 0;     ///< time spent spinning before the phase
};

/// Cores the host delivers to `threads` spinning threads over `windowS`
/// seconds (sum of thread CPU time over wall time).
double spinProbe(int threads, double windowS);

/// Spin `nproc` threads until a probe sees at least 0.9 x nproc cores, or
/// until `maxSeconds` pass; returns the last probe.
HostWarmth warmHost(int nproc, double maxSeconds = 8.0);

/// Wall seconds of a fixed single-thread loop over a 512 KiB buffer.
double refWorkSeconds();

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Online CPUs (the thread budget of every workload).
int hostCpus();

/// OpenMP team size the runtime was started with (1 without OpenMP).
int ompTeamSize();

}  // namespace perfbench
