/// \file workloads.hpp
/// The benchmark's workloads. Each isolates one group of layers:
///
///   khi_stream     producer-bound pipeline (pic, radiation, transforms,
///                  openpmd, stream); the trainer is idle (n_rep = 0)
///   insitu_train   trainer-bound pipeline (ml executor, all-reduce, replay,
///                  optimizer); the producer stalls on back-pressure
///   serve_predict  TCP serving of PredictSpectrum on its own, with
///   serve_invert   (InvertSpectrum) snapshot hot-swaps beside the reads
///
/// An untraced run reports the end-to-end metrics; a traced run (`trace`)
/// enables obs::TraceRecorder on alternate repetitions and reports the
/// per-layer metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< length of the timed phases together
  bool trace = false;
};

void runPipelineWorkload(const RunOptions& opt, Report& report);
void runServeWorkload(const RunOptions& opt, Report& report);

/// Every per-layer metric, for every workload; a layer the workload does
/// not exercise reports 0. Pipeline figures are per pipeline run.
struct LayerInputs {
  SpanSummary spans;
  double runs = 1;  ///< traced repetitions the span totals cover
  double particleUpdates = 0;
  double writerStallSeconds = 0, streamBytes = 0, streamSteps = 0;
  double replayBatches = 0, trainIterations = 0, steadyHeapAllocs = 0;
  double capacityRps = 0, batchMean = 0;
  double predictP99Ms = 0, invertP99Ms = 0, p99Samples = 0;
  double shed = 0, errors = 0, engineSwaps = 0, swapsPerBatch = 0;
  double publishSeconds = 0;
  double lateMs = 0;
  double spectrumZeroFrac = 0;
  HostWarmth host;
  double refWorkSeconds = 0;
  double tracedWallSeconds = 0, untracedWallSeconds = 0;
};
void reportLayers(const LayerInputs& in, Report& report);

/// Host block of the table (every run): delivered cores, reference loop,
/// thread budget, build type.
void noteHost(const HostWarmth& warm, double refWork, Report& report);

}  // namespace perfbench
