// The two pipeline workloads: `core::runPipeline` end to end, repeated
// with fresh trainers so every repetition does identical work, reported
// as medians over the repetitions of one run.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace artsci;

/// One pipeline workload's shape. The thread budget is part of it: the
/// OpenMP team size is fixed before the runtime starts (see main.cpp).
struct Shape {
  long ranks = 1;   ///< DDP trainer ranks
  long nRep = 0;    ///< training iterations per streamed step
  long nx = 16, ny = 32, nz = 4;
  int particlesPerCell = 8;
  long totalSteps = 100;  ///< PIC steps after the producer's warm-up
  long streamEvery = 4;
  int minReps = 9;  ///< also the fewest set-ups whose median is setup_s
  /// Each repetition leaks one 786 KiB trace ring per trainer rank thread
  /// it spawns (one team per streamed step, even with n_rep = 0), so the
  /// repetition count is capped to bound the process's memory.
  int maxReps = 16;
};

/// khi_stream: the producer's OpenMP team does almost all the work; the
/// consumer only drains both channels into the replay buffer.
Shape khiStreamShape() {
  Shape s;
  s.ranks = 1;
  s.nRep = 0;
  s.particlesPerCell = 8;
  s.totalSteps = 120;
  s.streamEvery = 4;
  return s;
}

/// insitu_train: 2 ranks x 12 iterations per streamed step outrun a
/// single-threaded producer on a small grid, so the producer stalls on
/// back-pressure and the trainer sets the pace.
Shape insituTrainShape() {
  Shape s;
  s.ranks = 2;
  s.nRep = 12;
  s.particlesPerCell = 4;
  s.totalSteps = 40;
  s.streamEvery = 2;
  return s;
}

/// Streamed iterations after which the replay buffer has spilled into its
/// EP buffer, so both batch shapes have recorded their arena plans; the
/// traced run's steady-state allocation count starts there.
constexpr long kPlanIterations = 6;

core::PipelineConfig makeConfig(const Shape& s, std::uint64_t seed,
                                long totalSteps, long nRep) {
  auto cfg = core::PipelineConfig::quickDemo();
  cfg.producer.khi.grid = pic::GridSpec{s.nx, s.ny, s.nz, 0.25, 0.25, 0.25};
  cfg.producer.khi.particlesPerCell = s.particlesPerCell;
  cfg.producer.khi.seed = seed;
  cfg.producer.seed = seed * 2654435761ULL + 1;
  cfg.trainer.seed = seed * 40503ULL + 7;
  cfg.producer.totalSteps = totalSteps;
  cfg.producer.streamEvery = s.streamEvery;
  cfg.trainer.ranks = static_cast<std::size_t>(s.ranks);
  cfg.nRep = nRep;
  cfg.stepReportEvery = 0;
  // A wedged peer degrades the run (a counted failure) instead of hanging.
  cfg.streamStepTimeoutMicros = 60'000'000;
  return cfg;
}

struct Outcome {
  double wall = 0;  ///< runPipeline call
  double setup = 0; ///< trainer construction + runPipeline call
  core::PipelineResult result;
  std::uint64_t particleUpdates = 0, streamSteps = 0, replayBatches = 0;
  std::uint64_t heapAllocations = 0;
  std::uint64_t dataHash = 0;  ///< over the replay buffer's final contents
  double spectrumZeroFrac = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& xs) {
  const auto* p = reinterpret_cast<const unsigned char*>(xs.data());
  for (std::size_t i = 0; i < xs.size() * sizeof(double); ++i)
    h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

Outcome runOnce(const core::PipelineConfig& cfg) {
  auto& reg = obs::Registry::global();
  auto& updates = reg.counter("pic.particle_updates");
  auto& steps = reg.counter("stream.steps_published");
  auto& batches = reg.counter("replay.batches");
  const std::uint64_t u0 = updates.value(), s0 = steps.value(),
                      b0 = batches.value();

  Outcome out;
  Timer setup;
  core::InTransitTrainer trainer(cfg.model, cfg.trainer);
  Timer wall;
  out.result = core::runPipeline(cfg, trainer);
  out.wall = wall.seconds();
  out.setup = setup.seconds();

  out.particleUpdates = updates.value() - u0;
  out.streamSteps = steps.value() - s0;
  out.replayBatches = batches.value() - b0;
  out.heapAllocations = trainer.arenaStats(0).heapAllocations;
  const auto buffered = trainer.buffer().snapshot();
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t bins = 0, zeros = 0;
  for (const auto* part : {&buffered.now, &buffered.ep}) {
    for (const auto& sample : *part) {
      h = fnv1a(fnv1a(h, sample.cloud), sample.spectrum);
      bins += sample.spectrum.size();
      for (double v : sample.spectrum) zeros += v == 0.0 ? 1 : 0;
    }
  }
  out.dataHash = h;
  out.spectrumZeroFrac =
      bins ? static_cast<double>(zeros) / static_cast<double>(bins) : 0.0;
  return out;
}

/// Streamed iterations before the consumer first trains: the now-buffer
/// must hold a batch, and each streamed step brings 3 samples.
long firstTrainingIteration(const core::PipelineConfig& cfg) {
  const long perStep = 3;
  const long nowPerBatch = static_cast<long>(cfg.trainer.buffer.nowPerBatch);
  return (nowPerBatch + perStep - 1) / perStep;
}

/// Training iterations the consumer runs: n_rep per streamed step from the
/// first one that trains.
long expectedTrainIterations(const core::PipelineConfig& cfg, long iterations) {
  const long first = firstTrainingIteration(cfg);
  return iterations >= first ? cfg.nRep * (iterations - first + 1) : 0;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double finalLoss(const Outcome& o) {
  const auto& h = o.result.train.lossHistory;
  return h.empty() ? 0.0 : h.back();
}

/// Checks one repetition against its configuration and the first
/// repetition of the same configuration (bit-identical data and loss).
void checkRun(const core::PipelineConfig& cfg, const Outcome& o,
              const Outcome* first, Report& report) {
  const auto& r = o.result;
  const long iterations = cfg.producer.totalSteps / cfg.producer.streamEvery;
  report.attempted();
  const bool ok = !r.degraded && r.iterationsStreamed == iterations;
  if (!ok) report.failed();
  report.check(!r.degraded, "pipeline degraded: " + r.faultNote);
  report.check(r.iterationsStreamed == iterations,
               "streamed " + std::to_string(r.iterationsStreamed) +
                   " iterations, expected " + std::to_string(iterations));
  report.check(r.samplesReceived == static_cast<std::size_t>(3 * iterations),
               "received " + std::to_string(r.samplesReceived) +
                   " samples, expected 3 per iteration");
  report.check(r.train.iterations == expectedTrainIterations(cfg, iterations),
               "trained " + std::to_string(r.train.iterations) +
                   " iterations, expected " +
                   std::to_string(expectedTrainIterations(cfg, iterations)));
  if (cfg.nRep > 0)
    report.check(std::isfinite(finalLoss(o)), "final loss is not finite");
  if (first == nullptr) return;
  report.check(o.dataHash == first->dataHash,
               "streamed data differs between two runs of one configuration");
  report.check(sameBits(finalLoss(o), finalLoss(*first)),
               "final loss differs between two runs of one configuration");
  report.check(o.particleUpdates == first->particleUpdates,
               "particle update count differs between two runs");
}

}  // namespace

void runPipelineWorkload(const RunOptions& opt, Report& report) {
  const bool khi = opt.workload == "khi_stream";
  const Shape shape = khi ? khiStreamShape() : insituTrainShape();
  const auto cfg = makeConfig(shape, opt.seed, shape.totalSteps, shape.nRep);
  // Set-up: trainer construction, the producer's warm-up and the fewest
  // streamed steps after which the consumer trains once (n_rep 1; khi_stream
  // does not train, so its consumer only drains them).
  const auto setupCfg =
      makeConfig(shape, opt.seed,
                 firstTrainingIteration(cfg) * shape.streamEvery,
                 std::min<long>(shape.nRep, 1));
  const long iterations = shape.totalSteps / shape.streamEvery;
  const double batch = static_cast<double>(cfg.trainer.buffer.nowPerBatch +
                                           cfg.trainer.buffer.epPerBatch);

  report.note("thread budget",
              khi ? "OpenMP team of nproc - 1 in the producer; consumer and one "
                    "idle trainer rank wait"
                  : "producer (OpenMP team of 1) + 2 trainer ranks busy; "
                    "consumer waits");
  const double refWork = refWorkSeconds();
  const HostWarmth warm = warmHost(hostCpus());

  // --- timed repetitions, each after one set-up: the set-ups' median then
  // spans the same host states as the repetitions' instead of one
  // stretch of a few seconds. A traced run alternates untraced and traced
  // repetitions, so both see the same host state.
  auto& recorder = obs::TraceRecorder::instance();
  LayerInputs layers;
  std::vector<double> setups, untracedWalls, tracedWalls;
  int reps = 0;
  double rssAfterTwo = 0;
  Outcome setupFirst, first;
  Timer phase;
  for (int rep = 0; rep < shape.maxReps; ++rep, ++reps) {
    if (rep >= shape.minReps && phase.seconds() >= opt.seconds) break;
    Outcome s = runOnce(setupCfg);
    checkRun(setupCfg, s, rep ? &setupFirst : nullptr, report);
    if (rep == 0) setupFirst = s;
    setups.push_back(s.setup);

    const bool traced = opt.trace && rep % 2 == 1;
    recorder.setEnabled(traced);
    Outcome o = runOnce(cfg);
    recorder.setEnabled(false);
    checkRun(cfg, o, rep ? &first : nullptr, report);
    if (rep == 0) first = o;
    if (rep == 1) rssAfterTwo = peakRssMb();

    (traced ? tracedWalls : untracedWalls).push_back(o.wall);
    if (!traced) continue;
    layers.spans.collect();
    layers.runs = static_cast<double>(tracedWalls.size());
    layers.particleUpdates += static_cast<double>(o.particleUpdates);
    layers.writerStallSeconds += o.result.producerStallSeconds;
    layers.streamBytes += static_cast<double>(o.result.bytesStreamed);
    layers.streamSteps += static_cast<double>(o.streamSteps);
    layers.replayBatches += static_cast<double>(o.replayBatches);
    layers.trainIterations += static_cast<double>(o.result.train.iterations);
  }

  const double wallMedian = median(untracedWalls);
  report.info("pipeline_wall_s", wallMedian, "s");
  report.info("sim_updates_per_s",
              static_cast<double>(first.particleUpdates) / wallMedian, "1/s");
  if (!khi)
    report.info("train_samples_per_s",
                static_cast<double>(first.result.train.iterations) *
                    static_cast<double>(shape.ranks) * batch / wallMedian,
                "1/s");
  report.info("producer_stall_s (first run)", first.result.producerStallSeconds,
              "s");
  report.info("repetitions", reps, "count");
  report.info("final_loss", finalLoss(first), "");

  if (!opt.trace) {
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", rssAfterTwo, "MB");
    report.metric("latency_p50_ms",
                  1e3 * wallMedian / static_cast<double>(iterations), "ms");
  } else {
    // Arena heap allocations a full run makes beyond a run that stops once
    // both batch shapes have recorded their plans.
    const auto planCfg = makeConfig(
        shape, opt.seed, kPlanIterations * shape.streamEvery, shape.nRep);
    const Outcome planned = runOnce(planCfg);
    checkRun(planCfg, planned, nullptr, report);
    layers.steadyHeapAllocs = static_cast<double>(first.heapAllocations) -
                              static_cast<double>(planned.heapAllocations);
    layers.spectrumZeroFrac = first.spectrumZeroFrac;
    layers.host = warm;
    layers.refWorkSeconds = refWork;
    layers.tracedWallSeconds = median(tracedWalls);
    layers.untracedWallSeconds = wallMedian;
    reportLayers(layers, report);
  }
  noteHost(warm, refWork, report);
}

}  // namespace perfbench
