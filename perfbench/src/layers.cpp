#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

void reportLayers(const LayerInputs& in, Report& report) {
  const auto& sp = in.spans;
  // Span totals and counters are summed over the traced repetitions and
  // reported per repetition (per pipeline run; for serving, `runs` is 1).
  const double per = 1.0 / std::max(1.0, in.runs);
  const auto self = [&](const char* key) { return sp.get(key).selfSeconds * per; };
  const auto total = [&](const char* key) { return sp.get(key).seconds * per; };

  // pic: step self time is the part no child span covers — the radiation
  // plugin, boundary handling, current reset. tile_pass runs on every
  // thread of the OpenMP team and sums thread-seconds.
  report.metric("pic.step_s", total("pic/step"), "s");
  report.metric("pic.step_self_s", self("pic/step"), "s");
  report.metric("pic.tile_pass_s", self("pic/tile_pass"), "s");
  report.metric("pic.supercell_sort_s", self("pic/supercell_sort"), "s");
  report.metric("pic.reduce_s", self("pic/reduce"), "s");
  report.metric("pic.field_solve_s", self("pic/field_solve"), "s");
  report.metric("pic.particle_updates", in.particleUpdates * per, "count");

  // stream + openpmd: the writer's back-pressure stall and the reader's
  // wait for a step (reader_begin_step blocks until one is published).
  report.metric("stream.writer_stall_s", in.writerStallSeconds * per, "s");
  report.metric("stream.reader_wait_s", total("stream/reader_begin_step"), "s");
  report.metric("stream.bytes", in.streamBytes * per, "bytes");
  report.metric("stream.steps", in.streamSteps * per, "count");

  report.metric("replay.push_s", self("replay/push"), "s");
  report.metric("replay.sample_batch_s", self("replay/sample_batch"), "s");
  report.metric("replay.batches", in.replayBatches * per, "count");

  report.metric("train.forward_s", self("train/forward"), "s");
  report.metric("train.backward_s", self("train/backward"), "s");
  report.metric("train.optim_s", self("train/optim"), "s");
  report.metric("train.allreduce_s", self("train/allreduce"), "s");
  report.metric("train.iterations", in.trainIterations * per, "count");
  const auto& steps = sp.trainStepMs();
  report.metric("train.step_p50_ms", quantile(steps, 0.5), "ms");
  report.metric("train.step_p99_ms", quantile(steps, 0.99), "ms");
  report.metric("train.step_samples", static_cast<double>(steps.size()), "count");
  report.metric("train.steady_heap_allocs", in.steadyHeapAllocs, "count");

  report.metric("serve.net_read_s", self("serve/net_read"), "s");
  report.metric("serve.next_batch_s", self("serve/next_batch"), "s");
  report.metric("serve.engine_predict_s", self("serve/engine_predict"), "s");
  report.metric("serve.predict_batch_s", self("serve/predict_batch"), "s");
  report.metric("serve.invert_batch_s", self("serve/invert_batch"), "s");
  report.metric("serve.capacity_rps", in.capacityRps, "1/s");
  report.metric("serve.batch_mean", in.batchMean, "count");
  report.metric("serve.predict_p99_ms", in.predictP99Ms, "ms");
  report.metric("serve.invert_p99_ms", in.invertP99Ms, "ms");
  report.metric("serve.p99_samples", in.p99Samples, "count");
  report.metric("serve.shed", in.shed, "count");
  report.metric("serve.errors", in.errors, "count");
  report.metric("serve.engine_swaps", in.engineSwaps, "count");
  report.metric("serve.engine_swaps_per_batch", in.swapsPerBatch, "ratio");
  report.metric("registry.publish_s", in.publishSeconds, "s");
  report.metric("loadgen.late_ms", in.lateMs, "ms");

  report.metric("producer.spectrum_zero_frac", in.spectrumZeroFrac, "ratio");

  report.metric("host.cores_effective", in.host.coresEffective, "count");
  report.metric("host.ref_work_s", in.refWorkSeconds, "s");
  report.metric("host.nproc", hostCpus(), "count");
  report.metric("host.omp_threads", ompTeamSize(), "count");

  report.metric("trace.wall_traced_s", in.tracedWallSeconds, "s");
  report.metric("trace.wall_untraced_s", in.untracedWallSeconds, "s");
  report.metric("trace.overhead_frac",
                in.untracedWallSeconds > 0
                    ? in.tracedWallSeconds / in.untracedWallSeconds - 1.0
                    : 0.0,
                "ratio");
  report.metric("trace.spans", static_cast<double>(sp.spans()), "count");
  report.check(sp.dropped() == 0, "trace rings wrapped; span totals are short");
}

void noteHost(const HostWarmth& warm, double refWork, Report& report) {
  report.info("host.cores_effective", warm.coresEffective, "count");
  report.info("host.warm_s", warm.warmSeconds, "s");
  report.info("host.ref_work_s", refWork, "s");
  report.info("host.nproc", hostCpus(), "count");
  report.info("host.omp_threads", ompTeamSize(), "count");
#ifdef PERFBENCH_BUILD_TYPE
  report.note("build type", PERFBENCH_BUILD_TYPE);
#endif
}

}  // namespace perfbench
