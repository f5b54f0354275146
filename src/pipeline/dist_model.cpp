#include "pipeline/dist_model.hpp"

#include <algorithm>

#include "parallel/remote_spectrum.hpp"
#include "pipeline/context.hpp"

namespace reptile::pipeline {

void DistSpectrumModel::finalize_construction() {
  spectrum_.prune();
  if (spectrum_.heuristics().read_kmers) {
    spectrum_.fetch_global_reads_tables();
  } else {
    spectrum_.drop_reads_tables();
  }
  if (spectrum_.heuristics().allgather_kmers) spectrum_.replicate_kmers();
  if (spectrum_.heuristics().allgather_tiles) spectrum_.replicate_tiles();
  spectrum_.replicate_group();  // no-op unless partial replication is on
  comm_->barrier();
}

void DistSpectrumModel::record_construction_footprint(
    stats::PhaseTimeline& report) {
  report.footprint_after_construction = spectrum_.footprint();
  report.construction_peak_bytes =
      std::max(report.construction_peak_bytes,
               report.footprint_after_construction.bytes);
}

void DistSpectrumModel::reset_for_job() { spectrum_.reset_for_job(); }

void DistSpectrumModel::prepare_correction(RankContext& ctx) {
  // Filter exchange runs on the rank main thread, before the service
  // thread exists: kTagFilterExchange is the only tagged traffic in
  // flight, so the blocking collection can never steal a lookup message.
  // (Idempotent: in serve mode only the first job's call exchanges.)
  spectrum_.exchange_filters(ctx.job.retry);
  comm_->reset_done();
  service_.emplace(*comm_, spectrum_);
}

/// One worker's lookup surface: a RemoteSpectrumView with the worker's own
/// reply tags (slot) and, with several workers sharing add_remote, the
/// thread-safe chunk-local caching variant. prefetch_chunk runs the view's
/// chunk wavefront.
class DistSpectrumModel::Handle final : public WorkerHandle {
 public:
  Handle(rtm::Comm& comm, parallel::DistSpectrum& spectrum, int slot,
         bool cache_remote_locally, parallel::RetryPolicy retry,
         const parallel::Heuristics& job_heur,
         const core::CorrectorParams& job_params)
      : view_(comm, spectrum, slot, cache_remote_locally, retry, &job_heur,
              &job_params) {}

  core::SpectrumView& view() override { return view_; }

  void prefetch_chunk(const seq::ReadBatch& batch) override {
    view_.prefetch_chunk(batch);
  }

  void harvest(stats::PhaseTimeline& acc) override {
    acc.lookups += view_.stats();
    acc.remote += view_.remote_stats();
    acc.comm_seconds = view_.comm_seconds();
  }

 private:
  parallel::RemoteSpectrumView view_;
};

std::unique_ptr<WorkerHandle> DistSpectrumModel::make_worker(
    const RankContext& ctx, int slot) {
  // With concurrent workers, add_remote must not write the shared reads
  // tables; each view then caches replies into its own chunk-local cache.
  // The view consults the JOB-effective heuristics and parameters (per-job
  // correction overrides), not the build values baked into the spectrum:
  // its wavefront must correct exactly as CorrectStage's corrector will.
  const bool cache_remote_locally =
      ctx.rank.worker_threads > 1 && ctx.job.heuristics.add_remote;
  return std::make_unique<Handle>(*comm_, spectrum_, slot,
                                  cache_remote_locally, ctx.job.retry,
                                  ctx.job.heuristics, ctx.job.params);
}

}  // namespace reptile::pipeline
