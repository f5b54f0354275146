#include "pipeline/dist_model.hpp"

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
  for (const parallel::LookupKind kind : parallel::kLookupKinds) {
    if (spectrum_.heuristics().allgather(kind)) spectrum_.replicate(kind);
  }
  spectrum_.replicate_group();  // no-op unless partial replication is on
  comm_->barrier();
}

void DistSpectrumModel::reset_for_job() { spectrum_.reset_for_job(); }

void DistSpectrumModel::prepare_correction(RankContext& ctx) {
  // Filter exchange runs on the rank main thread, before the service
  // thread exists: kTagFilterExchange is the only tagged traffic in
  // flight, so the blocking collection can never steal a lookup message.
  // (Idempotent: in serve mode only the first job's call exchanges.)
  spectrum_.exchange_filters(ctx.job.retry);
  service_.emplace(*comm_, spectrum_, ctx.job.heuristics.universal);
}

/// One worker's lookup surface: a RemoteSpectrumView with the worker's own
/// reply tags (slot). correct_chunk runs the view's one-pass chunk
/// wavefront; prefetch_chunk its copy-only form, for callers that compose
/// the default correct_chunk.
class DistSpectrumModel::Handle final : public WorkerHandle {
 public:
  Handle(rtm::Comm& comm, parallel::DistSpectrum& spectrum, int slot,
         parallel::RetryPolicy retry, const parallel::Heuristics& job_heur,
         const core::CorrectorParams& job_params)
      : view_(comm, spectrum, slot, retry, &job_heur, &job_params) {}

  core::SpectrumView& view() override { return view_; }

  /// The view corrects with the job's parameters, which are `corrector`'s.
  void correct_chunk(const core::TileCorrector& /*corrector*/,
                     seq::ReadBatch& batch,
                     std::vector<core::ReadCorrection>& out) override {
    view_.correct_chunk(batch, out);
  }

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
  // The view consults the JOB-effective heuristics and parameters (per-job
  // correction overrides), not the build values baked into the spectrum:
  // its wavefront must correct exactly as CorrectStage's corrector will.
  return std::make_unique<Handle>(*comm_, spectrum_, slot, ctx.job.retry,
                                  ctx.job.heuristics, ctx.job.params);
}

}  // namespace reptile::pipeline
