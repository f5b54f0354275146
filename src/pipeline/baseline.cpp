// parallel::run_replicated_baseline as a stage-graph configuration: the
// prior-art instance (BuildSpectrum over the replicated model, then the
// dynamic master-worker WorkQueueCorrectStage over the shared read array).

#include "parallel/baseline_replicated.hpp"

#include <utility>

#include "pipeline/context.hpp"
#include "pipeline/replicated_model.hpp"
#include "pipeline/session.hpp"
#include "pipeline/stages.hpp"
#include "rtm/comm.hpp"

namespace reptile::parallel {

BaselineResult run_replicated_baseline(const std::vector<seq::Read>& reads,
                                       const BaselineConfig& config) {
  config.params.validate();
  const pipeline::ReadInput input(reads);
  const auto np = static_cast<std::size_t>(config.ranks);
  std::vector<std::vector<seq::Read>> corrected(np);
  BaselineResult result;
  result.ranks.resize(np);

  // All observability off, and plain run options: resolve_run_options
  // would lint the work-queue tags as strict-tag violations of the lookup
  // protocol.
  pipeline::run_session(
      {config.ranks, config.ranks_per_node}, obs::TraceConfig{},
      rtm::RunOptions{}, [&](rtm::Comm& comm) {
        pipeline::ReplicatedSpectrumModel model(config.params, comm);
        const auto source = input.open(comm.rank(), comm.size());
        pipeline::RankContext ctx;
        ctx.bind(config.params);
        ctx.rank.comm = &comm;
        ctx.rank.model = &model;
        ctx.job.source = source.get();
        pipeline::baseline_graph(reads, config.work_chunk).run(ctx);

        const auto slot = static_cast<std::size_t>(comm.rank());
        BaselineRankReport& report = result.ranks[slot];
        report.timeline() = std::move(ctx.job.report);
        report.rank = comm.rank();
        report.chunks_granted = report.work_grants;
        report.spectrum_bytes = report.footprint_after_construction.bytes;
        corrected[slot] = std::move(ctx.job.corrected);
      });

  result.corrected = pipeline::MergeStage::run(std::move(corrected));
  return result;
}

}  // namespace reptile::parallel
