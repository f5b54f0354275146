// core::run_sequential as a stage-graph configuration: the paper pipeline
// with no communicator (LoadBalanceStage degenerates to bookkeeping,
// CorrectStage to one worker and no communication thread) over the local
// in-memory spectrum model.

#include "core/pipeline.hpp"

#include <utility>

#include "pipeline/context.hpp"
#include "pipeline/spectrum_model.hpp"
#include "pipeline/stages.hpp"

namespace reptile::core {

SequentialResult run_sequential(seq::ReadSource& source,
                                const CorrectorParams& params) {
  params.validate();
  pipeline::LocalSpectrumModel model(params);
  pipeline::RankContext ctx;
  ctx.bind(params);
  ctx.rank.model = &model;
  ctx.job.source = &source;
  pipeline::paper_graph().run(ctx);

  SequentialResult result;
  result.timeline() = std::move(ctx.job.report);
  // No World, so no observability state of its own: the process-wide
  // tracer, metrics and ledger belong to the World run that applied them,
  // which may still be live (a reference run beside a server). The ledger's
  // balances are that run's, not this one's.
  result.ledger.clear();
  result.ledger_total_peak_bytes = 0;
  result.ledger_rss_peak_bytes = 0;
  result.corrected = std::move(ctx.job.corrected);
  result.kmer_entries = result.footprint_after_construction.hash_kmer_entries;
  result.tile_entries = result.footprint_after_construction.hash_tile_entries;
  result.spectrum_bytes = result.footprint_after_construction.bytes;
  return result;
}

SequentialResult run_sequential(const std::vector<seq::Read>& reads,
                                const CorrectorParams& params) {
  seq::VectorReadSource source(reads);
  return run_sequential(source, params);
}

}  // namespace reptile::core
