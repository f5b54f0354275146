// parallel::run_distributed / run_distributed_files as stage-graph
// configurations: the full paper instance (LoadBalance -> BuildSpectrum ->
// Correct over the partitioned spectrum model), one graph run per rank
// inside the in-process runtime, then the cross-rank merge.

#include "parallel/dist_pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/protocol_table.hpp"
#include "pipeline/session.hpp"
#include "pipeline/stages.hpp"

namespace reptile::parallel {

namespace {

/// Both one-shot drivers: one paper_graph() run per rank over its Step I
/// partition of `input`, then the merge.
DistResult run_one_shot(const pipeline::ReadInput& input,
                        const DistConfig& config) {
  validate_dist_config(config);
  const auto np = static_cast<std::size_t>(config.ranks);
  std::vector<std::vector<seq::Read>> corrected(np);
  DistResult result;
  result.ranks.resize(np);

  const auto checks = pipeline::run_session(
      config.topology(), config.trace, resolve_run_options(config),
      [&](rtm::Comm& comm) {
        pipeline::DistRank rank(config, comm);
        const auto source = input.open(comm.rank(), comm.size());
        rank.ctx.job.source = source.get();
        pipeline::paper_graph().run(rank.ctx);
        const auto slot = static_cast<std::size_t>(comm.rank());
        corrected[slot] = std::move(rank.ctx.job.corrected);
        result.ranks[slot] = pipeline::take_report(rank.ctx);
      });

  for (RankReport& report : result.ranks) {
    report.check = checks[static_cast<std::size_t>(report.rank)];
    obs::Registry::global().publish_timeline(report, report.rank);
  }
  result.corrected = pipeline::MergeStage::run(std::move(corrected));
  return result;
}

}  // namespace

void validate_dist_config(const DistConfig& config) {
  config.params.validate();
  config.heuristics.validate();
  if (config.worker_threads < 1) {
    throw std::invalid_argument("worker_threads must be >= 1");
  }
  if (config.worker_threads > 1 && config.heuristics.add_remote) {
    throw std::invalid_argument(
        "add_remote caches into the shared reads tables, which is not "
        "thread-safe with worker_threads > 1: use worker_threads == 1");
  }
  config.run_options.chaos.validate();
  config.retry.validate();
  if (config.run_options.chaos.lossy() && !config.retry.enabled()) {
    throw std::invalid_argument(
        "chaos plan drops or truncates messages but the retry protocol is "
        "disabled: a lost lookup would block its worker forever. Set "
        "retry.timeout_ticks > 0 (see parallel::RetryPolicy)");
  }
}

rtm::RunOptions resolve_run_options(const DistConfig& config) {
  rtm::RunOptions options = config.run_options;
  if (options.check.enabled && options.check.lint &&
      options.check.tags.empty()) {
    options.check.tags = lookup_tag_table();
    options.check.strict_tags = true;
  }
  return options;
}

DistResult run_distributed(const std::vector<seq::Read>& reads,
                           const DistConfig& config) {
  return run_one_shot(pipeline::ReadInput(reads), config);
}

DistResult run_distributed_files(const std::filesystem::path& fasta,
                                 const std::filesystem::path& qual,
                                 const DistConfig& config) {
  return run_one_shot(pipeline::ReadInput(fasta, qual), config);
}

}  // namespace reptile::parallel
