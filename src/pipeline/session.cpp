#include "pipeline/session.hpp"

#include <cstddef>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "rtm/check/check.hpp"
#include "seq/fasta_io.hpp"

namespace reptile::pipeline {

std::unique_ptr<seq::ReadSource> ReadInput::open(int rank, int np) const {
  if (reads_ == nullptr) {
    return std::make_unique<seq::PartitionedReadSource>(fasta_, qual_, rank,
                                                        np);
  }
  const auto r = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(np);
  return std::make_unique<seq::SliceReadSource>(
      *reads_, reads_->size() * r / p, reads_->size() * (r + 1) / p);
}

std::vector<rtm::check::CheckSnapshot> run_session(
    rtm::Topology topology, const obs::TraceConfig& trace,
    const rtm::RunOptions& options,
    const std::function<void(rtm::Comm&)>& rank_body) {
  obs::Tracer::instance().configure(trace);
  obs::Registry::global().configure(trace.metrics);
  obs::ResourceLedger::global().configure(trace.ledger);
  auto world = rtm::run_world(topology, rank_body, options);

  std::vector<rtm::check::CheckSnapshot> checks(
      static_cast<std::size_t>(topology.nranks));
  if (rtm::check::RunChecker* check = world->checker()) {
    for (int rank = 0; rank < topology.nranks; ++rank) {
      checks[static_cast<std::size_t>(rank)] = check->snapshot(rank);
    }
  }
  if (obs::ResourceLedger::global().enabled()) {
    obs::publish_ledger_metrics(obs::ResourceLedger::global().snapshot());
  }
  world.reset();  // joins chaos/watchdog threads; ring buffers now quiescent
  if (trace.enabled && !trace.path.empty()) {
    obs::Tracer::instance().write_shards(trace.path, topology.nranks);
  }
  return checks;
}

DistRank::DistRank(const parallel::DistConfig& config, rtm::Comm& comm)
    : model(config.params, config.heuristics, comm) {
  ctx.bind(config.params, config.heuristics);
  ctx.rank.worker_threads = config.worker_threads;
  ctx.rank.comm = &comm;
  ctx.rank.model = &model;
  ctx.job.retry = config.retry;
}

parallel::RankReport take_report(RankContext& ctx) {
  parallel::RankReport report;
  report.timeline() = std::move(ctx.job.report);
  report.rank = ctx.rank_id();
  report.traffic = ctx.comm()->world().traffic().snapshot(report.rank);
  return report;
}

}  // namespace reptile::pipeline
