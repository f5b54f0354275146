#pragma once
// The run lifecycle the drivers share (DESIGN.md §5 "Run lifecycle"): Step I
// input, the World bracketed by observability, and one DistConfig rank.
// run_sequential has no World and applies no observability state.

#include <filesystem>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/dist_pipeline.hpp"
#include "pipeline/context.hpp"
#include "pipeline/dist_model.hpp"
#include "rtm/comm.hpp"
#include "seq/read.hpp"

namespace reptile::pipeline {

/// A run's (or job's) Step I input: in-memory reads, or a FASTA + quality
/// file pair.
class ReadInput {
 public:
  explicit ReadInput(const std::vector<seq::Read>& reads) : reads_(&reads) {}
  ReadInput(std::filesystem::path fasta, std::filesystem::path qual)
      : fasta_(std::move(fasta)), qual_(std::move(qual)) {}

  /// Rank `rank`'s partition of `np`: the rank-th of np contiguous slices
  /// of the reads, or — Step I proper — the rank's byte range of both files.
  std::unique_ptr<seq::ReadSource> open(int rank, int np) const;

 private:
  const std::vector<seq::Read>* reads_ = nullptr;
  std::filesystem::path fasta_;
  std::filesystem::path qual_;
};

/// Runs `rank_body` on every rank of a fresh World, bracketed by the run's
/// observability: applies `trace` to the process-wide tracer, metrics
/// registry and resource ledger (the default all-off state included, so no
/// run inherits the previous run's), runs the ranks under `options`, takes
/// the rtm-check snapshots, publishes the ledger gauges, joins the World
/// (its chaos/watchdog threads; the trace rings are quiescent after), then
/// writes the trace shards when `trace` names a path. Returns one check
/// snapshot per rank, all-zero when checking was off. Applying the state is
/// only legal between runs: no other World may be live.
std::vector<rtm::check::CheckSnapshot> run_session(
    rtm::Topology topology, const obs::TraceConfig& trace,
    const rtm::RunOptions& options,
    const std::function<void(rtm::Comm&)>& rank_body);

/// One rank of a DistConfig run: the partitioned spectrum model and a
/// RankContext bound to it from the config (build params and heuristics,
/// worker threads, retry policy). The context borrows the model and
/// `config`, so a DistRank stays where it was made.
struct DistRank {
  DistRank(const parallel::DistConfig& config, rtm::Comm& comm);
  DistRank(const DistRank&) = delete;
  DistRank& operator=(const DistRank&) = delete;

  DistSpectrumModel model;
  RankContext ctx;
};

/// The rank's report of the graph run that just finished in `ctx`: moves
/// the job's timeline out and adds the rank id and the World's traffic
/// snapshot for the rank (message counters are World-cumulative).
parallel::RankReport take_report(RankContext& ctx);

}  // namespace reptile::pipeline
