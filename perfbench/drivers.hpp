#pragma once
// The traced drivers: the program's own pipelines, recomposed from their
// public pieces with every seam decorated (trace.hpp).
//
//   run_traced_oneshot — parallel::run_distributed / run_distributed_files:
//     rtm::run_world over a decorated DistSpectrumModel running the paper
//     graph, then MergeStage.
//   run_traced_server  — parallel::CorrectionServer: the build half of the
//     graph once per rank, then one correction graph per job, with the same
//     announce/complete control messages rank 0 exchanges with its peers.
//
// The benchmark checks that these drivers reproduce the program exactly:
// their outputs and exact counters must equal the untraced run's.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "parallel/dist_pipeline.hpp"
#include "seq/read.hpp"
#include "trace.hpp"

namespace perfbench {

/// One-shot input: in-memory reads, or a FASTA + quality file pair when
/// `fasta` is set.
struct OneShotInput {
  const std::vector<reptile::seq::Read>* reads = nullptr;
  std::filesystem::path fasta;
  std::filesystem::path qual;
};

/// Span seconds of one rank within one run or job.
struct StageSeconds {
  double load_balance = 0;
  double build_spectrum = 0;
  double correct = 0;
  double root = 0;        ///< the enclosing run / build / job span
  double covered = 0;     ///< the root's direct children
  double merge = 0;       ///< merge span, inside the root or not
  double merge_root = 0;  ///< merge span outside the root (one-shot driver)
};

/// Reads the spans of run `run_id` from one rank's log.
StageSeconds stage_seconds(const SpanLog& log, std::uint64_t run_id);

/// One traced run or job, with each rank's counters.
struct TracedRun {
  std::uint64_t run_id = 0;
  double wall_s = 0;  ///< one-shot: run_world + merge; job: rank 0's job span
  std::vector<reptile::seq::Read> corrected;
  std::vector<reptile::parallel::RankReport> ranks;
  std::vector<LayerCounters> counters;  ///< per rank
  std::vector<StageSeconds> stages;     ///< per rank
};

TracedRun run_traced_oneshot(const OneShotInput& input,
                             const reptile::parallel::DistConfig& config,
                             std::vector<RankTrace>& traces,
                             std::uint64_t run_id);

struct TracedServer {
  /// The build half (LoadBalance -> BuildSpectrum), as run `first_id`.
  TracedRun build;
  /// Jobs in submission order, as runs first_id + 1, first_id + 2, ...
  std::vector<TracedRun> jobs;
};

TracedServer run_traced_server(
    const std::vector<reptile::seq::Read>& build_reads,
    const std::vector<const std::vector<reptile::seq::Read>*>& jobs,
    const reptile::parallel::DistConfig& config,
    std::vector<RankTrace>& traces, std::uint64_t first_id);

/// Median round-trip time, in microseconds, of `rounds` one-value
/// Comm::send_value / Comm::recv ping-pongs between two ranks.
double p2p_rtt_us(int rounds);

}  // namespace perfbench
