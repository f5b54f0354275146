#pragma once
// End-to-end distributed Reptile: the paper's full pipeline (Steps I-IV
// plus load balancing and heuristics), driven over the in-process runtime.
//
// Every functional configuration produces corrected reads bit-identical to
// core::run_sequential on the same input — the integration tests pin this
// for all heuristic combinations and rank counts.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/corrector.hpp"
#include "core/params.hpp"
#include "obs/trace.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/heuristics.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/remote_spectrum.hpp"
#include "rtm/check/check.hpp"
#include "rtm/topology.hpp"
#include "rtm/traffic.hpp"
#include "seq/read.hpp"

namespace reptile::parallel {

/// Configuration of one distributed run.
struct DistConfig {
  core::CorrectorParams params;
  Heuristics heuristics;
  int ranks = 4;
  int ranks_per_node = 1;
  /// Correction worker threads per rank (besides the communication
  /// thread). The paper runs 1 worker + 1 communication thread per rank in
  /// the distributed modes, and many workers per rank in the
  /// fully-replicated mode (64 threads/rank on BlueGene/Q). Each worker
  /// uses its own reply tags, so remote lookups from concurrent workers
  /// never mix. The add_remote heuristic needs exactly one worker: it
  /// writes replies into the shared reads tables, which are not
  /// thread-safe to write during correction.
  int worker_threads = 1;
  /// Runtime options: chaos delivery (see rtm/chaos.hpp) and rtm-check
  /// (see rtm/check/check.hpp). Checking defaults to on; when it is on,
  /// the linter is armed with the lookup protocol table + strict tags
  /// unless a custom table was supplied, since the lookup protocol is the
  /// only point-to-point traffic these pipelines generate.
  rtm::RunOptions run_options;
  /// Timeout/retry protocol for remote lookups (see parallel/protocol.hpp).
  /// Disabled by default (lookups block forever, the paper's behaviour);
  /// REQUIRED whenever run_options.chaos is lossy (drops or truncation) —
  /// validate_config rejects a lossy plan without retries, which could only
  /// deadlock.
  RetryPolicy retry;
  /// Observability for this run (see obs/trace.hpp): full span tracing
  /// (per-rank JSON shards written to `trace.path` at run end) and the
  /// metrics registry. Applied by run_distributed before ranks start —
  /// including the default-disabled state, so a traced run never leaks
  /// tracing into the next run in the same process. The flight recorder
  /// stays on either way.
  obs::TraceConfig trace;

  rtm::Topology topology() const { return {ranks, ranks_per_node}; }
};

/// Everything one rank measured; the unit of the paper's per-rank figures
/// (errors corrected per rank, fastest/slowest rank times, remote tile
/// lookups per rank, MB per rank, ...). The measurement fields are the
/// shared stats::PhaseTimeline core; this adds the rank id and the
/// runtime-side traffic/check snapshots.
struct RankReport : stats::PhaseTimeline {
  int rank = 0;
  rtm::TrafficSnapshot traffic;
  /// rtm-check counters (all-zero when checking was off for the run).
  rtm::check::CheckSnapshot check;
};

/// Result of a distributed run.
struct DistResult {
  /// Corrected reads, merged from all ranks and sorted by sequence number
  /// (i.e. in original file order, regardless of load balancing).
  std::vector<seq::Read> corrected;
  std::vector<RankReport> ranks;

  std::uint64_t total_substitutions() const {
    return stats::field_total(ranks, &stats::PhaseTimeline::substitutions);
  }
  std::uint64_t total_reads_changed() const {
    return stats::field_total(ranks, &stats::PhaseTimeline::reads_changed);
  }
  double max_construct_seconds() const {
    return stats::field_max(ranks, &stats::PhaseTimeline::construct_seconds);
  }
  double max_correct_seconds() const {
    return stats::field_max(ranks, &stats::PhaseTimeline::correct_seconds);
  }
};

/// Validates a DistConfig exactly as run_distributed would before starting
/// ranks; throws std::invalid_argument on any inconsistency (bad params or
/// heuristics, add_remote without batch_lookups under concurrent workers,
/// a lossy chaos plan with retries disabled). Exposed so other drivers over
/// the same config (the resident server in parallel/serve.hpp) reject bad
/// configs with identical messages.
void validate_dist_config(const DistConfig& config);

/// The run options actually handed to the runtime: when checking is on and
/// the caller supplied no custom tag table, arms the linter with the lookup
/// protocol table (which includes the serve-mode job tags) and strict tags —
/// that protocol is the only point-to-point traffic the pipelines send, so
/// any stray tag is a bug.
rtm::RunOptions resolve_run_options(const DistConfig& config);

/// Runs the full distributed pipeline over an in-memory dataset. Step I is
/// emulated by slicing `reads` into np contiguous partitions (the byte-range
/// file partitioning applied to in-memory data); file-based runs use
/// seq::PartitionedReadSource via the example binaries.
DistResult run_distributed(const std::vector<seq::Read>& reads,
                           const DistConfig& config);

/// Runs the full distributed pipeline from a FASTA + quality file pair:
/// every rank performs the paper's Step I itself (opens both files, takes
/// its byte range, aligns to record boundaries, seeks the quality file to
/// the same starting sequence number).
DistResult run_distributed_files(const std::filesystem::path& fasta,
                                 const std::filesystem::path& qual,
                                 const DistConfig& config);

}  // namespace reptile::parallel
