#pragma once
// Reptile-style configuration file.
//
// The paper's Step I: "The input to parallel Reptile consists of a
// configuration file, which specifies the fasta file and the quality file to
// be used for the error correction" plus the chunk size and algorithm
// knobs. Format: one `key value` pair per line, '#' starts a comment.
//
//   fasta_file        reads.fa
//   qual_file         reads.qual
//   kmer_length       12
//   tile_overlap      4
//   kmer_threshold    3
//   tile_threshold    3
//   chunk_size        2000
//   universal         1
//   batch_reads       1
//   load_balance      1
//   ...

#include <filesystem>
#include <string>

#include "core/params.hpp"
#include "obs/trace.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/heuristics.hpp"
#include "parallel/job.hpp"
#include "parallel/protocol.hpp"
#include "rtm/chaos.hpp"

namespace reptile::parallel {

/// Fully parsed run configuration.
struct RunConfigFile {
  std::filesystem::path fasta_file;
  std::filesystem::path qual_file;
  std::filesystem::path output_file;  ///< corrected FASTA (optional)
  core::CorrectorParams params;
  Heuristics heuristics;
  /// Run with rtm-check armed (deadlock watchdog, mailbox audit, protocol
  /// linter — see rtm/check/check.hpp). On by default; benchmark configs
  /// turn it off to keep hooks off the hot path.
  bool rtm_check = true;
  /// Lock-free mailbox fast path (rtm/mailbox.hpp). Only effective while
  /// rtm_check is off; disable to A/B against the legacy locked mailbox.
  bool mailbox_fast_path = true;
  /// Fault-injection plan (chaos_* keys; inactive unless chaos_seed != 0).
  /// A lossy plan (drops/truncation) additionally requires the retry
  /// protocol below — validate_config enforces this at run time.
  rtm::FaultPlan chaos;
  /// Timeout/retry protocol for remote lookups (lookup_timeout_ticks /
  /// lookup_max_retries keys; disabled by default).
  RetryPolicy retry;
  /// Observability (trace_* / metrics_* keys; see obs/trace.hpp): full
  /// tracing to per-rank JSON shards, metrics registry, ring capacity.
  /// The flight recorder is always on regardless.
  obs::TraceConfig trace;
  /// Per-job overrides for serve mode (`job.*` keys; see parallel/job.hpp
  /// and parallel/serve.hpp). Only the correction-phase knobs exist in this
  /// namespace; a key is emitted by to_config_text only when set, so an
  /// override-free config round-trips without any job.* lines.
  JobOverrides job;
};

/// Parses a configuration file. Throws std::runtime_error with the line
/// number on malformed input or unknown keys, and validates the result.
RunConfigFile parse_config_file(const std::filesystem::path& path);

/// Parses configuration text (used by tests and string-based setup).
RunConfigFile parse_config_text(const std::string& text);

/// Serializes a configuration back to file text (round-trips through
/// parse_config_text).
std::string to_config_text(const RunConfigFile& config);

/// The run a configuration file describes: params, heuristics, rtm_check
/// (run_options.check.enabled), mailbox_fast_path, chaos, retry and trace.
/// Rank counts, the input files and the job.* overrides stay the caller's.
/// An omitted key keeps the DistConfig default.
DistConfig to_dist_config(const RunConfigFile& config);

}  // namespace reptile::parallel
