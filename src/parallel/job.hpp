#pragma once
// Per-job configuration of a resident correction server (DESIGN.md §13).
//
// The rank-vs-job lifetime split (pipeline/context.hpp) pins which knobs a
// streamed job may override: anything the spectrum was built from — k,
// tile_overlap, the thresholds, canonical IDs, and the construction-phase
// heuristics (read_kmers, allgather_*, batch_reads, bloom_construction,
// partial_replication_group) — is RANK-lifetime and fixed at server start.
// Everything that only steers the correction phase is fair game per job:
// the corrector search knobs, chunking, the lookup-path heuristics
// (universal / batch_lookups / filter_lookups / add_remote), the retry
// policy, and the deadline. Every member is an optional: unset keeps the
// server's build-time value, so an empty JobOverrides reproduces a one-shot
// run bit for bit.

#include <cstddef>
#include <optional>
#include <stdexcept>

#include "core/params.hpp"
#include "parallel/heuristics.hpp"
#include "parallel/protocol.hpp"

namespace reptile::parallel {

/// Correction-phase overrides of one streamed job; unset = the server's
/// build-time value. Parsed from the config `job.*` namespace
/// (parallel/config_file.hpp) or filled programmatically per JobRequest.
struct JobOverrides {
  // --- corrector search knobs (core::CorrectorParams) -------------------
  std::optional<int> qual_threshold;
  std::optional<bool> restrict_to_low_quality;
  std::optional<int> max_positions_per_tile;
  std::optional<int> max_hamming;
  std::optional<double> dominance_ratio;
  std::optional<int> max_corrections_per_read;
  std::optional<std::size_t> chunk_size;
  std::optional<std::size_t> prefetch_capacity;

  // --- correction-phase lookup heuristics -------------------------------
  std::optional<bool> universal;
  std::optional<bool> batch_lookups;
  std::optional<bool> filter_lookups;
  std::optional<bool> add_remote;

  // --- SLO --------------------------------------------------------------
  /// Wall-clock budget for the job's correction phase, in seconds;
  /// unset/0 = no deadline. A job that blows it finishes conservatively
  /// (remaining reads pass through uncorrected) and is marked degraded.
  std::optional<double> deadline_seconds;
  /// Timeout/retry policy override for the job's remote lookups.
  std::optional<RetryPolicy> retry;

  bool any_set() const noexcept {
    return qual_threshold || restrict_to_low_quality ||
           max_positions_per_tile || max_hamming || dominance_ratio ||
           max_corrections_per_read || chunk_size || prefetch_capacity ||
           universal || batch_lookups || filter_lookups || add_remote ||
           deadline_seconds || retry;
  }

  /// The job's effective parameters: the build parameters with this job's
  /// overrides applied. Build-lifetime fields pass through untouched.
  core::CorrectorParams apply_to(const core::CorrectorParams& build) const {
    core::CorrectorParams p = build;
    if (qual_threshold) p.qual_threshold = *qual_threshold;
    if (restrict_to_low_quality) {
      p.restrict_to_low_quality = *restrict_to_low_quality;
    }
    if (max_positions_per_tile) {
      p.max_positions_per_tile = *max_positions_per_tile;
    }
    if (max_hamming) p.max_hamming = *max_hamming;
    if (dominance_ratio) p.dominance_ratio = *dominance_ratio;
    if (max_corrections_per_read) {
      p.max_corrections_per_read = *max_corrections_per_read;
    }
    if (chunk_size) p.chunk_size = *chunk_size;
    if (prefetch_capacity) p.prefetch_capacity = *prefetch_capacity;
    return p;
  }

  /// The job's effective heuristics: build heuristics with the correction-
  /// phase flags swapped. Construction-phase flags pass through untouched —
  /// the spectrum they shaped already exists.
  Heuristics apply_to(const Heuristics& build) const {
    Heuristics h = build;
    if (universal) h.universal = *universal;
    if (batch_lookups) h.batch_lookups = *batch_lookups;
    if (filter_lookups) h.filter_lookups = *filter_lookups;
    if (add_remote) h.add_remote = *add_remote;
    return h;
  }

  /// Validates the overrides against the server's build configuration;
  /// throws std::invalid_argument with the same messages a one-shot run of
  /// the effective config would produce, plus the serve-specific
  /// constraints (add_remote needs the build-time reads tables and one
  /// worker).
  void validate(const core::CorrectorParams& build_params,
                const Heuristics& build_heur, int worker_threads) const {
    apply_to(build_params).validate();
    const Heuristics h = apply_to(build_heur);
    h.validate();  // catches add_remote without read_kmers
    if (h.add_remote && !build_heur.read_kmers) {
      throw std::invalid_argument(
          "job: add_remote needs the reads tables, which exist only when "
          "the server was built with heuristics.read_kmers");
    }
    if (worker_threads > 1 && h.add_remote) {
      throw std::invalid_argument(
          "job: add_remote needs worker_threads == 1 (shared reads tables "
          "are not thread-safe to write)");
    }
    if (deadline_seconds && *deadline_seconds < 0.0) {
      throw std::invalid_argument("job: deadline_seconds must be >= 0");
    }
    if (retry) retry->validate();
  }
};

}  // namespace reptile::parallel
