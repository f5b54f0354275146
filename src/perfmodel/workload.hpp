#pragma once
// Workload measurement and synthesis: the bridge between the scaled
// functional runs and the paper-scale figures.
//
// Measuring: `measure_traits` runs the REAL corrector over a scaled
// synthetic dataset with an instrumented spectrum view, recording the exact
// per-read lookup stream (every k-mer/tile lookup, its owner at a reference
// rank count, whether the rank's own reads-table could answer it, whether it
// repeats). Reads are averaged into two classes — inside and outside the
// error-burst file regions — because burstiness is what drives the paper's
// load-imbalance results.
//
// Synthesizing: `synthesize_workload` combines those measured traits with
// the FULL dataset geometry (Table I read counts) and a target rank count /
// topology / heuristic set, producing per-rank workload counters
// analytically: contiguous file slices intersect the periodic burst layout
// (imbalanced mode), or reads spread uniformly (static load balancing).
// The counters then go to the phase model (phase_model.hpp) for pricing.

#include <cstdint>
#include <numbers>
#include <vector>

#include "core/params.hpp"
#include "hash/count_table.hpp"
#include "parallel/heuristics.hpp"
#include "seq/dataset.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile::perfmodel {

/// Modeled bytes per entry of a table read after construction: the pruned
/// owned tables, replicas, group tables and fetched reads tables, all sized
/// by hash::CountTable::frozen. Their capacity / entries lies in [2, 4);
/// over entry counts spread evenly on a log scale its mean is 2 / ln 2
/// (2.89), so an entry costs 13 B x 2.89 = 37.5 B.
inline constexpr double kFrozenTableBytesPerEntry =
    hash::CountTable<>::kSlotBytes * 2.0 / std::numbers::ln2;

/// The same for a table still growing during construction (owned tables
/// before pruning, pending tables), grown at 7/8 load: capacity / entries
/// in [8/7, 16/7), mean 8 / (7 ln 2) (1.65), 21.4 B an entry.
inline constexpr double kGrowingTableBytesPerEntry =
    hash::CountTable<>::kSlotBytes * 8.0 / (7.0 * std::numbers::ln2);

/// Mean per-read correction work for one read class.
struct PerReadWork {
  double tile_checks = 0;    ///< top-of-loop trusted-tile checks
  double kmer_lookups = 0;   ///< all k-mer lookups (incl. candidate checks)
  double tile_lookups = 0;   ///< all tile lookups (incl. candidate checks)
  double own_kmer_hits = 0;  ///< of the remote ones, answerable by the
                             ///< rank's own reads-table (read_kmers mode)
  double own_tile_hits = 0;
  double substitutions = 0;  ///< corrections applied
};

/// Everything measured once per dataset.
struct DatasetTraits {
  seq::DatasetSpec measured_spec;       ///< the scaled dataset measured
  core::CorrectorParams params;
  double burst_fraction = 0;            ///< file-layout of error bursts
  int burst_regions = 0;
  std::uint64_t quiet_reads = 0;
  std::uint64_t burst_reads = 0;
  PerReadWork quiet;
  PerReadWork burst;
  /// Fraction of would-be-remote lookups that repeat an ID the same rank
  /// already fetched (what the add_remote cache saves).
  double repeat_remote_fraction = 0;
  /// Spectrum census after construction: entries kept by the threshold
  /// (genome-driven, scales with genome size) vs dropped (error-driven,
  /// scales with read count).
  std::uint64_t kept_kmers = 0, dropped_kmers = 0;
  std::uint64_t kept_tiles = 0, dropped_tiles = 0;
  double kmers_per_read = 0;
  double tiles_per_read = 0;

  /// Work of an average read (burst/quiet mix as measured).
  PerReadWork average() const;
};

/// Runs the instrumented measurement. `np_ref` is the rank count used for
/// owner attribution and reads-table membership (the paper's Fig. 3/4
/// reference of 128 ranks); the owner split is insensitive to np beyond the
/// (np-1)/np factor applied at synthesis time.
DatasetTraits measure_traits(const seq::SyntheticDataset& ds,
                             const core::CorrectorParams& params,
                             const seq::ErrorModelParams& errors,
                             int np_ref = 128);

/// Synthesized per-rank counters for a full-scale run.
struct RankWorkload {
  std::uint64_t reads = 0;
  std::uint64_t burst_reads = 0;
  double kmer_lookups = 0;
  double tile_lookups = 0;
  double remote_kmer_lookups = 0;
  double remote_tile_lookups = 0;
  double remote_intra = 0;  ///< remote lookups answered on the same node
  double remote_inter = 0;
  double requests_served = 0;  ///< lookups this rank answers for others
  double substitutions = 0;
  double extract_items = 0;    ///< k-mers + tiles extracted (construction)
  double exchange_bytes = 0;   ///< Step III alltoallv payload sent
  double owned_entries = 0;    ///< post-prune spectrum entries owned
  double spectrum_bytes = 0;   ///< owned tables after pruning
  double replica_bytes = 0;    ///< allgather heuristics
  double reads_table_bytes = 0;///< read_kmers (+ add_remote cache)
  double filter_bytes = 0;     ///< peer filters held (filter_lookups)
  double construction_peak_bytes = 0;

  double remote_lookups() const noexcept {
    return remote_kmer_lookups + remote_tile_lookups;
  }
};

/// Bytes of the peer filters one rank holds of a kind with `kept_entries`
/// post-prune entries (full scale), for np ranks in replication groups of
/// `group` (DistSpectrum::exchange_filters' byte cap): each out-of-group
/// owner's filter is sized at filter_fp_rate, but at most the owner's
/// table bytes / peers, so the rank holds min(fp sizing x out-of-group
/// entries, its owned-table bytes) — and nothing once the cap forces a
/// rate of kMaxFilterFpRate or more.
double modeled_filter_bytes(double kept_entries, int np, int group,
                            double filter_fp_rate);

/// Projects the measured traits onto the full dataset at (np, ranks_per_node)
/// under the given heuristics. Returns one RankWorkload per rank.
std::vector<RankWorkload> synthesize_workload(
    const DatasetTraits& traits, const seq::DatasetSpec& full, int np,
    int ranks_per_node, const parallel::Heuristics& heur);

/// Projects one rank's MEASURED report (the stage graph's PhaseTimeline
/// core, shared by every driver) onto the RankWorkload shape that
/// synthesize_workload produces analytically — the other side of the same
/// seam, so a scaled functional run and the analytic projection are
/// directly comparable counter by counter.
RankWorkload workload_from_report(const stats::PhaseTimeline& report);

/// Number of reads of [begin, end) that fall inside burst regions, given
/// the periodic burst layout (burst_regions regions covering burst_fraction
/// of `total` reads). Mirrors seq::IlluminaErrorModel::in_burst.
std::uint64_t count_burst_reads(std::uint64_t begin, std::uint64_t end,
                                std::uint64_t total, double burst_fraction,
                                int burst_regions);

}  // namespace reptile::perfmodel
