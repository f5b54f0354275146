#pragma once
// Phase pricing: per-rank workload counters -> modeled BlueGene/Q seconds.
//
// For each rank,
//
//   construct = extract_insert_cost * extract_items * compute_slowdown
//             + alltoallv rounds (batch mode: one per chunk)
//   compute   = (read_base_cost * reads
//                + lookup_compute_cost * (kmer_lookups + tile_lookups))
//               * compute_slowdown
//   comm      = [remote_inter * rtt_inter + remote_intra * rtt_intra
//                + probe term (non-universal) + payload term (universal)]
//               * comm_slowdown
//   correct   = compute + comm
//
// The run's reported construction / correction time is the slowest rank's
// (phases end with a barrier). Memory per rank is the larger of the
// construction peak and the steady-state footprint (owned tables,
// replicas, reads tables and the byte-capped peer filters).

#include <cstddef>
#include <vector>

#include "parallel/heuristics.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/workload.hpp"

namespace reptile::perfmodel {

/// Modeled per-rank times and memory.
struct RankEstimate {
  double construct_seconds = 0;
  double compute_seconds = 0;  ///< correction minus communication
  double comm_seconds = 0;     ///< blocked on remote lookups
  /// Split of comm_seconds by lookup species — the paper's Fig. 2/4
  /// observation that tile traffic dominates.
  double comm_kmer_seconds = 0;
  double comm_tile_seconds = 0;
  double correct_seconds = 0;  ///< compute + comm
  double total_seconds = 0;    ///< construct + correct
  double memory_bytes = 0;
  double filter_bytes = 0;  ///< peer filters held, part of memory_bytes
  double remote_lookups = 0;
  double substitutions = 0;
};

/// Modeled run: per-rank estimates plus the aggregate views the paper's
/// figures report.
struct RunEstimate {
  std::vector<RankEstimate> ranks;
  int np = 0;
  int ranks_per_node = 0;

  double construct_seconds() const;  ///< slowest rank
  double correct_seconds() const;    ///< slowest rank
  double total_seconds() const;      ///< slowest rank, construct + correct
  double fastest_rank_seconds() const;
  double slowest_rank_seconds() const;
  double max_comm_seconds() const;
  double min_comm_seconds() const;
  double max_memory_bytes() const;
  double max_memory_mb() const { return max_memory_bytes() / (1 << 20); }
  double max_filter_bytes() const;
  double max_filter_mb() const { return max_filter_bytes() / (1 << 20); }

  /// Parallel efficiency of this run against a baseline run of the same
  /// workload: (T_base * np_base) / (T_this * np_this).
  static double parallel_efficiency(const RunEstimate& base,
                                    const RunEstimate& scaled);
};

/// Prices a synthesized workload on the machine.
RunEstimate estimate_run(const MachineModel& machine,
                         const std::vector<RankWorkload>& workload,
                         int ranks_per_node, const parallel::Heuristics& heur,
                         std::size_t chunk_size);

/// Convenience: synthesize + price in one call.
RunEstimate model_run(const MachineModel& machine, const DatasetTraits& traits,
                      const seq::DatasetSpec& full, int np, int ranks_per_node,
                      const parallel::Heuristics& heur);

}  // namespace reptile::perfmodel
