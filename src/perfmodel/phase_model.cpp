#include "perfmodel/phase_model.hpp"

#include <algorithm>
#include <cmath>

namespace reptile::perfmodel {

namespace {
double max_over(const std::vector<RankEstimate>& ranks,
                double RankEstimate::*field) {
  double m = 0;
  for (const auto& r : ranks) m = std::max(m, r.*field);
  return m;
}
double min_over(const std::vector<RankEstimate>& ranks,
                double RankEstimate::*field) {
  if (ranks.empty()) return 0;
  double m = ranks.front().*field;
  for (const auto& r : ranks) m = std::min(m, r.*field);
  return m;
}
}  // namespace

double RunEstimate::construct_seconds() const {
  return max_over(ranks, &RankEstimate::construct_seconds);
}
double RunEstimate::correct_seconds() const {
  return max_over(ranks, &RankEstimate::correct_seconds);
}
double RunEstimate::total_seconds() const {
  return max_over(ranks, &RankEstimate::total_seconds);
}
double RunEstimate::fastest_rank_seconds() const {
  return min_over(ranks, &RankEstimate::total_seconds);
}
double RunEstimate::slowest_rank_seconds() const { return total_seconds(); }
double RunEstimate::max_comm_seconds() const {
  return max_over(ranks, &RankEstimate::comm_seconds);
}
double RunEstimate::min_comm_seconds() const {
  return min_over(ranks, &RankEstimate::comm_seconds);
}
double RunEstimate::max_memory_bytes() const {
  return max_over(ranks, &RankEstimate::memory_bytes);
}
double RunEstimate::max_filter_bytes() const {
  return max_over(ranks, &RankEstimate::filter_bytes);
}

double RunEstimate::parallel_efficiency(const RunEstimate& base,
                                        const RunEstimate& scaled) {
  const double t0 = base.total_seconds() * base.np;
  const double t1 = scaled.total_seconds() * scaled.np;
  return t1 == 0 ? 0 : t0 / t1;
}

RunEstimate estimate_run(const MachineModel& machine,
                         const std::vector<RankWorkload>& workload,
                         int ranks_per_node, const parallel::Heuristics& heur,
                         std::size_t chunk_size) {
  RunEstimate run;
  run.np = static_cast<int>(workload.size());
  run.ranks_per_node = ranks_per_node;
  run.ranks.reserve(workload.size());

  const double compute_slow = machine.compute_slowdown(ranks_per_node);
  const int nodes = (run.np + ranks_per_node - 1) / ranks_per_node;
  const double comm_slow =
      machine.comm_slowdown(ranks_per_node) * machine.rtt_scale(nodes);

  for (const RankWorkload& w : workload) {
    RankEstimate e;

    // --- construction -----------------------------------------------------
    e.construct_seconds =
        machine.extract_insert_cost * w.extract_items * compute_slow;
    const std::uint64_t rounds =
        heur.batch_reads
            ? std::max<std::uint64_t>(1, (w.reads + chunk_size - 1) / chunk_size)
            : 1;
    // Payload is spread over the rounds; each round pays the latency term.
    const auto bytes_per_round =
        static_cast<std::size_t>(w.exchange_bytes / static_cast<double>(rounds));
    e.construct_seconds +=
        static_cast<double>(rounds) *
        machine.alltoallv_cost(bytes_per_round, run.np, ranks_per_node);
    if (heur.read_kmers) {
      // Global-count fetch: two extra alltoallv rounds over the reads-table
      // IDs (approximated by the reads-table size in entries * 8 B).
      const auto fetch_bytes = static_cast<std::size_t>(
          w.reads_table_bytes / kFrozenTableBytesPerEntry * 8.0);
      e.construct_seconds +=
          2 * machine.alltoallv_cost(fetch_bytes, run.np, ranks_per_node);
    }
    if (heur.allgather_kmers || heur.allgather_tiles) {
      e.construct_seconds += machine.alltoallv_cost(
          static_cast<std::size_t>(w.replica_bytes), run.np, ranks_per_node);
    }

    // --- correction: compute side ------------------------------------------
    e.compute_seconds =
        (machine.read_base_cost * static_cast<double>(w.reads) +
         machine.lookup_compute_cost * (w.kmer_lookups + w.tile_lookups)) *
        compute_slow;

    // --- correction: communication side --------------------------------------
    double comm = w.remote_inter * machine.remote_rtt_inter +
                  w.remote_intra * machine.remote_rtt_intra;
    if (heur.universal) {
      // Bigger self-describing request (16 B vs 8 B), no probes anywhere.
      comm += w.remote_lookups() * 8.0 * machine.byte_cost;
    } else {
      // The worker's round trip includes the owner's probe work (~1.5
      // probes per serviced request: one hit plus occasional misses).
      comm += w.remote_lookups() * 1.5 * machine.probe_cost;
    }
    e.comm_seconds = comm * comm_slow;
    // Species split, proportional to the remote lookup mix (both species
    // share the same transport).
    const double remote_total = w.remote_lookups();
    if (remote_total > 0) {
      e.comm_tile_seconds =
          e.comm_seconds * (w.remote_tile_lookups / remote_total);
      e.comm_kmer_seconds = e.comm_seconds - e.comm_tile_seconds;
    }
    e.correct_seconds = e.compute_seconds + e.comm_seconds;
    e.total_seconds = e.construct_seconds + e.correct_seconds;

    // --- memory -------------------------------------------------------------
    const double steady = w.spectrum_bytes + w.replica_bytes +
                          w.reads_table_bytes + w.filter_bytes;
    e.memory_bytes = std::max(steady, w.construction_peak_bytes);
    e.filter_bytes = w.filter_bytes;

    e.remote_lookups = w.remote_lookups();
    e.substitutions = w.substitutions;
    run.ranks.push_back(e);
  }
  return run;
}

RunEstimate model_run(const MachineModel& machine, const DatasetTraits& traits,
                      const seq::DatasetSpec& full, int np, int ranks_per_node,
                      const parallel::Heuristics& heur) {
  const auto workload =
      synthesize_workload(traits, full, np, ranks_per_node, heur);
  return estimate_run(machine, workload, ranks_per_node, heur,
                      traits.params.chunk_size);
}

}  // namespace reptile::perfmodel
