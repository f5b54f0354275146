// Ablation: partial replication (the paper's Section V future-work idea).
//
// "One potential strategy is for each rank to store the k-mers and tiles of
// a subset of other ranks, besides the k-mers and the tiles the rank owns.
// This would allow the memory footprint to be low enough for a complete
// execution and reduce the communication overhead, which could enable a
// faster runtime."
//
// This bench sweeps the replication-group size for E.Coli at 1024 ranks /
// 32 per node and shows exactly that trade: remote traffic (and modeled
// time) falls as the group grows, memory rises g-fold, and node-sized
// groups (g = ranks/node) are the sweet spot — group traffic rides the
// shared-memory transport anyway. A second table ablates the Bloom-filter
// construction mode against exact counting.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto trace = bench::parse_bench_args(argc, argv, {.json = false}).trace;
  bench::print_header(
      "Ablation — partial replication (paper Section V) and Bloom "
      "construction",
      "future work: replicate a subset of ranks' spectra to cut "
      "communication at bounded memory");

  const auto full = seq::DatasetSpec::ecoli();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  constexpr int kRanks = 1024;
  constexpr int kRanksPerNode = 32;

  stats::TextTable table({"group size", "remote lookups/rank (M)",
                          "correct s", "comm s", "MB/rank", "vs g=1"});
  double base_total = 0;
  for (int group : {1, 32, 128, 256, 512, 1024}) {
    parallel::Heuristics heur;
    heur.partial_replication_group = group;
    const auto workload = perfmodel::synthesize_workload(
        traits, full, kRanks, kRanksPerNode, heur);
    const auto run = perfmodel::estimate_run(machine, workload, kRanksPerNode,
                                             heur, traits.params.chunk_size);
    if (group == 1) base_total = run.correct_seconds();
    table.row()
        .cell(group)
        .cell_fixed(workload[0].remote_lookups() / 1e6, 2)
        .cell_fixed(run.correct_seconds(), 1)
        .cell_fixed(run.max_comm_seconds(), 1)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell_fixed(run.correct_seconds() / base_total, 2);
  }
  table.print(std::cout);
  std::printf(
      "\nnote: remote traffic falls by g/np while replica memory grows by\n"
      "g x owned-shard — the dial Section V proposes (\"only lower the\n"
      "memory footprint as much as needed\"): with 512 MB/rank to spend, a\n"
      "large group buys back much of the full-replication speedup at a\n"
      "fraction of its footprint. g=1024 equals full replication.\n");

  // --- functional cross-check ------------------------------------------------
  std::printf("\nfunctional cross-check (8 ranks, measured):\n");
  const auto ds = bench::scaled_replica(full, 2000, 7);
  parallel::DistConfig config;
  config.params = bench::bench_params();
  config.trace = trace;
  config.run_options.check.enabled = false;  // benchmark: no rtm-check hooks
  config.params.chunk_size = 256;
  config.ranks = 8;
  config.ranks_per_node = 4;
  stats::TextTable fn({"group size", "remote lookups", "group-table hits",
                       "peak MB (max rank)", "identical output"});
  std::vector<seq::Read> reference;
  for (int group : {1, 2, 4, 8}) {
    config.heuristics.partial_replication_group = group;
    const auto result = parallel::run_distributed(ds.reads, config);
    if (reference.empty()) reference = result.corrected;
    stats::PhaseTimeline total;  // counters summed over ranks
    std::size_t peak = 0;
    for (const auto& r : result.ranks) {
      total += r.timeline();
      peak = std::max(peak, r.footprint_after_correction.bytes);
    }
    fn.row()
        .cell(group)
        .cell(total.remote.remote_lookups())
        .cell(total.remote.group_lookups)
        .cell_fixed(static_cast<double>(peak) / (1 << 20), 2)
        .cell(result.corrected == reference ? "yes" : "NO");
  }
  fn.print(std::cout);

  // --- Bloom-filter construction ablation -------------------------------------
  std::printf("\nBloom-filter construction (paper Step III note), modeled "
              "at 1024 ranks:\n");
  stats::TextTable bloom({"construction", "construction peak MB/rank",
                          "steady MB/rank"});
  for (const bool use_bloom : {false, true}) {
    parallel::Heuristics heur;
    heur.bloom_construction = use_bloom;
    const auto workload = perfmodel::synthesize_workload(
        traits, full, kRanks, kRanksPerNode, heur);
    bloom.row()
        .cell(use_bloom ? "bloom (approximate)" : "exact")
        .cell_fixed(workload[0].construction_peak_bytes / (1 << 20), 2)
        .cell_fixed(workload[0].spectrum_bytes / (1 << 20), 2);
  }
  bloom.print(std::cout);
  return 0;
}
