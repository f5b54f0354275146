// Figure 4: effect of static load balancing, 128 ranks on 4 nodes (E.Coli).
//
// Paper findings to reproduce:
//   - without balancing, errors corrected per rank range 33886..47927
//     (~50% gap) and rank times range 4948 s .. >16000 s (>3x);
//   - communication time ranges 2891 .. 10800+ s; remote tile lookups
//     31M (fastest) .. 118M (slowest);
//   - with balancing, all ranks take ~8886 s uniformly, errors per rank
//     vary only ~2%, communication 5073..5268 s, ~64M tile lookups/rank;
//   - overall ~2x faster with balancing.
//
// The modeled table uses full E.Coli geometry; the functional section runs
// the real pipeline at 8 ranks on the scaled replica to show the same
// effect with measured (not modeled) counters.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto trace = bench::parse_bench_args(argc, argv, {.json = false}).trace;
  bench::print_header(
      "Figure 4 — load balance on/off, 128 ranks on 4 nodes (E.Coli)",
      "balancing: ~2x total speedup; rank times 4948..16000+ -> ~8886 flat");

  const auto full = seq::DatasetSpec::ecoli();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  constexpr int kRanks = 128;
  constexpr int kRanksPerNode = 32;

  stats::TextTable table({"mode", "fastest rank s", "slowest rank s",
                          "comm min s", "comm max s", "errors/rank min",
                          "errors/rank max", "remote tiles/rank min (M)",
                          "max (M)"});
  for (const bool balance : {false, true}) {
    parallel::Heuristics heur = bench::paper_heuristics();
    heur.load_balance = balance;
    const auto workload = perfmodel::synthesize_workload(
        traits, full, kRanks, kRanksPerNode, heur);
    const auto run = perfmodel::estimate_run(machine, workload, kRanksPerNode,
                                             heur, traits.params.chunk_size);
    double sub_min = 1e18, sub_max = 0, tiles_min = 1e18, tiles_max = 0;
    for (const auto& w : workload) {
      sub_min = std::min(sub_min, w.substitutions);
      sub_max = std::max(sub_max, w.substitutions);
      tiles_min = std::min(tiles_min, w.remote_tile_lookups);
      tiles_max = std::max(tiles_max, w.remote_tile_lookups);
    }
    table.row()
        .cell(balance ? "balanced" : "imbalanced")
        .cell_fixed(run.fastest_rank_seconds(), 0)
        .cell_fixed(run.slowest_rank_seconds(), 0)
        .cell_fixed(run.min_comm_seconds(), 0)
        .cell_fixed(run.max_comm_seconds(), 0)
        .cell_fixed(sub_min, 0)
        .cell_fixed(sub_max, 0)
        .cell_fixed(tiles_min / 1e6, 1)
        .cell_fixed(tiles_max / 1e6, 1);
  }
  table.print(std::cout);

  // --- functional cross-check at small scale --------------------------------
  std::printf("\nfunctional cross-check: real pipeline, 8 ranks, scaled "
              "replica (measured, not modeled):\n");
  const auto ds = bench::scaled_replica(full, 3000, 11);
  parallel::DistConfig config;
  config.params = bench::bench_params();
  config.trace = trace;
  config.run_options.check.enabled = false;  // benchmark: no rtm-check hooks
  config.params.chunk_size = 256;
  config.ranks = 8;
  config.ranks_per_node = 4;
  config.heuristics = bench::paper_heuristics();

  stats::TextTable fn({"mode", "untrusted tiles/rank min", "max",
                       "remote lookups/rank min", "max", "spread"});
  for (const bool balance : {false, true}) {
    config.heuristics.load_balance = balance;
    const auto result = parallel::run_distributed(ds.reads, config);
    std::vector<std::uint64_t> tiles, remote;
    for (const auto& r : result.ranks) {
      tiles.push_back(r.tiles_untrusted);
      remote.push_back(r.remote.remote_kmer_lookups +
                       r.remote.remote_tile_lookups);
    }
    const auto st = stats::summarize(std::span<const std::uint64_t>(tiles));
    const auto sr = stats::summarize(std::span<const std::uint64_t>(remote));
    fn.row()
        .cell(balance ? "balanced" : "imbalanced")
        .cell(static_cast<std::uint64_t>(st.min))
        .cell(static_cast<std::uint64_t>(st.max))
        .cell(static_cast<std::uint64_t>(sr.min))
        .cell(static_cast<std::uint64_t>(sr.max))
        .cell_fixed(st.relative_spread(), 2);
  }
  fn.print(std::cout);
  return 0;
}
