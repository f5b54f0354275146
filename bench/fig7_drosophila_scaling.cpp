// Figure 7: Drosophila strong scaling, 32 to 512 nodes.
//
// Paper findings to reproduce:
//   - excellent scalability from 1024 to 8192+ ranks (32 ranks/node);
//   - parallel efficiency 0.64 at 8192 ranks;
//   - load balancing improves runtime by more than 7x at 8192 ranks, and
//     the imbalanced runs at the lowest rank counts "did not finish in a
//     reasonable time";
//   - the 1024-rank run used the batch-reads heuristic, which pushes k-mer
//     construction to 981 s but keeps the construction footprint low.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto args = bench::parse_bench_args(argc, argv, {.runtime = false});
  bench::print_header(
      "Figure 7 — Drosophila scaling, 32-512 nodes (32 ranks/node)",
      "efficiency 0.64 at 8192 ranks; balancing >7x at 8192 ranks; "
      "imbalanced low-rank runs DNF");

  const auto full = seq::DatasetSpec::drosophila();
  // The Drosophila profile (bench_errors_for): cleaner reads overall but
  // errors concentrated in fewer, hotter file regions — the paper's
  // imbalanced Drosophila runs never finished.
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  constexpr int kRanksPerNode = 32;

  parallel::Heuristics balanced = bench::paper_heuristics();
  balanced.batch_reads = true;  // as the paper's 1024-rank run
  parallel::Heuristics imbalanced = bench::paper_heuristics();
  imbalanced.load_balance = false;
  imbalanced.batch_reads = true;

  stats::TextTable table({"nodes", "ranks", "construct s", "correct s",
                          "total s", "imbalanced total s", "balance gain",
                          "MB/rank", "filter MB/rank", "efficiency"});
  perfmodel::RunEstimate baseline;
  std::vector<bench::ScalingModeledRow> modeled_rows;
  for (int nodes : {32, 64, 128, 256, 512}) {
    const int np = nodes * kRanksPerNode;
    const auto run =
        perfmodel::model_run(machine, traits, full, np, kRanksPerNode, balanced);
    const auto imb = perfmodel::model_run(machine, traits, full, np,
                                          kRanksPerNode, imbalanced);
    if (baseline.ranks.empty()) baseline = run;
    const double gain = imb.total_seconds() / run.total_seconds();
    const double eff =
        perfmodel::RunEstimate::parallel_efficiency(baseline, run);
    const double filter_mb = bench::modeled_filter_mb(
        machine, traits, full, np, kRanksPerNode, balanced);
    table.row()
        .cell(nodes)
        .cell(np)
        .cell_fixed(run.construct_seconds(), 1)
        .cell_fixed(run.correct_seconds(), 1)
        .cell_fixed(run.total_seconds(), 1)
        .cell_fixed(imb.total_seconds(), 1)
        .cell_fixed(gain, 2)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell_fixed(filter_mb, 2)
        .cell_fixed(eff, 2);
    modeled_rows.push_back({np, run.construct_seconds(), run.correct_seconds(),
                            run.total_seconds(), run.max_memory_mb(), eff,
                            filter_mb});
  }
  table.print(std::cout);

  std::printf(
      "\nshape checks vs paper: the balance gain stays large (paper: >7x at\n"
      "8192 ranks; the imbalanced 32/64-node runs would run for many hours —\n"
      "the paper aborted them). Efficiency declines with scale as the\n"
      "per-rank work shrinks against fixed communication overheads.\n");

  // This driver is modeled-only: functional section empty, every modeled
  // number warn-only in the bench gate.
  if (!args.json_path.empty() &&
      !bench::write_scaling_json(args.json_path, "fig7", {}, modeled_rows)) {
    return 1;
  }
  return 0;
}
