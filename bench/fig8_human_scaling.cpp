// Figure 8: Human dataset (1.55 B reads), 128 to 1024 nodes.
//
// Paper findings to reproduce:
//   - all runs use batch-reads + load balancing (the Step III exchange
//     buffers would otherwise exceed per-process memory);
//   - batch size 5000 reads for the 128/256-node runs, 10000 for 512/1024;
//   - error correction completes in a little more than two hours
//     (~2.2-2.5 h) on 1024 nodes (32768 ranks);
//   - every run stays under 512 MB per process;
//   - Section V: footprint ~120 MB/rank at 1024 nodes (E.Coli <50 MB at
//     256 nodes, Drosophila ~80 MB at 512 nodes).

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto args = bench::parse_bench_args(argc, argv, {.runtime = false});
  bench::print_header(
      "Figure 8 — Human dataset scaling, 128-1024 nodes (32 ranks/node)",
      "~2.2 h on 1024 nodes; <512 MB per process throughout; batch reads");

  const auto full = seq::DatasetSpec::human();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  constexpr int kRanksPerNode = 32;

  stats::TextTable table({"nodes", "ranks", "batch", "construct s",
                          "correct s", "total s", "total h", "MB/rank",
                          "<512MB"});
  std::vector<bench::ScalingModeledRow> modeled_rows;
  perfmodel::RunEstimate baseline;
  for (int nodes : {128, 256, 512, 1024}) {
    const int np = nodes * kRanksPerNode;
    parallel::Heuristics heur = bench::paper_heuristics();
    heur.batch_reads = true;
    auto t = traits;
    t.params.chunk_size = nodes <= 256 ? 5000 : 10000;  // paper's settings
    const auto run =
        perfmodel::model_run(machine, t, full, np, kRanksPerNode, heur);
    if (baseline.ranks.empty()) baseline = run;
    table.row()
        .cell(nodes)
        .cell(np)
        .cell(t.params.chunk_size)
        .cell_fixed(run.construct_seconds(), 0)
        .cell_fixed(run.correct_seconds(), 0)
        .cell_fixed(run.total_seconds(), 0)
        .cell_fixed(run.total_seconds() / 3600.0, 2)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell(run.max_memory_mb() < 512.0 ? "yes" : "NO");
    modeled_rows.push_back(
        {np, run.construct_seconds(), run.correct_seconds(),
         run.total_seconds(), run.max_memory_mb(),
         perfmodel::RunEstimate::parallel_efficiency(baseline, run)});
  }
  table.print(std::cout);

  // --- Section V footprint summary across all three datasets ---------------
  std::printf("\nSection V footprints (largest node counts, modeled):\n");
  stats::TextTable fp({"dataset", "nodes", "ranks", "MB/rank",
                       "paper MB/rank"});
  struct Case {
    seq::DatasetSpec spec;
    int nodes;
    const char* paper;
    bool batch;
  };
  const Case cases[] = {
      {seq::DatasetSpec::ecoli(), 256, "< 50", false},
      {seq::DatasetSpec::drosophila(), 512, "~ 80", false},
      {seq::DatasetSpec::human(), 1024, "~ 120", true},
  };
  for (const Case& c : cases) {
    const auto t = bench::bench_traits(c.spec);
    parallel::Heuristics heur = bench::paper_heuristics();
    heur.batch_reads = c.batch;
    const int np = c.nodes * kRanksPerNode;
    const auto run =
        perfmodel::model_run(machine, t, c.spec, np, kRanksPerNode, heur);
    fp.row()
        .cell(c.spec.name)
        .cell(c.nodes)
        .cell(np)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell(c.paper);
  }
  fp.print(std::cout);
  std::printf(
      "\nnote: modeled footprints count the spectrum hash tables only; the\n"
      "paper's figures include messaging buffers and the MPI runtime, which\n"
      "adds a few tens of MB per process on BlueGene/Q.\n");

  // Modeled-only driver: functional section empty, every modeled number
  // warn-only in the bench gate.
  if (!args.json_path.empty() &&
      !bench::write_scaling_json(args.json_path, "fig8", {}, modeled_rows)) {
    return 1;
  }
  return 0;
}
