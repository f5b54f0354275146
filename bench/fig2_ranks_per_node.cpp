// Figure 2: 128 ranks for the E.Coli dataset, varying ranks per node
// (8/16/32, i.e. 16/8/4 nodes).
//
// Paper findings to reproduce:
//   - 32 ranks/node is ~30% slower than 8 ranks/node;
//   - most of the increase comes from communication;
//   - k-mer construction time is a negligible fraction of correction;
//   - most communication time is tile traffic, mostly for tiles that do
//     not exist in the spectrum.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  bench::parse_bench_args(argc, argv, {.json = false, .runtime = false});
  bench::print_header(
      "Figure 2 — execution time of 128 ranks, 4 to 16 nodes (E.Coli)",
      "32 ranks/node ~30% slower than 8; slowdown dominated by communication");

  const auto full = seq::DatasetSpec::ecoli();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  const parallel::Heuristics heur = bench::paper_heuristics();

  constexpr int kRanks = 128;
  stats::TextTable table({"ranks/node", "nodes", "construct s", "compute s",
                          "comm k-mer s", "comm tile s", "total s",
                          "vs 8/node"});
  double base_total = 0;
  for (int rpn : {8, 16, 32}) {
    const auto run =
        perfmodel::model_run(machine, traits, full, kRanks, rpn, heur);
    if (rpn == 8) base_total = run.total_seconds();
    double compute = 0, comm_k = 0, comm_t = 0;
    for (const auto& r : run.ranks) {
      compute = std::max(compute, r.compute_seconds);
      comm_k = std::max(comm_k, r.comm_kmer_seconds);
      comm_t = std::max(comm_t, r.comm_tile_seconds);
    }
    table.row()
        .cell(rpn)
        .cell(kRanks / rpn)
        .cell_fixed(run.construct_seconds(), 1)
        .cell_fixed(compute, 1)
        .cell_fixed(comm_k, 1)
        .cell_fixed(comm_t, 1)
        .cell_fixed(run.total_seconds(), 1)
        .cell_fixed(run.total_seconds() / base_total, 2);
  }
  table.print(std::cout);

  // The tile-vs-kmer traffic split behind "most of the communication time
  // is spent in communication of tiles".
  const auto workload = perfmodel::synthesize_workload(
      traits, full, kRanks, 32, heur);
  double rk = 0, rt = 0;
  for (const auto& w : workload) {
    rk += w.remote_kmer_lookups;
    rt += w.remote_tile_lookups;
  }
  const auto avg = traits.average();
  const double miss_share =
      avg.tile_lookups == 0
          ? 0
          : 1.0 - avg.tile_checks / avg.tile_lookups;  // candidate lookups
  std::printf(
      "\nremote lookups at 32 ranks/node: %.1fM tiles vs %.1fM k-mers "
      "(tiles %.0f%%)\n",
      rt / 1e6, rk / 1e6, 100.0 * rt / (rt + rk));
  std::printf(
      "share of tile lookups that are candidate probes (mostly absent "
      "tiles): %.0f%%\n",
      100.0 * miss_share);
  return 0;
}
