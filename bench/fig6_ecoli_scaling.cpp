// Figure 6: E.Coli strong scaling, 32 to 256 nodes (1024 to 8192 ranks).
//
// Paper findings to reproduce:
//   - both k-mer construction and error correction scale;
//   - parallel efficiency 0.81 at 8192 ranks (vs 1024);
//   - error-correction time ~180 s at 8192 ranks, total < 200 s at 256
//     nodes with load balancing;
//   - the imbalanced runtime is much worse at low node counts (the 32-node
//     runtime "more than halves" with balancing).

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto args = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Figure 6 — E.Coli scaling, 32-256 nodes (32 ranks/node)",
      "efficiency 0.81 at 8192 ranks; <200 s total at 256 nodes; balancing "
      ">=2x at 32 nodes");

  const auto full = seq::DatasetSpec::ecoli();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();
  constexpr int kRanksPerNode = 32;

  const parallel::Heuristics balanced = bench::paper_heuristics();
  parallel::Heuristics imbalanced = bench::paper_heuristics();
  imbalanced.load_balance = false;

  stats::TextTable table({"nodes", "ranks", "construct s", "correct s",
                          "total s", "imbalanced total s", "balance gain",
                          "MB/rank", "filter MB/rank", "efficiency"});
  perfmodel::RunEstimate baseline;
  std::vector<bench::ScalingModeledRow> modeled_rows;
  for (int nodes : {32, 64, 128, 256}) {
    const int np = nodes * kRanksPerNode;
    const auto run =
        perfmodel::model_run(machine, traits, full, np, kRanksPerNode, balanced);
    const auto imb = perfmodel::model_run(machine, traits, full, np,
                                          kRanksPerNode, imbalanced);
    if (baseline.ranks.empty()) baseline = run;
    const double eff =
        perfmodel::RunEstimate::parallel_efficiency(baseline, run);
    const double filter_mb = bench::modeled_filter_mb(
        machine, traits, full, np, kRanksPerNode, balanced);
    table.row()
        .cell(nodes)
        .cell(np)
        .cell_fixed(run.construct_seconds(), 2)
        .cell_fixed(run.correct_seconds(), 1)
        .cell_fixed(run.total_seconds(), 1)
        .cell_fixed(imb.total_seconds(), 1)
        .cell_fixed(imb.total_seconds() / run.total_seconds(), 2)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell_fixed(filter_mb, 2)
        .cell_fixed(eff, 2);
    modeled_rows.push_back({np, run.construct_seconds(), run.correct_seconds(),
                            run.total_seconds(), run.max_memory_mb(), eff,
                            filter_mb});
  }
  table.print(std::cout);

  std::printf(
      "\nshape checks vs paper: efficiency at 8192 ranks ~0.81; total at 256\n"
      "nodes under ~200 s; balancing gain largest at the smallest node "
      "count.\n");

  // Functional strong-scaling smoke test on the real runtime: wall time on
  // one host core is meaningless, so we check the *work* distribution
  // instead — remote lookups per rank shrink as ranks grow.
  std::printf("\nfunctional check (scaled replica, real runtime): remote "
              "lookups per rank\n");
  const auto ds = bench::scaled_replica(full, 2000, 21);
  parallel::DistConfig config;
  config.params = bench::bench_params();
  config.trace = args.trace;
  config.run_options.check.enabled = false;  // benchmark: no rtm-check hooks
  config.params.chunk_size = 256;
  config.ranks_per_node = 4;
  config.heuristics = balanced;
  stats::TextTable fn({"ranks", "remote lookups (max rank)", "substitutions"});
  std::vector<bench::ScalingFunctionalRow> fn_rows;
  for (int ranks : {2, 4, 8, 16}) {
    config.ranks = ranks;
    const auto result = parallel::run_distributed(ds.reads, config);
    bench::ScalingFunctionalRow row;
    row.ranks = ranks;
    for (const auto& r : result.ranks) {
      row.max_remote_lookups =
          std::max(row.max_remote_lookups, r.remote.remote_lookups());
      row.construction_peak_bytes =
          std::max(row.construction_peak_bytes,
                   static_cast<std::uint64_t>(r.construction_peak_bytes));
      row.construct_seconds = std::max(row.construct_seconds,
                                       r.construct_seconds);
      row.correct_seconds = std::max(row.correct_seconds, r.correct_seconds);
      row.ledger_total_peak_bytes =
          std::max(row.ledger_total_peak_bytes, r.ledger_total_peak_bytes);
      row.rss_peak_bytes = std::max(row.rss_peak_bytes,
                                    r.ledger_rss_peak_bytes);
    }
    row.substitutions = result.total_substitutions();
    row.reads_changed = result.total_reads_changed();
    fn_rows.push_back(row);
    fn.row().cell(ranks).cell(row.max_remote_lookups).cell(row.substitutions);
  }
  fn.print(std::cout);

  // Machine-readable scaling trajectory for the CI bench gate: functional
  // counters are deterministic (exact-matched against
  // bench/baselines/BENCH_scaling.json); wall times and ledger/RSS peaks
  // are host-dependent (warn-only).
  if (!args.json_path.empty() &&
      !bench::write_scaling_json(args.json_path, "fig6", fn_rows,
                                 modeled_rows)) {
    return 1;
  }
  return 0;
}
