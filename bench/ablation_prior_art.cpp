// Ablation: this paper's distributed spectrum vs the prior art it replaces.
//
// Paper Sections I-II: "Previous approaches to parallelize Reptile have
// replicated the spectrums on each node which can be prohibitive in terms
// of memory needed for huge datasets. ... Error correction of datasets from
// RNA sequencing, population genetics and metagenomics can lead to ...
// k-mer spectrum sizes of over a terabyte. In such cases, replication of
// the k-mer and tile spectrum can be prohibitive."
//
// Two comparisons:
//  1. functional (8 ranks, measured): the replicated baseline (Shah/Jammula
//     style, dynamic master-worker allocation — implemented in
//     src/parallel/baseline_replicated) against the distributed pipeline;
//  2. modeled feasibility: full-spectrum size per Table I dataset against
//     the BlueGene/Q memory budget (512 MB/process, 16 GB/node), and the
//     minimum node count each approach needs — the paper's "only
//     requirement is ... the combined memory of all the nodes exceeds the
//     storage of the entire k-mer and tile spectrum".

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "parallel/baseline_replicated.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto trace = bench::parse_bench_args(argc, argv, {.json = false}).trace;
  bench::print_header(
      "Ablation — distributed spectrum vs prior-art replication",
      "replication per process/node hits the memory wall; distribution "
      "needs only combined memory");

  // --- functional comparison (measured) -------------------------------------
  const auto ds = bench::scaled_replica(seq::DatasetSpec::ecoli(), 2500, 13);
  auto params = bench::bench_params();
  params.chunk_size = 256;

  parallel::BaselineConfig baseline_config;
  baseline_config.params = params;
  baseline_config.ranks = 8;
  baseline_config.ranks_per_node = 4;
  baseline_config.work_chunk = 50;
  const auto baseline =
      parallel::run_replicated_baseline(ds.reads, baseline_config);

  parallel::DistConfig dist_config;
  dist_config.params = params;
  dist_config.trace = trace;
  dist_config.run_options.check.enabled = false;  // benchmark: no rtm-check hooks
  dist_config.ranks = 8;
  dist_config.ranks_per_node = 4;
  const auto dist = parallel::run_distributed(ds.reads, dist_config);

  const bool identical = baseline.corrected == dist.corrected;
  std::size_t baseline_bytes = 0, dist_bytes = 0;
  std::uint64_t dist_remote = 0;
  for (const auto& r : baseline.ranks) {
    baseline_bytes = std::max(baseline_bytes, r.spectrum_bytes);
  }
  for (const auto& r : dist.ranks) {
    dist_bytes = std::max(dist_bytes, r.footprint_after_correction.bytes);
    dist_remote += r.remote.remote_lookups();
  }

  stats::TextTable fn({"approach", "spectrum MB/rank", "remote lookups",
                       "work allocation", "output"});
  fn.row()
      .cell("replicated + dynamic master (prior art)")
      .cell_fixed(static_cast<double>(baseline_bytes) / (1 << 20), 2)
      .cell(0)
      .cell("demand-driven chunks")
      .cell("reference");
  fn.row()
      .cell("distributed spectrum (this paper)")
      .cell_fixed(static_cast<double>(dist_bytes) / (1 << 20), 2)
      .cell(dist_remote)
      .cell("static hash balance")
      .cell(identical ? "identical" : "DIFFERS (bug)");
  fn.print(std::cout);
  std::printf(
      "\nthe trade at 8 ranks: the prior art pays %0.1fx the memory to make\n"
      "correction communication-free; the paper pays %llu remote lookups to\n"
      "shrink per-rank memory with rank count.\n",
      static_cast<double>(baseline_bytes) /
          std::max<std::size_t>(1, dist_bytes),
      static_cast<unsigned long long>(dist_remote));

  // --- modeled feasibility at full scale -------------------------------------
  std::printf("\nfull-scale feasibility (modeled spectrum sizes, 512 MB per "
              "process, 16 GB per node, 32 ranks/node):\n");
  stats::TextTable table({"dataset", "unpruned spectrum GB", "pruned GB",
                          "per-process replication", "per-node replication",
                          "distributed: min nodes"});
  for (const auto& full : seq::DatasetSpec::table1()) {
    const auto traits = bench::bench_traits(full);
    const double genome_ratio =
        static_cast<double>(full.genome_size) /
        static_cast<double>(traits.measured_spec.genome_size);
    const double reads_ratio =
        static_cast<double>(full.n_reads) /
        static_cast<double>(traits.measured_spec.n_reads);
    const double bytes_per_entry = 13.0 * 1.6;
    const double kept =
        static_cast<double>(traits.kept_kmers + traits.kept_tiles) *
        genome_ratio * bytes_per_entry;
    const double dropped =
        static_cast<double>(traits.dropped_kmers + traits.dropped_tiles) *
        reads_ratio * bytes_per_entry;
    const double unpruned = kept + dropped;
    const double per_process_budget = 512.0 * (1 << 20);
    const double per_node_budget = 16.0 * (1 << 30);
    // Construction needs the unpruned table resident (batch mode bounds the
    // exchange buffers, not the owner tables), correction the pruned one.
    const int min_nodes = static_cast<int>(
        std::ceil(unpruned / per_node_budget));
    table.row()
        .cell(full.name)
        .cell_fixed(unpruned / (1 << 30), 2)
        .cell_fixed(kept / (1 << 30), 2)
        .cell(unpruned <= per_process_budget ? "feasible" : "INFEASIBLE")
        .cell(unpruned <= per_node_budget ? "feasible" : "INFEASIBLE")
        .cell(std::max(1, min_nodes));
  }
  table.print(std::cout);
  std::printf(
      "\nthe paper's point in one table: per-process replication already\n"
      "fails for Drosophila-scale data (the paper measured 928-1648 MB per\n"
      "rank for E.Coli), per-node replication fails for human-scale data,\n"
      "while the distributed spectrum only needs enough total nodes — any\n"
      "memory-per-node works.\n");
  return 0;
}
