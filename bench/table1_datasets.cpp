// Table I: the three evaluation datasets.
//
// Prints the paper's dataset table (reads, length, genome size, coverage)
// alongside the scaled synthetic replicas this reproduction actually
// generates, with their measured error content.

#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  bench::parse_bench_args(argc, argv, {.json = false, .runtime = false});
  bench::print_header(
      "Table I — E.Coli, Drosophila and Human datasets",
      "8.87M/95.7M/1549M reads; 102/96/102 chars; 96X/75X/47X coverage");

  stats::TextTable table({"genome", "reads", "length", "genome size",
                          "coverage (label)", "coverage (computed)"});
  for (const auto& spec : seq::DatasetSpec::table1()) {
    table.row()
        .cell(spec.name)
        .cell(spec.n_reads)
        .cell(spec.read_length)
        .cell(spec.genome_size)
        .cell_fixed(spec.nominal_coverage, 0)
        .cell_fixed(spec.coverage(), 1);
  }
  table.print(std::cout);
  std::printf(
      "\nnote: Table I's own E.Coli numbers give 196.8X, not the printed "
      "96X\n(the printed figure matches about half the reads; see "
      "DatasetSpec docs).\n\n");

  std::printf("scaled synthetic replicas used by the benches "
              "(geometry-preserving):\n");
  stats::TextTable replicas({"replica of", "reads", "length", "genome size",
                             "coverage", "errors injected", "erroneous reads"});
  for (const auto& full : seq::DatasetSpec::table1()) {
    const auto ds = bench::scaled_replica(full, 4000, 1);
    replicas.row()
        .cell(full.name)
        .cell(ds.spec.n_reads)
        .cell(ds.spec.read_length)
        .cell(ds.spec.genome_size)
        .cell_fixed(ds.spec.coverage(), 1)
        .cell(ds.total_errors)
        .cell(ds.erroneous_reads());
  }
  replicas.print(std::cout);
  return 0;
}
