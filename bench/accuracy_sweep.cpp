// Ablation: correction accuracy vs coverage and spectrum threshold.
//
// Not a numbered figure of the parallelization paper, but the design
// context it inherits from the original Reptile (Yang, Dorman, Aluru 2010):
// tile-based correction is accurate when coverage comfortably exceeds the
// frequency threshold. This bench sweeps both knobs on an E.Coli-geometry
// replica and reports sensitivity/gain — the quantities DESIGN.md's
// threshold choices are judged by — plus the tile-vs-kmer accuracy
// argument (correcting at k-mer granularity has many more candidates).

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "stats/accuracy.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  bench::parse_bench_args(argc, argv, {.json = false, .runtime = false});
  bench::print_header(
      "Ablation — accuracy vs coverage and threshold (sequential Reptile)",
      "tile-level correction needs coverage >> threshold; gain collapses "
      "when the spectrum is starved");

  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.003;
  errors.error_rate_end = 0.01;

  // --- coverage sweep at threshold 3 ---------------------------------------
  stats::TextTable cov({"coverage", "reads", "errors", "sensitivity", "gain",
                        "false positives"});
  for (const int coverage : {10, 20, 40, 80, 160}) {
    seq::DatasetSpec spec{"cov", 0, 80, 4000};
    spec.n_reads = static_cast<std::uint64_t>(coverage) * spec.genome_size /
                   static_cast<std::uint64_t>(spec.read_length);
    const auto ds = seq::SyntheticDataset::generate(spec, errors, 100);
    auto params = bench::bench_params();
    params.chunk_size = 1024;
    const auto result = core::run_sequential(ds.reads, params);
    const auto acc =
        stats::score_correction(ds.reads, result.corrected, ds.truth);
    cov.row()
        .cell(coverage)
        .cell(ds.reads.size())
        .cell(ds.total_errors)
        .cell_fixed(acc.sensitivity(), 3)
        .cell_fixed(acc.gain(), 3)
        .cell(acc.false_positives);
  }
  cov.print(std::cout);

  // --- threshold sweep at fixed 80X coverage ---------------------------------
  std::printf("\nthreshold sweep at 80X coverage:\n");
  stats::TextTable thr({"threshold", "kept kmers", "sensitivity", "gain",
                        "false positives"});
  seq::DatasetSpec spec{"thr", 0, 80, 4000};
  spec.n_reads = 80ull * spec.genome_size /
                 static_cast<std::uint64_t>(spec.read_length);
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 101);
  for (const unsigned threshold : {2u, 3u, 5u, 10u, 20u, 40u}) {
    auto params = bench::bench_params();
    params.kmer_threshold = threshold;
    params.tile_threshold = threshold;
    params.chunk_size = 1024;
    const auto result = core::run_sequential(ds.reads, params);
    const auto acc =
        stats::score_correction(ds.reads, result.corrected, ds.truth);
    thr.row()
        .cell(threshold)
        .cell(result.kmer_entries)
        .cell_fixed(acc.sensitivity(), 3)
        .cell_fixed(acc.gain(), 3)
        .cell(acc.false_positives);
  }
  thr.print(std::cout);
  std::printf(
      "\nreading: at low coverage every true tile is near the threshold and\n"
      "the spectrum starves (sensitivity collapses); at absurd thresholds\n"
      "the same happens from the other side. The plateau in the middle is\n"
      "why the benches run threshold 3 at E.Coli-like coverage, matching\n"
      "Reptile's recommended operating point.\n");
  return 0;
}
