// End-to-end file pipeline on an E.Coli-like dataset.
//
//   $ ./examples/ecoli_pipeline [scale] [ranks]
//
// Recreates the paper's operational flow:
//   1. generate a scaled E.Coli dataset (Table I geometry at `scale`,
//      default 1/2000) and write the pre-processed FASTA + quality files
//      with numeric headers, exactly the input format Reptile consumes;
//   2. write a Reptile-style configuration file and parse it back;
//   3. run the distributed pipeline from the files (Step I byte-range
//      partitioning, Steps II-III spectrum exchange, Step IV correction
//      with communication threads);
//   4. write the corrected FASTA and print per-rank statistics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "parallel/config_file.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"
#include "stats/accuracy.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  namespace fs = std::filesystem;

  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0 / 2000.0;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 8;

  const auto dir = fs::temp_directory_path() / "reptile_ecoli_example";
  fs::create_directories(dir);

  // 1. Dataset with E.Coli geometry.
  const auto spec = seq::DatasetSpec::ecoli().scaled(scale);
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.002;
  errors.error_rate_end = 0.01;
  errors.burst_fraction = 0.1;
  errors.burst_regions = 4;
  errors.burst_multiplier = 6.0;
  std::printf("generating %llu reads (%d bp) from a %llu bp genome...\n",
              static_cast<unsigned long long>(spec.n_reads), spec.read_length,
              static_cast<unsigned long long>(spec.genome_size));
  const auto dataset = seq::SyntheticDataset::generate(spec, errors, 2016);
  seq::write_read_files(dir / "ecoli.fa", dir / "ecoli.qual", dataset.reads);

  // 2. Configuration file, as the paper's Step I expects.
  parallel::RunConfigFile file_config;
  file_config.fasta_file = dir / "ecoli.fa";
  file_config.qual_file = dir / "ecoli.qual";
  file_config.output_file = dir / "ecoli.corrected.fa";
  file_config.params.k = 12;
  file_config.params.tile_overlap = 4;
  file_config.params.chunk_size = 2000;  // the paper's human-run batch size
  file_config.heuristics.universal = true;
  file_config.heuristics.batch_reads = true;
  file_config.heuristics.load_balance = true;
  {
    std::FILE* f = std::fopen((dir / "run.cfg").c_str(), "w");
    const auto text = parallel::to_config_text(file_config);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  const auto config_back = parallel::parse_config_file(dir / "run.cfg");

  // 3. Distributed run from the files.
  parallel::DistConfig run = parallel::to_dist_config(config_back);
  run.ranks = ranks;
  run.ranks_per_node = 4;
  std::printf("running %d ranks (%d per node), heuristics: %s\n", run.ranks,
              run.ranks_per_node, run.heuristics.label().c_str());
  const auto result = parallel::run_distributed_files(
      config_back.fasta_file, config_back.qual_file, run);

  // 4. Output + per-rank report.
  seq::write_fasta(config_back.output_file, result.corrected);
  const auto acc =
      stats::score_correction(dataset.reads, result.corrected, dataset.truth);
  std::printf("corrected file: %s\n", config_back.output_file.c_str());
  std::printf("sensitivity %.3f, gain %.3f, %llu reads fully fixed\n",
              acc.sensitivity(), acc.gain(),
              static_cast<unsigned long long>(acc.reads_fully_fixed));

  stats::TextTable table({"rank", "reads", "substitutions", "remote lookups",
                          "served", "spectrum MB", "construct s", "correct s",
                          "comm s"});
  for (const auto& r : result.ranks) {
    table.row()
        .cell(r.rank)
        .cell(r.reads_processed)
        .cell(r.substitutions)
        .cell(r.remote.remote_kmer_lookups + r.remote.remote_tile_lookups)
        .cell(r.service.requests_served)
        .cell_fixed(static_cast<double>(r.footprint_after_correction.bytes) /
                        (1 << 20),
                    2)
        .cell_fixed(r.construct_seconds, 3)
        .cell_fixed(r.correct_seconds, 3)
        .cell_fixed(r.comm_seconds, 3);
  }
  table.print(std::cout);
  return 0;
}
