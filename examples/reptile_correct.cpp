// reptile_correct: the operational CLI, mirroring the original parallel
// Reptile invocation — a configuration file in, a corrected FASTA out.
//
//   $ ./examples/reptile_correct run.cfg [--ranks N] [--ranks-per-node M]
//                                        [--trace PREFIX]
//
// The configuration file format is documented in
// src/parallel/config_file.hpp (fasta_file / qual_file / output_file paths,
// algorithm parameters, heuristic flags). --trace PREFIX enables span
// tracing + metrics for the run (equivalent to trace_enabled/metrics_enabled
// config keys) and writes one Chrome-trace shard per rank to
// PREFIX.rankN.json; merge them with tools/trace_merge. With no arguments,
// generates a demo dataset + config under /tmp and runs on that.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "parallel/config_file.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"
#include "stats/summary.hpp"

namespace {

std::filesystem::path write_demo_config() {
  using namespace reptile;
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "reptile_correct_demo";
  fs::create_directories(dir);
  seq::DatasetSpec spec{"demo", 3000, 80, 4000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.012;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 31337);
  seq::write_read_files(dir / "reads.fa", dir / "reads.qual", ds.reads);

  parallel::RunConfigFile config;
  config.fasta_file = dir / "reads.fa";
  config.qual_file = dir / "reads.qual";
  config.output_file = dir / "corrected.fa";
  config.heuristics.universal = true;
  config.heuristics.batch_reads = true;
  const auto path = dir / "run.cfg";
  std::ofstream out(path);
  out << parallel::to_config_text(config);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reptile;

  std::filesystem::path config_path;
  int ranks = 8;
  int ranks_per_node = 4;
  std::string trace_prefix;
  if (argc < 2) {
    std::printf("usage: %s run.cfg [--ranks N] [--ranks-per-node M] "
                "[--trace PREFIX]\n"
                "no config given; running the built-in demo...\n\n",
                argv[0]);
    config_path = write_demo_config();
  } else {
    config_path = argv[1];
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
        ranks = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--ranks-per-node") == 0 &&
                 i + 1 < argc) {
        ranks_per_node = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_prefix = argv[++i];
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return 2;
      }
    }
  }

  try {
    const auto file_config = parallel::parse_config_file(config_path);
    parallel::DistConfig run = parallel::to_dist_config(file_config);
    run.ranks = ranks;
    run.ranks_per_node = ranks_per_node;
    if (!trace_prefix.empty()) {
      run.trace.enabled = true;
      run.trace.metrics = true;
      run.trace.path = trace_prefix;
    }

    std::printf("config:  %s\n", config_path.c_str());
    std::printf("input:   %s + %s\n", file_config.fasta_file.c_str(),
                file_config.qual_file.c_str());
    std::printf("ranks:   %d (%d per node), heuristics: %s\n", run.ranks,
                run.ranks_per_node, run.heuristics.label().c_str());

    const auto result = parallel::run_distributed_files(
        file_config.fasta_file, file_config.qual_file, run);

    if (!file_config.output_file.empty()) {
      seq::write_fasta(file_config.output_file, result.corrected);
      std::printf("output:  %s\n", file_config.output_file.c_str());
    }
    std::printf("reads corrected: %llu of %zu (%llu substitutions)\n",
                static_cast<unsigned long long>(result.total_reads_changed()),
                result.corrected.size(),
                static_cast<unsigned long long>(result.total_substitutions()));

    std::vector<double> times;
    std::vector<std::uint64_t> remote;
    for (const auto& r : result.ranks) {
      times.push_back(r.construct_seconds + r.correct_seconds);
      remote.push_back(r.remote.remote_kmer_lookups +
                       r.remote.remote_tile_lookups);
    }
    const auto ts = stats::summarize(std::span<const double>(times));
    const auto rs = stats::summarize(std::span<const std::uint64_t>(remote));
    std::printf("rank times: %.3f .. %.3f s (imbalance %.2f)\n", ts.min,
                ts.max, ts.imbalance());
    std::printf("remote lookups per rank: %.0f .. %.0f\n", rs.min, rs.max);
    if (run.trace.enabled && !run.trace.path.empty()) {
      std::printf("trace:   %s.rank0.json .. %s.rank%d.json\n",
                  run.trace.path.c_str(), run.trace.path.c_str(),
                  run.ranks - 1);
    }
    for (const auto& h : obs::Registry::global().histogram_summaries()) {
      std::printf("latency %s rank %d: n=%llu p50=%lluus p99=%lluus "
                  "max=%lluus\n",
                  h.name.c_str(), h.rank,
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.p50),
                  static_cast<unsigned long long>(h.p99),
                  static_cast<unsigned long long>(h.max));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
