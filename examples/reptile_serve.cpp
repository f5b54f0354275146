// reptile_serve: correction-as-a-service demo and smoke driver.
//
//   $ ./examples/reptile_serve [run.cfg] [--ranks N] [--jobs K]
//                              [--deadline-ms D] [--miss-job J]
//                              [--depth Q] [--trace PREFIX]
//
// Boots a resident CorrectionServer (spectrum built once from the input
// dataset), streams K correction jobs through it, and verifies the serve
// contract as it goes:
//
//   * spectrum_builds == ranks after all jobs (build-once),
//   * job J (--miss-job, given a sub-microsecond deadline) comes back
//     degraded with deadline_missed set,
//   * every other job is clean AND byte-identical to a one-shot
//     run_distributed of the same dataset and config,
//   * the server shuts down cleanly with exact degraded accounting.
//
// Any violated check exits nonzero — CI runs this as the serve smoke. With
// no config, generates a synthetic demo dataset. `job.*` keys in the config
// become the default overrides of every streamed job; --deadline-ms /
// --miss-job layer on top.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "parallel/config_file.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/serve.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"

namespace {

std::vector<reptile::seq::Read> demo_reads() {
  using namespace reptile;
  seq::DatasetSpec spec{"serve-demo", 2000, 80, 3000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.012;
  return seq::SyntheticDataset::generate(spec, errors, 31337).reads;
}

int fail(const char* what) {
  std::fprintf(stderr, "serve check FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reptile;

  std::filesystem::path config_path;
  int ranks = 2;
  int jobs = 3;
  double deadline_ms = 0.0;  // 0 = no deadline on regular jobs
  int miss_job = 0;          // 1-based job forced to blow its deadline; 0 = none
  std::size_t depth = 4;
  std::string trace_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--miss-job") == 0 && i + 1 < argc) {
      miss_job = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--depth") == 0 && i + 1 < argc) {
      depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_prefix = argv[++i];
    } else if (argv[i][0] != '-' && config_path.empty()) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  try {
    parallel::RunConfigFile file_config;
    std::vector<seq::Read> reads;
    if (config_path.empty()) {
      std::printf("no config given; running the built-in demo...\n");
      file_config.heuristics.universal = true;
      file_config.heuristics.batch_reads = true;
      reads = demo_reads();
    } else {
      file_config = parallel::parse_config_file(config_path);
      reads = seq::read_all(file_config.fasta_file, file_config.qual_file);
    }

    parallel::DistConfig config = parallel::to_dist_config(file_config);
    config.ranks = ranks;
    if (!trace_prefix.empty()) {
      config.trace.enabled = true;
      config.trace.metrics = true;
      config.trace.path = trace_prefix;
    }

    std::printf("serving %zu reads on %d ranks, %d jobs, queue depth %zu\n",
                reads.size(), ranks, jobs, depth);

    // The one-shot reference every clean job must match byte for byte.
    const parallel::DistResult reference =
        parallel::run_distributed(reads, config);

    parallel::CorrectionServer server(reads, config, depth);

    std::vector<std::future<parallel::JobReport>> futures;
    for (int j = 1; j <= jobs; ++j) {
      parallel::JobRequest request;
      request.reads = reads;
      request.overrides = file_config.job;
      if (j == miss_job) {
        request.overrides.deadline_seconds = 1e-9;  // unmeetable: forced miss
      } else if (deadline_ms > 0.0) {
        request.overrides.deadline_seconds = deadline_ms / 1000.0;
      }
      futures.push_back(server.submit(std::move(request)));
    }

    int degraded_jobs = 0;
    int job_index = 0;
    for (std::future<parallel::JobReport>& f : futures) {
      ++job_index;
      parallel::JobReport report = f.get();
      std::printf(
          "job %llu: %.3fs, %llu substitutions, %llu reads changed, "
          "%llu deadline-skipped%s%s\n",
          static_cast<unsigned long long>(report.job_id), report.seconds,
          static_cast<unsigned long long>(report.total_substitutions()),
          static_cast<unsigned long long>(report.total_reads_changed()),
          static_cast<unsigned long long>(report.total_deadline_skipped()),
          report.degraded ? " [degraded]" : "",
          report.deadline_missed ? " [deadline missed]" : "");
      if (report.degraded) ++degraded_jobs;
      if (job_index == miss_job) {
        if (!report.deadline_missed || !report.degraded) {
          return fail("forced-miss job did not report a missed deadline");
        }
      } else if (deadline_ms == 0.0) {
        if (report.degraded) return fail("clean job reported degraded");
        if (report.corrected != reference.corrected) {
          return fail("served job output differs from the one-shot run");
        }
      }
    }

    server.shutdown();
    const parallel::ServerStats stats = server.stats();
    std::printf(
        "server: %llu jobs (%llu degraded), %llu spectrum builds on %d ranks\n",
        static_cast<unsigned long long>(stats.jobs_completed),
        static_cast<unsigned long long>(stats.jobs_degraded),
        static_cast<unsigned long long>(stats.spectrum_builds), ranks);
    if (stats.spectrum_builds != static_cast<std::uint64_t>(ranks)) {
      return fail("spectrum was not built exactly once per rank");
    }
    if (stats.jobs_completed != static_cast<std::uint64_t>(jobs)) {
      return fail("completed-job accounting is wrong");
    }
    if (stats.jobs_degraded != static_cast<std::uint64_t>(degraded_jobs)) {
      return fail("degraded-job accounting is wrong");
    }
    std::printf("all serve checks passed\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
