// Integration tests: the resident correction server (parallel/serve.hpp).
//
// The serve contract under test:
//   * N jobs streamed through a resident server are byte-identical to N
//     one-shot run_distributed runs of the same dataset and config — across
//     dataset seeds, scalar/batched/filtered/add-remote lookup paths, and
//     rank counts (the spectrum is built once, from the same reads, so the
//     distribution of the build must not matter);
//   * job N's report is independent of job N-1 (reset_for_job pins the
//     cross-job state: RemoteSpectrumView caches, LookupStats, batch/dedup
//     counters);
//   * the spectrum is built exactly once per rank for the server's life;
//   * per-job overrides apply to exactly one job and validation rejects bad
//     overrides at submit;
//   * a blown deadline degrades that job only — it never miscorrects.
#include "parallel/serve.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

std::vector<seq::Read> dataset(std::uint64_t seed, int reads = 800) {
  seq::DatasetSpec spec{"serve", reads, 70, 1500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.012;
  return seq::SyntheticDataset::generate(spec, errors, seed).reads;
}

DistConfig base_config(int ranks, Heuristics heur = {}) {
  DistConfig config;
  config.params = test_params();
  config.ranks = ranks;
  config.heuristics = heur;
  return config;
}

void expect_same_reads(const std::vector<seq::Read>& got,
                       const std::vector<seq::Read>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].number, want[i].number);
    ASSERT_EQ(got[i].bases, want[i].bases) << "read " << want[i].number;
  }
}

// ---- byte-identity sweep: seeds x lookup paths x ranks ---------------------

struct ServeCase {
  const char* name;
  std::uint64_t seed;
  int ranks;
  Heuristics heur;
};

class ServeIdentity : public ::testing::TestWithParam<ServeCase> {};

TEST_P(ServeIdentity, StreamedJobsMatchOneShotRuns) {
  const ServeCase& tc = GetParam();
  const std::vector<seq::Read> reads = dataset(tc.seed);
  const DistConfig config = base_config(tc.ranks, tc.heur);

  const DistResult reference = run_distributed(reads, config);

  CorrectionServer server(reads, config);
  constexpr int kJobs = 3;
  std::vector<std::future<JobReport>> futures;
  for (int j = 0; j < kJobs; ++j) {
    JobRequest request;
    request.reads = reads;
    futures.push_back(server.submit(std::move(request)));
  }
  for (std::future<JobReport>& f : futures) {
    JobReport report = f.get();
    EXPECT_FALSE(report.degraded);
    EXPECT_FALSE(report.deadline_missed);
    expect_same_reads(report.corrected, reference.corrected);
    EXPECT_EQ(report.total_substitutions(), reference.total_substitutions());
    EXPECT_EQ(report.total_reads_changed(), reference.total_reads_changed());
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.jobs_degraded, 0u);
  EXPECT_EQ(stats.spectrum_builds, static_cast<std::uint64_t>(tc.ranks));
}

Heuristics make_heur(bool batch, bool filter, bool remote) {
  Heuristics h;
  h.batch_lookups = batch;
  h.filter_lookups = filter;
  if (remote) {
    h.read_kmers = true;
    h.add_remote = true;
  }
  return h;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ServeIdentity,
    ::testing::Values(
        ServeCase{"scalar_s77_r2", 77, 2, make_heur(false, false, false)},
        ServeCase{"scalar_s123_r2", 123, 2, make_heur(false, false, false)},
        ServeCase{"batched_s77_r2", 77, 2, make_heur(true, false, false)},
        ServeCase{"batched_s123_r3", 123, 3, make_heur(true, false, false)},
        ServeCase{"filtered_s77_r2", 77, 2, make_heur(true, true, false)},
        ServeCase{"filtered_s123_r2", 123, 2, make_heur(true, true, false)},
        ServeCase{"add_remote_s77_r2", 77, 2, make_heur(false, false, true)},
        ServeCase{"batched_s77_r4", 77, 4, make_heur(true, false, false)}),
    [](const ::testing::TestParamInfo<ServeCase>& info) {
      return info.param.name;
    });

// ---- cross-job state leaks -------------------------------------------------

// add_remote is the sharpest leak detector: it caches remote replies into
// the rank-lifetime reads tables during correction, so without
// reset_for_job job 2 would see job 1's cache as local hits and its remote
// lookup counters (and with a stale LookupStats, everything else) would
// drift from job 1's.
TEST(ServeState, JobReportsAreIndependentOfEarlierJobs) {
  const std::vector<seq::Read> reads = dataset(77);
  const DistConfig config = base_config(2, make_heur(false, false, true));

  CorrectionServer server(reads, config);
  std::vector<JobReport> reports;
  for (int j = 0; j < 3; ++j) {
    JobRequest request;
    request.reads = reads;
    reports.push_back(server.submit(std::move(request)).get());
  }
  server.shutdown();

  const JobReport& first = reports.front();
  for (std::size_t j = 1; j < reports.size(); ++j) {
    const JobReport& later = reports[j];
    ASSERT_EQ(later.ranks.size(), first.ranks.size());
    expect_same_reads(later.corrected, first.corrected);
    for (std::size_t r = 0; r < first.ranks.size(); ++r) {
      const RankReport& a = first.ranks[r];
      const RankReport& b = later.ranks[r];
      EXPECT_EQ(b.substitutions, a.substitutions) << "job " << j;
      EXPECT_EQ(b.reads_changed, a.reads_changed) << "job " << j;
      EXPECT_EQ(b.reads_processed, a.reads_processed) << "job " << j;
      EXPECT_EQ(b.lookups.kmer_lookups, a.lookups.kmer_lookups) << "job " << j;
      EXPECT_EQ(b.lookups.tile_lookups, a.lookups.tile_lookups) << "job " << j;
      // The remote counters are where a leaked cache would show first.
      EXPECT_EQ(b.remote.remote_kmer_lookups, a.remote.remote_kmer_lookups)
          << "job " << j;
      EXPECT_EQ(b.remote.remote_tile_lookups, a.remote.remote_tile_lookups)
          << "job " << j;
      EXPECT_EQ(b.remote.batch_kmer_ids_raw, a.remote.batch_kmer_ids_raw)
          << "job " << j;
      EXPECT_EQ(b.remote.batch_tile_ids_raw, a.remote.batch_tile_ids_raw)
          << "job " << j;
      EXPECT_EQ(b.remote.filter_neg_hits, a.remote.filter_neg_hits)
          << "job " << j;
    }
  }
}

TEST(ServeState, SpectrumBuiltExactlyOncePerRank) {
  const std::vector<seq::Read> reads = dataset(77);
  CorrectionServer server(reads, base_config(2));
  for (int j = 0; j < 4; ++j) {
    JobRequest request;
    request.reads = reads;
    JobReport report = server.submit(std::move(request)).get();
    // Jobs run only the correction slice of the graph: no construction
    // time, no spectrum churn, on any job.
    for (const RankReport& rank : report.ranks) {
      EXPECT_EQ(rank.construct_seconds, 0.0) << "job " << j;
    }
    EXPECT_EQ(server.stats().spectrum_builds, 2u) << "after job " << j;
  }
  server.shutdown();
  EXPECT_EQ(server.stats().spectrum_builds, 2u);
  ASSERT_EQ(server.build_reports().size(), 2u);
  for (const stats::PhaseTimeline& build : server.build_reports()) {
    EXPECT_GT(build.construct_seconds, 0.0);
  }
}

// ---- per-job overrides -----------------------------------------------------

TEST(ServeOverrides, ApplyToExactlyOneJob) {
  const std::vector<seq::Read> reads = dataset(77);
  const DistConfig config = base_config(2);

  const DistResult plain = run_distributed(reads, config);
  DistConfig capped_config = config;
  capped_config.params.max_corrections_per_read = 1;
  const DistResult capped = run_distributed(reads, capped_config);
  // The override must be observable, or this test pins nothing.
  ASSERT_LT(capped.total_substitutions(), plain.total_substitutions());

  CorrectionServer server(reads, config);
  JobRequest first;
  first.reads = reads;
  JobRequest second;
  second.reads = reads;
  second.overrides.max_corrections_per_read = 1;
  JobRequest third;
  third.reads = reads;
  auto f1 = server.submit(std::move(first));
  auto f2 = server.submit(std::move(second));
  auto f3 = server.submit(std::move(third));

  expect_same_reads(f1.get().corrected, plain.corrected);
  expect_same_reads(f2.get().corrected, capped.corrected);
  // Job 3 runs with the build config again: the override did not stick.
  expect_same_reads(f3.get().corrected, plain.corrected);
  server.shutdown();
}

TEST(ServeOverrides, InvalidOverridesThrowAtSubmit) {
  const std::vector<seq::Read> reads = dataset(77, 200);
  CorrectionServer server(reads, base_config(2));  // built without read_kmers

  JobRequest bad;
  bad.reads = reads;
  bad.overrides.add_remote = true;  // needs build-time reads tables
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);

  JobRequest negative;
  negative.reads = reads;
  negative.overrides.deadline_seconds = -1.0;
  EXPECT_THROW(server.submit(std::move(negative)), std::invalid_argument);

  // The server is unharmed: a good job still round-trips.
  JobRequest good;
  good.reads = reads;
  EXPECT_EQ(server.submit(std::move(good)).get().corrected.size(),
            reads.size());
  server.shutdown();
  EXPECT_EQ(server.stats().jobs_completed, 1u);
}

// ---- deadlines -------------------------------------------------------------

TEST(ServeDeadline, BlownDeadlineDegradesOnlyThatJob) {
  const std::vector<seq::Read> reads = dataset(77);
  const DistConfig config = base_config(2);
  const DistResult reference = run_distributed(reads, config);

  CorrectionServer server(reads, config);
  JobRequest rushed;
  rushed.reads = reads;
  rushed.overrides.deadline_seconds = 1e-9;  // unmeetable
  JobRequest relaxed;
  relaxed.reads = reads;
  auto f1 = server.submit(std::move(rushed));
  auto f2 = server.submit(std::move(relaxed));

  JobReport missed = f1.get();
  EXPECT_TRUE(missed.deadline_missed);
  EXPECT_TRUE(missed.degraded);
  EXPECT_GT(missed.total_deadline_skipped(), 0u);
  // Conservative, never wrong: every read comes back (skipped ones
  // unmodified), and any read it did change matches the reference.
  ASSERT_EQ(missed.corrected.size(), reads.size());
  for (std::size_t i = 0; i < missed.corrected.size(); ++i) {
    const seq::Read& got = missed.corrected[i];
    if (got.bases != reads[i].bases) {
      EXPECT_EQ(got.bases, reference.corrected[i].bases)
          << "read " << got.number;
    }
  }

  JobReport clean = f2.get();
  EXPECT_FALSE(clean.degraded);
  EXPECT_FALSE(clean.deadline_missed);
  expect_same_reads(clean.corrected, reference.corrected);

  server.shutdown();
  EXPECT_EQ(server.stats().jobs_completed, 2u);
  EXPECT_EQ(server.stats().jobs_degraded, 1u);
}

// ---- inputs and lifecycle --------------------------------------------------

TEST(ServeInputs, FileJobsMatchInMemoryJobs) {
  namespace fs = std::filesystem;
  const std::vector<seq::Read> reads = dataset(77, 400);
  const fs::path dir = fs::temp_directory_path() / "reptile_serve_test";
  fs::create_directories(dir);
  seq::write_read_files(dir / "job.fa", dir / "job.qual", reads);

  CorrectionServer server(reads, base_config(2));
  JobRequest memory_job;
  memory_job.reads = reads;
  JobRequest file_job;
  file_job.fasta = dir / "job.fa";
  file_job.qual = dir / "job.qual";
  auto f1 = server.submit(std::move(memory_job));
  auto f2 = server.submit(std::move(file_job));
  const JobReport from_memory = f1.get();
  const JobReport from_files = f2.get();
  expect_same_reads(from_files.corrected, from_memory.corrected);
  server.shutdown();
}

TEST(ServeInputs, FastaWithoutQualIsRejected) {
  const std::vector<seq::Read> reads = dataset(77, 200);
  CorrectionServer server(reads, base_config(2));
  JobRequest bad;
  bad.fasta = "only.fa";
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);
  server.shutdown();
}

TEST(ServeInputs, EmptyJobCompletes) {
  const std::vector<seq::Read> reads = dataset(77, 200);
  CorrectionServer server(reads, base_config(2));
  JobRequest empty;
  const JobReport report = server.submit(std::move(empty)).get();
  EXPECT_TRUE(report.corrected.empty());
  EXPECT_FALSE(report.degraded);
  server.shutdown();
}

TEST(ServeLifecycle, SubmitAfterShutdownIsRefused) {
  const std::vector<seq::Read> reads = dataset(77, 200);
  CorrectionServer server(reads, base_config(2));
  server.shutdown();
  server.shutdown();  // idempotent

  JobRequest late;
  late.reads = reads;
  EXPECT_THROW(server.submit(std::move(late)), std::runtime_error);

  JobRequest probed;
  probed.reads = reads;
  EXPECT_FALSE(server.try_submit(probed).has_value());
  EXPECT_EQ(probed.reads.size(), reads.size());  // handed back intact
  EXPECT_EQ(server.stats().jobs_rejected, 1u);
}

TEST(ServeLifecycle, DestructorDrainsSubmittedJobs) {
  const std::vector<seq::Read> reads = dataset(77, 400);
  std::future<JobReport> pending;
  {
    CorrectionServer server(reads, base_config(2));
    JobRequest request;
    request.reads = reads;
    pending = server.submit(std::move(request));
  }  // dtor: close, drain, shutdown announce, join
  EXPECT_EQ(pending.get().corrected.size(), reads.size());
}

TEST(ServeLifecycle, LossyChaosPlanIsRejected) {
  DistConfig config = base_config(2);
  config.run_options.chaos.seed = 7;
  config.run_options.chaos.drop_rate = 0.01;
  config.retry.timeout_ticks = 2;  // valid for one-shot...
  EXPECT_THROW(CorrectionServer(dataset(77, 100), config),
               std::invalid_argument);  // ...but not for serve control tags
}

TEST(ServeLifecycle, SingleRankServerWorks) {
  const std::vector<seq::Read> reads = dataset(77, 400);
  const DistConfig config = base_config(1);
  const DistResult reference = run_distributed(reads, config);
  CorrectionServer server(reads, config);
  JobRequest request;
  request.reads = reads;
  expect_same_reads(server.submit(std::move(request)).get().corrected,
                    reference.corrected);
  server.shutdown();
  EXPECT_EQ(server.stats().spectrum_builds, 1u);
}

TEST(ServeLifecycle, FlightRingsStayBoundedAcrossJobs) {
  // Every job spawns a fresh service thread per rank; with tracing off an
  // exited thread's flight ring is reused, so the count stops growing.
  const std::vector<seq::Read> reads = dataset(79, 200);
  CorrectionServer server(reads, base_config(2, make_heur(true, true, false)));
  const auto rings_after = [&](int jobs) {
    for (int j = 0; j < jobs; ++j) {
      JobRequest request;
      request.reads = reads;
      server.submit(std::move(request)).get();
    }
    return obs::Tracer::instance().buffer_count();
  };
  const std::size_t warm = rings_after(2);
  EXPECT_EQ(rings_after(10), warm);
  server.shutdown();
}

}  // namespace
}  // namespace reptile::parallel
