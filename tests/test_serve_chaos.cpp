// Chaos tests: the resident correction server under fault injection.
//
// Serve mode only accepts LOSSLESS chaos plans (stalls/duplicates/delays —
// the job announce/complete control messages are not retransmitted), so
// these rows pin the serve contract under the adversarial-but-lossless
// schedules: a stalled rank slows a job, a blown deadline degrades exactly
// that job, and the server survives to run the next job clean.
#include "parallel/serve.hpp"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 32;
  return p;
}

std::vector<seq::Read> dataset(int reads = 400) {
  seq::DatasetSpec spec{"serve-chaos", reads, 70, 1200};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.012;
  return seq::SyntheticDataset::generate(spec, errors, 99).reads;
}

/// Lossless adversarial delivery: every message arrives, some very late.
rtm::FaultPlan stall_plan(std::uint64_t seed) {
  rtm::FaultPlan plan;
  plan.seed = seed;
  plan.max_delay_us = 300;
  plan.stall_rate = 0.05;
  plan.stall_us = 2000;
  plan.duplicate_rate = 0.02;
  return plan;
}

TEST(ServeChaos, StalledMessagesNeverChangeServedBytes) {
  const std::vector<seq::Read> reads = dataset();
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;

  // Clean reference, no chaos.
  const DistResult reference = run_distributed(reads, config);

  // Same config under stalls; retries stay off, so every lookup simply
  // waits the stall out — bytes must not move.
  config.run_options.chaos = stall_plan(4242);
  CorrectionServer server(reads, config);
  for (int j = 0; j < 2; ++j) {
    JobRequest request;
    request.reads = reads;
    const JobReport report = server.submit(std::move(request)).get();
    EXPECT_FALSE(report.degraded) << "job " << j;
    ASSERT_EQ(report.corrected.size(), reference.corrected.size());
    for (std::size_t i = 0; i < reference.corrected.size(); ++i) {
      ASSERT_EQ(report.corrected[i].bases, reference.corrected[i].bases)
          << "read " << reference.corrected[i].number << " job " << j;
    }
  }
  server.shutdown();
  EXPECT_EQ(server.stats().jobs_degraded, 0u);
}

TEST(ServeChaos, DuplicatedControlMessagesRunEachJobOnce) {
  // Every message is delivered twice, the job announces and completions
  // included. A peer must not serve an announced job a second time, and
  // rank 0 must not count a previous job's completion toward this one.
  const std::vector<seq::Read> reads = dataset(200);
  DistConfig config;
  config.params = test_params();
  config.ranks = 3;
  const DistResult reference = run_distributed(reads, config);

  rtm::FaultPlan plan;
  plan.seed = 77;
  plan.max_delay_us = 50;
  plan.duplicate_rate = 1.0;
  config.run_options.chaos = plan;
  CorrectionServer server(reads, config);
  for (int j = 0; j < 3; ++j) {
    JobRequest request;
    request.reads = reads;
    const JobReport report = server.submit(std::move(request)).get();
    EXPECT_FALSE(report.degraded) << "job " << j;
    ASSERT_EQ(report.corrected.size(), reference.corrected.size());
    for (std::size_t i = 0; i < reference.corrected.size(); ++i) {
      ASSERT_EQ(report.corrected[i].bases, reference.corrected[i].bases)
          << "read " << reference.corrected[i].number << " job " << j;
    }
  }
  server.shutdown();
  EXPECT_EQ(server.stats().jobs_completed, 3u);
  EXPECT_EQ(server.stats().jobs_degraded, 0u);
}

TEST(ServeChaos, StalledRankDegradesTheJobServerSurvivesNextJobClean) {
  const std::vector<seq::Read> reads = dataset();
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  const DistResult reference = run_distributed(reads, config);

  config.run_options.chaos = stall_plan(31415);
  CorrectionServer server(reads, config);

  // Job 1: the stalls plus an unmeetable deadline — the rank that is being
  // stalled cannot finish in time, the job finishes conservatively and is
  // marked degraded. The server must survive it.
  JobRequest rushed;
  rushed.reads = reads;
  rushed.overrides.deadline_seconds = 1e-9;
  const JobReport degraded = server.submit(std::move(rushed)).get();
  EXPECT_TRUE(degraded.deadline_missed);
  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.corrected.size(), reads.size());
  // Conservative means never wrong: anything it did change matches the
  // clean reference; skipped reads pass through untouched.
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const seq::Read& got = degraded.corrected[i];
    if (got.bases != reads[i].bases) {
      EXPECT_EQ(got.bases, reference.corrected[i].bases)
          << "read " << got.number;
    }
  }

  // Job 2, same server, no deadline: clean and byte-identical.
  JobRequest relaxed;
  relaxed.reads = reads;
  const JobReport clean = server.submit(std::move(relaxed)).get();
  EXPECT_FALSE(clean.degraded);
  EXPECT_FALSE(clean.deadline_missed);
  ASSERT_EQ(clean.corrected.size(), reference.corrected.size());
  for (std::size_t i = 0; i < reference.corrected.size(); ++i) {
    ASSERT_EQ(clean.corrected[i].bases, reference.corrected[i].bases)
        << "read " << reference.corrected[i].number;
  }

  server.shutdown();
  EXPECT_EQ(server.stats().jobs_completed, 2u);
  EXPECT_EQ(server.stats().jobs_degraded, 1u);
  EXPECT_EQ(server.stats().spectrum_builds, 2u);
}

TEST(ServeChaos, RetryDegradedEvidenceIsAccountedPerJob) {
  const std::vector<seq::Read> reads = dataset(150);
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  // Heavy stalls + an aggressive per-job retry budget: lookups that give
  // up degrade the evidence, the corrector skips conservatively, and the
  // job's degraded flag must agree with the per-rank counters. (The stall
  // magnitude is kept moderate because the follow-up no-retry job must
  // block through every stall.)
  config.run_options.chaos = stall_plan(2718);
  config.run_options.chaos.stall_rate = 0.25;
  config.run_options.chaos.stall_us = 3000;

  CorrectionServer server(reads, config);
  JobRequest request;
  request.reads = reads;
  request.overrides.retry = RetryPolicy{/*timeout_ticks=*/1,
                                        /*max_retries=*/0};
  const JobReport report = server.submit(std::move(request)).get();

  std::uint64_t degraded_evidence = 0;
  for (const RankReport& rank : report.ranks) {
    degraded_evidence += rank.remote.degraded_lookups + rank.tiles_degraded +
                         rank.reads_deadline_skipped;
  }
  EXPECT_EQ(report.degraded, degraded_evidence > 0);
  EXPECT_FALSE(report.deadline_missed);
  EXPECT_EQ(report.corrected.size(), reads.size());

  // The retry override was job-lifetime: a follow-up job with no retry
  // budget blocks through the stalls and comes back clean.
  JobRequest patient;
  patient.reads = reads;
  const JobReport second = server.submit(std::move(patient)).get();
  EXPECT_FALSE(second.degraded);

  server.shutdown();
  EXPECT_EQ(server.stats().jobs_completed, 2u);
}

}  // namespace
}  // namespace reptile::parallel
