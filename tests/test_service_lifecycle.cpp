// Lifecycle tests of the correction phase's termination: one barrier, then
// a stop each rank posts to its own mailbox (parallel::end_correction_phase).
// The communication thread sleeps until a request or the stop arrives, a
// failing worker surfaces its exception without hanging a peer, a run of
// jobs leaves no stop or request behind in any mailbox, and each phase's
// service receives by the protocol that phase's requesters speak.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "parallel/dist_pipeline.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/serve.hpp"
#include "pipeline/session.hpp"
#include "pipeline/spectrum_model.hpp"
#include "pipeline/stages.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"
#include "stats/stopwatch.hpp"

namespace reptile {
namespace {

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 2;
  p.tile_threshold = 2;
  p.chunk_size = 32;
  return p;
}

TEST(ServiceLifecycle, IdleServiceMakesNoTimedWakeups) {
  // With rtm-check off nothing but a request or the stop wakes the
  // service: across a 20 ms idle window it probes once (two tag probes in
  // non-universal mode) and then sleeps until the stop.
  rtm::RunOptions options;
  options.check.enabled = false;
  parallel::ServiceStats stats;
  double stop_to_return_s = 0;
  rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        parallel::DistSpectrum spectrum(small_params(), parallel::Heuristics{},
                                        comm);
        spectrum.exchange_to_owners();
        if (comm.rank() != 0) {
          parallel::end_correction_phase(comm, /*stop_service=*/false);
          return;
        }
        parallel::LookupService service(comm, spectrum,
                                        spectrum.heuristics().universal);
        std::thread server([&service] { service.serve(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const stats::Stopwatch clock;
        parallel::end_correction_phase(comm, /*stop_service=*/true);
        server.join();
        stop_to_return_s = clock.seconds();
        stats = service.stats();
      },
      options);
  EXPECT_LE(stats.probe_calls, 2u);
  EXPECT_EQ(stats.requests_served, 0u);
  EXPECT_LT(stop_to_return_s, 0.5);
}

TEST(ServiceLifecycle, ServiceProbesByTheJobsProtocol) {
  // A serve job's universal override changes what its requesters send, so
  // it must change how each communication thread receives too: with the
  // override on a server built without it, no rank probes per request tag
  // (as in a one-shot universal run); without the override, every rank
  // does. Scalar lookups, so every remote lookup is a request.
  const auto ds =
      seq::SyntheticDataset::generate({"probe", 600, 60, 900}, {}, 43);
  parallel::DistConfig config;
  config.params = small_params();
  config.ranks = 2;
  config.heuristics.batch_lookups = false;
  config.heuristics.filter_lookups = false;
  ASSERT_FALSE(config.heuristics.universal);
  parallel::CorrectionServer server(ds.reads, config);
  parallel::JobRequest universal_job;
  universal_job.reads = ds.reads;
  universal_job.overrides.universal = true;
  parallel::JobRequest build_job;
  build_job.reads = ds.reads;
  const parallel::JobReport with = server.submit(std::move(universal_job)).get();
  const parallel::JobReport without = server.submit(std::move(build_job)).get();
  server.shutdown();
  ASSERT_EQ(with.ranks.size(), 2u);
  ASSERT_EQ(without.ranks.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_GT(with.ranks[r].service.requests_served, 0u) << "rank " << r;
    EXPECT_EQ(with.ranks[r].service.probe_calls, 0u) << "rank " << r;
    EXPECT_GT(without.ranks[r].service.requests_served, 0u) << "rank " << r;
    EXPECT_GT(without.ranks[r].service.probe_calls, 0u) << "rank " << r;
  }
}

/// A worker handle whose correct_chunk throws on its second chunk (the
/// first one is corrected normally, so the rank has traffic in flight).
class FailingHandle final : public pipeline::WorkerHandle {
 public:
  explicit FailingHandle(std::unique_ptr<pipeline::WorkerHandle> inner)
      : inner_(std::move(inner)) {}

  core::SpectrumView& view() override { return inner_->view(); }

  void correct_chunk(const core::TileCorrector& corrector,
                     seq::ReadBatch& batch,
                     std::vector<core::ReadCorrection>& out) override {
    if (chunks_++ > 0) throw std::runtime_error("injected worker failure");
    inner_->correct_chunk(corrector, batch, out);
  }

  void harvest(stats::PhaseTimeline& acc) override { inner_->harvest(acc); }

 private:
  std::unique_ptr<pipeline::WorkerHandle> inner_;
  int chunks_ = 0;
};

/// Forwards every hook to the rank's distributed model; on the failing
/// rank its workers get a FailingHandle.
class FailingModel final : public pipeline::SpectrumModel {
 public:
  FailingModel(pipeline::SpectrumModel& inner, bool fail)
      : inner_(&inner), fail_(fail) {}

  void add_read(std::string_view bases) override { inner_->add_read(bases); }
  bool chunked_exchange() const override { return inner_->chunked_exchange(); }
  void exchange_chunk() override { inner_->exchange_chunk(); }
  void finalize_construction() override { inner_->finalize_construction(); }
  std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  void record_construction_footprint(stats::PhaseTimeline& report) override {
    inner_->record_construction_footprint(report);
  }
  void record_correction_footprint(stats::PhaseTimeline& report) override {
    inner_->record_correction_footprint(report);
  }
  void reset_for_job() override { inner_->reset_for_job(); }
  void prepare_correction(pipeline::RankContext& ctx) override {
    inner_->prepare_correction(ctx);
  }
  bool needs_service() const override { return inner_->needs_service(); }
  void serve() override { inner_->serve(); }
  void announce_done() override { inner_->announce_done(); }
  void harvest_service(stats::PhaseTimeline& report) override {
    inner_->harvest_service(report);
  }
  std::unique_ptr<pipeline::WorkerHandle> make_worker(
      const pipeline::RankContext& ctx, int slot) override {
    auto handle = inner_->make_worker(ctx, slot);
    if (!fail_) return handle;
    return std::make_unique<FailingHandle>(std::move(handle));
  }

 private:
  pipeline::SpectrumModel* inner_;
  bool fail_;
};

using FailureCase = std::tuple<int, bool>;  // ranks, rtm-check on

class WorkerFailure : public ::testing::TestWithParam<FailureCase> {};

TEST_P(WorkerFailure, SurfacesTheExceptionAndNoRankHangs) {
  // The session and paper graph run_distributed runs, with one rank's
  // worker failing mid-phase. That rank still ends the phase (its service
  // keeps answering until the barrier), every peer finishes, and the run
  // rethrows the worker's exception. A hang fails the test by its timeout.
  const auto [ranks, check] = GetParam();
  const auto ds =
      seq::SyntheticDataset::generate({"fail", 400, 60, 800}, {}, 31);
  parallel::DistConfig config;
  config.params = small_params();
  config.ranks = ranks;
  config.run_options.check.enabled = check;
  const int failing_rank = ranks - 1;
  std::string what;
  try {
    pipeline::run_session(
        config.topology(), config.trace, parallel::resolve_run_options(config),
        [&](rtm::Comm& comm) {
          pipeline::DistRank rank(config, comm);
          FailingModel model(rank.model, comm.rank() == failing_rank);
          rank.ctx.rank.model = &model;
          const auto source = pipeline::ReadInput(ds.reads).open(
              comm.rank(), comm.size());
          rank.ctx.job.source = source.get();
          pipeline::paper_graph().run(rank.ctx);
        });
    FAIL() << "the worker's exception did not surface";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "injected worker failure");
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, WorkerFailure,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FailureCase>& info) {
      return std::to_string(std::get<0>(info.param)) + "ranks_check_" +
             (std::get<1>(info.param) ? "on" : "off");
    });

TEST(ServiceLifecycle, TwentyJobsLeaveTheMailboxAuditClean) {
  // The serve-mode job cycle (reset, then the correction graph) twenty
  // times over one resident spectrum, under the strict lookup tag table.
  // Without the server's announce/complete plane between jobs, a fast rank
  // starts job j + 1 while a peer's job-j service may still drain. Every
  // stop must still be consumed by its own phase's service and every
  // request answered: the end-of-run audit finds nothing left.
  const auto ds =
      seq::SyntheticDataset::generate({"audit", 1000, 60, 1200}, {}, 41);
  const std::vector<seq::Read> build_reads(ds.reads.begin(),
                                           ds.reads.begin() + 600);
  const std::vector<seq::Read> held_out(ds.reads.begin() + 600,
                                        ds.reads.end());
  parallel::DistConfig config;
  config.params = small_params();
  config.ranks = 2;
  config.worker_threads = 2;
  config.heuristics.batch_lookups = true;
  config.heuristics.filter_lookups = true;
  constexpr std::size_t kJobs = 20;
  const std::size_t per_job = held_out.size() / kJobs;
  std::vector<std::uint64_t> substitutions(kJobs, 0);
  const auto checks = pipeline::run_session(
      config.topology(), config.trace, parallel::resolve_run_options(config),
      [&](rtm::Comm& comm) {
        pipeline::DistRank rank(config, comm);
        const auto source =
            pipeline::ReadInput(build_reads).open(comm.rank(), comm.size());
        rank.ctx.job.source = source.get();
        pipeline::StageGraph graph;
        graph.add(std::make_unique<pipeline::LoadBalanceStage>())
            .add(std::make_unique<pipeline::BuildSpectrumStage>());
        graph.run(rank.ctx);
        for (std::size_t j = 0; j < kJobs; ++j) {
          const std::vector<seq::Read> reads(
              held_out.begin() + static_cast<std::ptrdiff_t>(j * per_job),
              held_out.begin() +
                  static_cast<std::ptrdiff_t>((j + 1) * per_job));
          rank.ctx.job.reset_for_job(j + 1);
          rank.model.reset_for_job();
          const auto job_source =
              pipeline::ReadInput(reads).open(comm.rank(), comm.size());
          rank.ctx.job.source = job_source.get();
          pipeline::correction_graph().run(rank.ctx);
          if (comm.rank() == 0) {
            substitutions[j] = rank.ctx.job.report.substitutions;
          }
        }
      });
  ASSERT_EQ(checks.size(), 2u);
  for (std::size_t r = 0; r < checks.size(); ++r) {
    EXPECT_EQ(checks[r].leaked_messages, 0u) << "rank " << r;
    EXPECT_EQ(checks[r].stale_leaks, 0u) << "rank " << r;
    EXPECT_EQ(checks[r].unanswered_requests, 0u) << "rank " << r;
    EXPECT_EQ(checks[r].fifo_violations, 0u) << "rank " << r;
    EXPECT_GT(checks[r].lint_checked, 0u) << "rank " << r;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t s : substitutions) total += s;
  EXPECT_GT(total, 0u);  // the jobs really corrected something
}

}  // namespace
}  // namespace reptile
