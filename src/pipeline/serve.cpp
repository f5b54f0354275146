// parallel::CorrectionServer: the resident correction service over the
// stage graph (DESIGN.md §13).
//
// The rank-vs-job split of pipeline/context.hpp is what makes this file
// small: construction runs LoadBalance -> BuildSpectrum once per rank
// (identical to the front half of run_distributed), and each streamed job
// is just "cycle the JobState, run correction_graph()". The World, Step I
// input and rank reports come from the shared run lifecycle
// (pipeline/session.hpp); everything else here is the control plane: the
// admission queue, the job table, the announce/complete wire exchange, and
// per-job observability.

#include "parallel/serve.hpp"

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "parallel/admission.hpp"
#include "parallel/protocol.hpp"
#include "pipeline/session.hpp"
#include "pipeline/stages.hpp"
#include "rtm/comm.hpp"
#include "stats/stopwatch.hpp"

namespace reptile::parallel {

struct CorrectionServer::Impl {
  /// One admitted job: the input, the effective (build + overrides) config
  /// computed at submit time, and the output slots the ranks fill. Shared
  /// between the submitter (holds the future), the queue, and the ranks.
  struct PendingJob {
    std::uint64_t id = 0;

    std::vector<seq::Read> reads;
    std::filesystem::path fasta;
    std::filesystem::path qual;

    core::CorrectorParams params;
    Heuristics heuristics;
    RetryPolicy retry;
    double deadline_seconds = 0.0;

    std::vector<std::vector<seq::Read>> corrected_per_rank;
    std::vector<RankReport> reports;
    std::promise<JobReport> promise;
  };

  std::vector<seq::Read> build_reads;
  DistConfig config;
  AdmissionQueue<std::shared_ptr<PendingJob>> queue;

  /// Announced-by-id job lookup for the peer ranks. A job is inserted
  /// before it is enqueued and erased after its future is fulfilled, so a
  /// peer that just received an announce always finds the job here.
  std::mutex jobs_mutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingJob>> jobs;
  std::atomic<std::uint64_t> next_job_id{1};

  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_degraded{0};
  std::atomic<std::uint64_t> jobs_rejected{0};
  std::atomic<std::uint64_t> spectrum_builds{0};
  std::vector<stats::PhaseTimeline> build_timelines;

  /// Fulfilled (once) when every rank finished building the spectrum — or
  /// with the exception that killed the world; the constructor blocks on it.
  std::promise<void> ready_promise;
  std::once_flag ready_once;

  std::thread world_thread;
  std::mutex shutdown_mutex;

  Impl(std::vector<seq::Read> reads, DistConfig cfg, std::size_t depth)
      : build_reads(std::move(reads)),
        config(std::move(cfg)),
        queue(depth),
        build_timelines(static_cast<std::size_t>(config.ranks)) {}

  ~Impl() { shutdown(); }

  void start() {
    validate_dist_config(config);
    // One-shot runs tolerate lossy chaos because every lookup can be
    // retransmitted; the serve control messages (announce/complete) have no
    // retry path — a dropped announce would wedge the server — so serve
    // mode only accepts lossless (stall/duplicate) plans.
    if (config.run_options.chaos.lossy()) {
      throw std::invalid_argument(
          "serve mode requires a lossless chaos plan: job announce/complete "
          "control messages are not retransmitted (stalls and duplicates "
          "are fine, drops and truncation are not)");
    }
    world_thread = std::thread([this] { world_loop(); });
  }

  void world_loop() {
    try {
      pipeline::run_session(config.topology(), config.trace,
                            resolve_run_options(config),
                            [this](rtm::Comm& comm) { rank_body(comm); });
    } catch (...) {
      fail(std::current_exception());
      return;
    }
    // Normal exit: the queue drained before the shutdown announce, so no
    // job can still be pending — but if one ever is, failing its promise
    // beats leaving a submitter blocked forever.
    fail(std::make_exception_ptr(
        std::runtime_error("correction server shut down")));
  }

  /// Terminal-path cleanup: unblock the constructor (if still waiting) and
  /// every submitter holding an unfulfilled future, then refuse admission.
  void fail(std::exception_ptr error) {
    std::call_once(ready_once, [&] { ready_promise.set_exception(error); });
    queue.close();
    std::lock_guard lock(jobs_mutex);
    for (auto& [id, job] : jobs) {
      job->promise.set_exception(error);
    }
    jobs.clear();
  }

  void rank_body(rtm::Comm& comm) {
    const int rank = comm.rank();
    const int np = comm.size();

    pipeline::DistRank dist(config, comm);

    // Rank-lifetime phase: Steps I-III over the build dataset, exactly the
    // front half of run_distributed. Runs once; every later job reuses the
    // spectrum it built.
    {
      const auto source = pipeline::ReadInput(build_reads).open(rank, np);
      dist.ctx.job.source = source.get();
      pipeline::StageGraph build;
      build.add(std::make_unique<pipeline::LoadBalanceStage>())
          .add(std::make_unique<pipeline::BuildSpectrumStage>());
      build.run(dist.ctx);
      spectrum_builds.fetch_add(1, std::memory_order_relaxed);
      if (obs::Counter* c =
              obs::Registry::global().counter("reptile_spectrum_builds", rank)) {
        c->add(1);
      }
      build_timelines[static_cast<std::size_t>(rank)] =
          std::move(dist.ctx.job.report);
    }

    // All ranks hold a complete shard before the constructor returns (and
    // before any announce can race ahead of a slow builder).
    comm.barrier();
    if (rank == 0) {
      std::call_once(ready_once, [this] { ready_promise.set_value(); });
    }

    // Job loop. Rank 0 owns the queue and drives the control plane; peers
    // block on announces. A CV-parked rank 0 counts as running for the
    // rtm-check watchdog, so an idle server is never flagged as deadlocked.
    std::uint64_t last_job = 0;
    while (true) {
      std::shared_ptr<PendingJob> job;
      if (rank == 0) {
        std::optional<std::shared_ptr<PendingJob>> next = queue.pop();
        JobAnnounce announce;
        announce.job_id = next ? (*next)->id : 0;
        announce.op = static_cast<std::uint32_t>(next ? JobOp::kRun
                                                      : JobOp::kShutdown);
        for (int dst = 1; dst < np; ++dst) {
          comm.send_value(dst, kTagJobAnnounce, announce);
        }
        if (!next) break;
        job = std::move(*next);
      } else {
        const auto announce =
            comm.recv(0, kTagJobAnnounce).as_value<JobAnnounce>();
        if (announce.op == static_cast<std::uint32_t>(JobOp::kShutdown)) {
          break;
        }
        // Relies on the rtm::ChaosDelayer rule (rtm/chaos.hpp): a duplicate
        // is queued right behind its original, and delivery to one
        // destination is non-overtaking. So a duplicated announce arrives
        // before the next job's, and names the job that just ran here.
        if (announce.job_id == last_job) continue;
        std::lock_guard lock(jobs_mutex);
        job = jobs.at(announce.job_id);
      }
      last_job = job->id;
      serve_job(dist, comm, *job);
    }
  }

  void serve_job(pipeline::DistRank& dist, rtm::Comm& comm, PendingJob& job) {
    const int rank = comm.rank();
    const int np = comm.size();
    stats::Stopwatch clock;
    const std::uint64_t ledger_before =
        obs::ResourceLedger::global().total_bytes();

    // Cycle the job-lifetime state; the rank-lifetime spectrum, filters and
    // mailboxes carry over untouched from the build phase.
    pipeline::RankContext& ctx = dist.ctx;
    ctx.job.reset_for_job(job.id);
    ctx.job.params = job.params;
    ctx.job.heuristics = job.heuristics;
    ctx.job.retry = job.retry;
    ctx.job.deadline_seconds = job.deadline_seconds;
    dist.model.reset_for_job();

    const pipeline::ReadInput input =
        job.fasta.empty() ? pipeline::ReadInput(job.reads)
                          : pipeline::ReadInput(job.fasta, job.qual);
    const auto source = input.open(rank, np);
    ctx.job.source = source.get();
    pipeline::correction_graph().run(ctx);

    // The timeline is this job's alone; the traffic is World-cumulative.
    RankReport report = pipeline::take_report(ctx);
    const bool rank_degraded = report.reads_deadline_skipped > 0 ||
                               report.tiles_degraded > 0 ||
                               report.remote.degraded_lookups > 0;

    job.corrected_per_rank[static_cast<std::size_t>(rank)] =
        std::move(ctx.job.corrected);
    job.reports[static_cast<std::size_t>(rank)] = std::move(report);

    if (rank != 0) {
      JobComplete done;
      done.job_id = job.id;
      done.degraded = rank_degraded ? 1 : 0;
      comm.send_value(0, kTagJobComplete, done);
      return;
    }

    // Rank 0: collect every peer's ack for this job, merge, publish,
    // fulfill. Delivery from one peer is non-overtaking and a duplicate is
    // queued right behind its original (the rtm::ChaosDelayer rule,
    // rtm/chaos.hpp), so a duplicated ack of an earlier job comes before
    // this job's and is skipped.
    bool degraded = rank_degraded;
    for (int peer = 1; peer < np; ++peer) {
      JobComplete done;
      do {
        done = comm.recv(peer, kTagJobComplete).as_value<JobComplete>();
      } while (done.job_id != job.id);
      degraded = degraded || done.degraded != 0;
    }

    JobReport out;
    out.job_id = job.id;
    out.corrected = pipeline::MergeStage::run(std::move(job.corrected_per_rank));
    out.ranks = std::move(job.reports);
    out.deadline_missed = out.total_deadline_skipped() > 0;
    out.degraded = degraded;
    out.seconds = clock.seconds();
    // Per-job ledger attribution: how many bytes the job left behind (warm
    // caches, regrown tables) and the process peak so far. Both 0 while the
    // ledger is disarmed.
    obs::ResourceLedger& ledger = obs::ResourceLedger::global();
    out.ledger_delta_bytes =
        static_cast<std::int64_t>(ledger.total_bytes()) -
        static_cast<std::int64_t>(ledger_before);
    out.ledger_peak_bytes = ledger.total_peak_bytes();

    obs::Registry& registry = obs::Registry::global();
    const auto job_label = static_cast<std::int64_t>(job.id);
    for (const RankReport& r : out.ranks) {
      registry.publish_timeline(r, r.rank, job_label);
    }
    if (obs::Counter* c = registry.counter("reptile_jobs_completed")) {
      c->add(1);
    }
    if (degraded) {
      if (obs::Counter* c = registry.counter("reptile_jobs_degraded")) {
        c->add(1);
      }
    }
    if (obs::Histogram* h = registry.histogram("reptile_job_latency_us")) {
      h->record(static_cast<std::uint64_t>(out.seconds * 1e6));
    }

    jobs_completed.fetch_add(1, std::memory_order_relaxed);
    if (degraded) jobs_degraded.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(jobs_mutex);
      jobs.erase(job.id);
    }
    job.promise.set_value(std::move(out));
  }

  /// Validates the request and freezes its effective configuration into a
  /// PendingJob. Runs in the submitter's thread so bad jobs throw at the
  /// submit call and never reach the ranks.
  std::shared_ptr<PendingJob> make_job(JobRequest& request) {
    if (!request.fasta.empty() && request.qual.empty()) {
      throw std::invalid_argument(
          "job: a FASTA input needs its quality file (qual path is empty)");
    }
    request.overrides.validate(config.params, config.heuristics,
                               config.worker_threads);
    auto job = std::make_shared<PendingJob>();
    job->id = next_job_id.fetch_add(1, std::memory_order_relaxed);
    job->params = request.overrides.apply_to(config.params);
    job->heuristics = request.overrides.apply_to(config.heuristics);
    job->retry = request.overrides.retry.value_or(config.retry);
    job->deadline_seconds = request.overrides.deadline_seconds.value_or(0.0);
    job->corrected_per_rank.resize(static_cast<std::size_t>(config.ranks));
    job->reports.resize(static_cast<std::size_t>(config.ranks));
    return job;
  }

  std::future<JobReport> submit(JobRequest request) {
    std::shared_ptr<PendingJob> job = make_job(request);
    job->reads = std::move(request.reads);
    job->fasta = std::move(request.fasta);
    job->qual = std::move(request.qual);
    std::future<JobReport> result = job->promise.get_future();
    const std::uint64_t id = job->id;
    {
      std::lock_guard lock(jobs_mutex);
      jobs.emplace(id, job);
    }
    if (!queue.submit(std::move(job))) {
      std::lock_guard lock(jobs_mutex);
      jobs.erase(id);
      throw std::runtime_error("correction server is shut down");
    }
    return result;
  }

  std::optional<std::future<JobReport>> try_submit(JobRequest& request) {
    std::shared_ptr<PendingJob> job = make_job(request);
    std::future<JobReport> result = job->promise.get_future();
    const std::uint64_t id = job->id;
    // The input moves in only on admission so a refused request stays
    // intact in the caller for a later retry.
    {
      std::lock_guard lock(jobs_mutex);
      jobs.emplace(id, job);
    }
    job->reads = std::move(request.reads);
    job->fasta = request.fasta;
    job->qual = request.qual;
    std::shared_ptr<PendingJob> to_queue = job;
    if (!queue.try_submit(to_queue)) {
      request.reads = std::move(job->reads);  // hand the input back
      {
        std::lock_guard lock(jobs_mutex);
        jobs.erase(id);
      }
      jobs_rejected.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    request.reads.clear();
    request.fasta.clear();
    request.qual.clear();
    return result;
  }

  void shutdown() {
    std::lock_guard lock(shutdown_mutex);
    queue.close();
    if (world_thread.joinable()) world_thread.join();
  }
};

CorrectionServer::CorrectionServer(std::vector<seq::Read> build_reads,
                                   DistConfig config,
                                   std::size_t admission_depth)
    : impl_(std::make_unique<Impl>(std::move(build_reads), std::move(config),
                                   admission_depth)) {
  std::future<void> ready = impl_->ready_promise.get_future();
  impl_->start();
  ready.get();  // rethrows construction-time (build-phase) errors
}

CorrectionServer::~CorrectionServer() = default;  // Impl dtor shuts down

std::future<JobReport> CorrectionServer::submit(JobRequest request) {
  return impl_->submit(std::move(request));
}

std::optional<std::future<JobReport>> CorrectionServer::try_submit(
    JobRequest& request) {
  return impl_->try_submit(request);
}

void CorrectionServer::shutdown() { impl_->shutdown(); }

ServerStats CorrectionServer::stats() const {
  ServerStats s;
  s.jobs_completed = impl_->jobs_completed.load(std::memory_order_relaxed);
  s.jobs_degraded = impl_->jobs_degraded.load(std::memory_order_relaxed);
  s.jobs_rejected = impl_->jobs_rejected.load(std::memory_order_relaxed);
  s.spectrum_builds = impl_->spectrum_builds.load(std::memory_order_relaxed);
  return s;
}

int CorrectionServer::ranks() const noexcept { return impl_->config.ranks; }

std::size_t CorrectionServer::admission_depth() const noexcept {
  return impl_->queue.depth();
}

std::size_t CorrectionServer::queued() const { return impl_->queue.size(); }

const std::vector<stats::PhaseTimeline>& CorrectionServer::build_reports()
    const noexcept {
  return impl_->build_timelines;
}

}  // namespace reptile::parallel
