#include "pipeline/stages.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/corrector.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/rebalance.hpp"
#include "rtm/check/check.hpp"
#include "rtm/comm.hpp"
#include "rtm/thread_group.hpp"
#include "seq/chunk_stream.hpp"
#include "stats/stopwatch.hpp"

namespace reptile::pipeline {

namespace {

/// Folds the process-global ledger into the report's per-account rows
/// (created on first call). `at_build_end` additionally stamps the
/// end-of-construction balances — the per-phase attribution the scaling
/// bench reports. No-op while the ledger is disarmed, so disabled runs
/// carry empty rows.
void sample_ledger(stats::PhaseTimeline& report, bool at_build_end) {
  obs::ResourceLedger& ledger = obs::ResourceLedger::global();
  if (!ledger.enabled()) return;
  const obs::LedgerSnapshot snap = ledger.snapshot();
  if (report.ledger.empty()) {
    report.ledger.resize(obs::kLedgerAccounts);
    for (std::size_t i = 0; i < obs::kLedgerAccounts; ++i) {
      report.ledger[i].account =
          obs::ledger_account_name(static_cast<obs::LedgerAccount>(i));
    }
  }
  for (std::size_t i = 0; i < obs::kLedgerAccounts; ++i) {
    if (at_build_end) {
      report.ledger[i].build_end_bytes = snap.accounts[i].bytes;
    }
    report.ledger[i].peak_bytes = snap.accounts[i].peak_bytes;
  }
  report.ledger_total_peak_bytes = snap.total_peak_bytes;
  report.ledger_rss_peak_bytes = snap.rss_peak_bytes;
}

/// Folds one read's correction outcome into a (partial) report.
void tally(stats::PhaseTimeline& report, const core::ReadCorrection& rc) {
  if (rc.changed()) ++report.reads_changed;
  report.substitutions += static_cast<std::uint64_t>(rc.substitutions);
  report.tiles_untrusted += static_cast<std::uint64_t>(rc.tiles_untrusted);
  report.tiles_fixed += static_cast<std::uint64_t>(rc.tiles_fixed);
  report.tiles_degraded += static_cast<std::uint64_t>(rc.tiles_degraded);
}

}  // namespace

void StageGraph::run(RankContext& ctx) {
  for (const auto& stage : stages_) {
    const std::string stage_name(stage->name());
    stats::Stopwatch clock;
    {
      obs::SpanScope span("stage", obs::intern("stage:" + stage_name));
      // Every stage span is attributed to the job it ran for, so merged
      // shards of a multi-job serve run stay per-job attributable
      // (trace_merge --check validates the arg is present).
      span.arg("job", ctx.job.job_id);
      stage->run(ctx);
    }
    const double seconds = clock.seconds();
    ctx.job.report.stages.push_back(
        {stage_name, seconds,
         ctx.model() == nullptr ? 0 : ctx.model()->footprint_bytes()});
    if (obs::Histogram* h = obs::Registry::global().histogram(
            "reptile_stage_us_" + stage_name, ctx.rank_id())) {
      h->record(static_cast<std::uint64_t>(seconds * 1e6));
    }
  }
}

void LoadBalanceStage::run(RankContext& ctx) {
  // With balancing on, the rank's working set becomes the reads it owns;
  // without it, the raw Step I partition is streamed directly (never
  // materialized — the paper re-reads the file to keep the footprint low).
  if (ctx.comm() != nullptr && ctx.job.heuristics.load_balance) {
    std::vector<seq::Read> mine;
    mine.reserve(ctx.job.source->size());
    seq::for_each_chunk(*ctx.job.source, ctx.job.params.chunk_size,
                        [&mine](seq::ReadBatch& batch) {
                          mine.insert(mine.end(),
                                      std::make_move_iterator(batch.begin()),
                                      std::make_move_iterator(batch.end()));
                        });
    ctx.job.balanced = std::make_unique<seq::OwningReadSource>(
        parallel::rebalance_reads(*ctx.comm(), mine));
    ctx.job.source = ctx.job.balanced.get();
  }
  ctx.job.report.reads_processed = ctx.job.source->size();
}

void BuildSpectrumStage::run(RankContext& ctx) {
  stats::Stopwatch clock;
  SpectrumModel& model = *ctx.model();
  seq::ChunkStream stream(*ctx.job.source, ctx.job.params.chunk_size);
  seq::ReadBatch batch;
  auto sample_peak = [&ctx, &model] {
    ctx.job.report.construction_peak_bytes = std::max(
        ctx.job.report.construction_peak_bytes, model.footprint_bytes());
  };
  if (model.chunked_exchange()) {
    // All ranks must join every collective exchange, so run to the global
    // maximum batch count (the paper's MPI_Reduce over batch counts).
    const std::uint64_t max_batches = ctx.comm()->allreduce_max(
        static_cast<std::uint64_t>(stream.chunk_count()));
    for (std::uint64_t b = 0; b < max_batches; ++b) {
      obs::SpanScope span("chunk", "chunk:build");
      span.arg("chunk", b);
      stream.next(batch);  // possibly empty near the end
      span.arg("reads", batch.size());
      for (const seq::Read& r : batch) model.add_read(r.bases);
      model.exchange_chunk();
      ++ctx.job.report.batches;
      sample_peak();
    }
  } else {
    while (stream.next(batch)) {
      obs::SpanScope span("chunk", "chunk:build");
      span.arg("chunk", ctx.job.report.batches);
      span.arg("reads", batch.size());
      for (const seq::Read& r : batch) model.add_read(r.bases);
      ++ctx.job.report.batches;
      sample_peak();
    }
    model.exchange_chunk();
    sample_peak();
  }
  model.finalize_construction();
  ctx.job.report.construct_seconds = clock.seconds();
  model.record_construction_footprint(ctx.job.report);
  sample_ledger(ctx.job.report, /*at_build_end=*/true);
}

void CorrectStage::run(RankContext& ctx) {
  SpectrumModel& model = *ctx.model();
  model.prepare_correction(ctx);

  // With a communication thread, a second barrier closes the phase after
  // the thread is joined, on unwind too (declared first, destroyed last):
  // no rank thread moves on while a peer's service thread still exits.
  // The protocol does not need it, but glibc reuses the malloc arenas of
  // exited threads last-out first-in: unordered exits hand the next run's
  // rank threads a service thread's small arena to grow for their tables,
  // while the old table memory stays resident (paper-base-2r peak RSS
  // +31 % without this barrier, equal with MALLOC_ARENA_MAX=1).
  struct ExitBarrier {
    rtm::Comm* comm;
    ~ExitBarrier() {
      if (comm != nullptr) comm->exit_barrier();
    }
  } const exit_barrier{model.needs_service() ? ctx.comm() : nullptr};

  // The phase end (distributed: a barrier, then the stop to this rank's
  // communication thread) must run exactly once before that thread is
  // joined, including when a worker throws below (a check::ProtocolError at
  // a send site, a check::DeadlockError out of a blocked receive). After
  // the barrier every rank's workers are done, so no rank owes another a
  // reply. Under a deadlock abort the service exits on the checker's abort
  // flag, so the join completes.
  std::uint64_t service_voluntary = 0;
  std::uint64_t service_involuntary = 0;
  rtm::ScopedThreadGroup service_group([&model] { model.announce_done(); });
  if (model.needs_service()) {
    service_group.spawn([&] {
      const stats::SwitchMeter switches;
      model.serve();
      switches.add_to(service_voluntary, service_involuntary);
    });
  }

  stats::Stopwatch clock;
  const int workers = std::max(1, ctx.rank.worker_threads);
  const double deadline = ctx.job.deadline_seconds;
  seq::ChunkStream stream(*ctx.job.source, ctx.job.params.chunk_size);
  std::mutex stream_mutex;
  std::vector<std::vector<seq::Read>> per_worker(
      static_cast<std::size_t>(workers));
  std::vector<stats::PhaseTimeline> worker_acc(
      static_cast<std::size_t>(workers));

  auto worker = [&](int slot) {
    // Register the thread's role with the checker; the communication
    // thread is deliberately unscoped (it is the peer the roles talk to).
    std::optional<rtm::check::ThreadScope> scope;
    if (ctx.comm() != nullptr) {
      if (rtm::check::RunChecker* check = ctx.comm()->world().checker()) {
        scope.emplace(*check, ctx.rank_id(), rtm::check::ThreadRole::kWorker);
      }
    }
    if (slot != 0) {
      // Slot 0 runs inline on the rank thread, which already carries the
      // rank label; spawned workers register their own.
      obs::Tracer::instance().set_thread(
          ctx.rank_id(), ("worker" + std::to_string(slot)).c_str());
    }
    const stats::SwitchMeter switches;
    const auto handle = model.make_worker(ctx, slot);
    core::TileCorrector corrector(ctx.job.params);
    stats::PhaseTimeline& acc = worker_acc[static_cast<std::size_t>(slot)];
    auto& corrected = per_worker[static_cast<std::size_t>(slot)];
    seq::ReadBatch local_batch;
    std::vector<core::ReadCorrection> outcomes;
    while (true) {
      {
        std::lock_guard lock(stream_mutex);
        if (!stream.next(local_batch)) break;
      }
      // Deadline blown (serve-mode SLO, checked per chunk): stop spending
      // lookups and pass the remaining reads through UNCHANGED. The
      // degraded-evidence contract of the retry protocol extends here —
      // the corrector may under-correct on a deadline, never miscorrect.
      if (deadline > 0.0 && clock.seconds() > deadline) {
        acc.reads_deadline_skipped +=
            static_cast<std::uint64_t>(local_batch.size());
        for (seq::Read& r : local_batch) corrected.push_back(std::move(r));
        continue;
      }
      obs::SpanScope span("chunk", "chunk:correct");
      span.arg("reads", local_batch.size());
      outcomes.clear();
      handle->correct_chunk(corrector, local_batch, outcomes);
      for (const core::ReadCorrection& rc : outcomes) tally(acc, rc);
      for (seq::Read& r : local_batch) corrected.push_back(std::move(r));
    }
    handle->harvest(acc);
    switches.add_to(acc.correct_voluntary_switches,
                    acc.correct_involuntary_switches);
  };

  {
    // Workers run with errors captured, not thrown: an escaping exception
    // on a std::thread would terminate the process, and the sibling threads
    // must be joined before the stage rethrows.
    rtm::ScopedThreadGroup worker_group;
    for (int slot = 1; slot < workers; ++slot) {
      worker_group.spawn([&worker, slot] { worker(slot); });
    }
    worker_group.run_inline([&worker] { worker(0); });
    worker_group.join_and_rethrow();
  }
  service_group.join_and_rethrow();
  ctx.job.report.correct_seconds = clock.seconds();

  ctx.job.corrected.reserve(ctx.job.corrected.size() + ctx.job.source->size());
  for (auto& part : per_worker) {
    for (auto& r : part) ctx.job.corrected.push_back(std::move(r));
  }
  // Counters sum across workers; comm_seconds is a gauge, so the rank
  // reports the longest any worker spent blocked.
  for (const stats::PhaseTimeline& acc : worker_acc) ctx.job.report += acc;
  ctx.job.report.correct_voluntary_switches += service_voluntary;
  ctx.job.report.correct_involuntary_switches += service_involuntary;
  model.harvest_service(ctx.job.report);
  model.record_correction_footprint(ctx.job.report);
  sample_ledger(ctx.job.report, /*at_build_end=*/false);
}

namespace {

// Work-queue protocol tags (disjoint from the lookup protocol's).
constexpr int kTagWorkRequest = 31;
constexpr int kTagWorkGrant = 32;

/// One grant from the master: the half-open read-index range [begin, end).
/// begin == end means the queue is exhausted.
struct WorkGrant {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};
static_assert(std::is_trivially_copyable_v<WorkGrant>);

/// The global master (a thread on rank 0): answers work requests with the
/// next chunk of read indices until the queue is empty, then hands every
/// rank one empty grant.
void run_master(rtm::Comm& comm, std::uint64_t total_reads,
                std::uint64_t chunk) {
  std::uint64_t next = 0;
  int retired = 0;
  while (retired < comm.size()) {
    const rtm::Message request = comm.recv(rtm::kAnySource, kTagWorkRequest);
    WorkGrant grant;
    if (next < total_reads) {
      grant.begin = next;
      grant.end = std::min(total_reads, next + chunk);
      next = grant.end;
    } else {
      ++retired;  // empty grant retires the requesting worker
    }
    comm.send_value(request.source, kTagWorkGrant, grant);
  }
}

}  // namespace

void WorkQueueCorrectStage::run(RankContext& ctx) {
  rtm::Comm& comm = *ctx.comm();
  rtm::ScopedThreadGroup master_group;
  if (comm.rank() == 0) {
    const std::uint64_t total = all_reads_->size();
    const std::uint64_t chunk = work_chunk_;
    master_group.spawn(
        [&comm, total, chunk] { run_master(comm, total, chunk); });
  }

  stats::Stopwatch clock;
  const auto handle = ctx.model()->make_worker(ctx, 0);
  core::TileCorrector corrector(ctx.job.params);
  while (true) {
    comm.send_value(0, kTagWorkRequest, std::uint32_t{0});
    const WorkGrant grant =
        comm.recv(0, kTagWorkGrant).as_value<WorkGrant>();
    if (grant.begin == grant.end) break;
    ++ctx.job.report.work_grants;
    obs::SpanScope span("chunk", "chunk:correct");
    span.arg("reads", grant.end - grant.begin);
    for (std::uint64_t i = grant.begin; i < grant.end; ++i) {
      seq::Read read = (*all_reads_)[i];
      tally(ctx.job.report, corrector.correct(read, handle->view()));
      ++ctx.job.report.reads_processed;
      ctx.job.corrected.push_back(std::move(read));
    }
  }
  master_group.join_and_rethrow();
  ctx.job.report.correct_seconds = clock.seconds();
  handle->harvest(ctx.job.report);
  ctx.model()->record_correction_footprint(ctx.job.report);
  sample_ledger(ctx.job.report, /*at_build_end=*/false);
  comm.barrier();
}

std::vector<seq::Read> MergeStage::run(
    std::vector<std::vector<seq::Read>> per_rank) {
  std::vector<seq::Read> merged;
  std::size_t total = 0;
  for (const auto& part : per_rank) total += part.size();
  merged.reserve(total);
  for (auto& part : per_rank) {
    for (auto& r : part) merged.push_back(std::move(r));
  }
  std::sort(merged.begin(), merged.end(),
            [](const seq::Read& a, const seq::Read& b) {
              return a.number < b.number;
            });
  return merged;
}

StageGraph paper_graph() {
  StageGraph graph;
  graph.add(std::make_unique<LoadBalanceStage>())
      .add(std::make_unique<BuildSpectrumStage>())
      .add(std::make_unique<CorrectStage>());
  return graph;
}

StageGraph correction_graph() {
  StageGraph graph;
  graph.add(std::make_unique<LoadBalanceStage>())
      .add(std::make_unique<CorrectStage>());
  return graph;
}

StageGraph baseline_graph(const std::vector<seq::Read>& all_reads,
                          std::size_t work_chunk) {
  StageGraph graph;
  graph.add(std::make_unique<BuildSpectrumStage>())
      .add(std::make_unique<WorkQueueCorrectStage>(all_reads, work_chunk));
  return graph;
}

}  // namespace reptile::pipeline
