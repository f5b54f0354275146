#include "drivers.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol.hpp"
#include "pipeline/context.hpp"
#include "pipeline/dist_model.hpp"
#include "pipeline/stages.hpp"
#include "rtm/comm.hpp"
#include "seq/fasta_io.hpp"
#include "stats/stopwatch.hpp"

namespace perfbench {

namespace parallel = reptile::parallel;
namespace pipeline = reptile::pipeline;
namespace rtm = reptile::rtm;
namespace seq = reptile::seq;

namespace {

/// The traced drivers record from the rank's main thread only, and
/// CorrectStage runs worker slot 0 there.
void require_traceable(const parallel::DistConfig& config) {
  parallel::validate_dist_config(config);
  if (config.worker_threads != 1) {
    throw std::invalid_argument("traced drivers need worker_threads == 1");
  }
  // Same observability state as the program's drivers apply (all off).
  reptile::obs::Tracer::instance().configure(config.trace);
  reptile::obs::Registry::global().configure(config.trace.metrics);
  reptile::obs::ResourceLedger::global().configure(config.trace.ledger);
}

/// [begin, end) of rank `rank`'s in-memory Step I slice, as the program
/// slices it.
std::pair<std::size_t, std::size_t> slice(std::size_t n, int rank, int np) {
  const auto r = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(np);
  return {n * r / p, n * (r + 1) / p};
}

void bind(pipeline::RankContext& ctx, const parallel::DistConfig& config,
          rtm::Comm& comm, pipeline::SpectrumModel& model) {
  ctx.bind(config.params, config.heuristics);
  ctx.rank.worker_threads = config.worker_threads;
  ctx.rank.comm = &comm;
  ctx.rank.model = &model;
  ctx.job.retry = config.retry;
}

}  // namespace

StageSeconds stage_seconds(const SpanLog& log, std::uint64_t run_id) {
  StageSeconds out;
  const std::vector<Span>& spans = log.spans();
  for (const Span& s : spans) {
    if (s.run_id != run_id) continue;
    if (s.name == "stage:load_balance") out.load_balance += s.seconds();
    if (s.name == "stage:build_spectrum") out.build_spectrum += s.seconds();
    if (s.name == "stage:correct") out.correct += s.seconds();
    if (s.name == "merge") out.merge += s.seconds();
    if (s.parent < 0) {
      (s.name == "merge" ? out.merge_root : out.root) += s.seconds();
    } else if (spans[static_cast<std::size_t>(s.parent)].parent < 0 &&
               spans[static_cast<std::size_t>(s.parent)].name != "merge") {
      out.covered += s.seconds();
    }
  }
  return out;
}

TracedRun run_traced_oneshot(const OneShotInput& input,
                             const parallel::DistConfig& config,
                             std::vector<RankTrace>& traces,
                             std::uint64_t run_id) {
  require_traceable(config);
  const auto np = static_cast<std::size_t>(config.ranks);
  traces.resize(np);
  TracedRun run;
  run.run_id = run_id;
  run.ranks.resize(np);
  run.counters.resize(np);
  std::vector<std::vector<seq::Read>> corrected(np);

  const reptile::stats::Stopwatch clock;
  auto world = rtm::run_world(
      config.topology(),
      [&](rtm::Comm& comm) {
        const int rank = comm.rank();
        RankTrace& trace = traces[static_cast<std::size_t>(rank)];
        trace.begin(run_id);
        const int span = trace.spans.open("run");
        std::optional<seq::SliceReadSource> memory;
        std::optional<seq::PartitionedReadSource> file;
        seq::ReadSource* raw = nullptr;
        const int open = trace.spans.open("open_source");  // Step I partition
        if (input.fasta.empty()) {
          const auto [b, e] = slice(input.reads->size(), rank, comm.size());
          raw = &memory.emplace(*input.reads, b, e);
        } else {
          raw = &file.emplace(input.fasta, input.qual, rank, comm.size());
        }
        trace.spans.close(open);
        TracedReadSource source(*raw, trace);
        const int make = trace.spans.open("make_model");
        std::optional<pipeline::DistSpectrumModel> inner;
        inner.emplace(config.params, config.heuristics, comm);
        trace.spans.close(make);
        TracedModel model(*inner, trace);
        pipeline::RankContext ctx;
        bind(ctx, config, comm, model);
        ctx.job.source = &source;
        traced_graph(GraphKind::kPaper, trace).run(ctx);
        trace.spans.close(span);

        const auto slot = static_cast<std::size_t>(rank);
        parallel::RankReport& report = run.ranks[slot];
        report.timeline() = std::move(ctx.job.report);
        report.rank = rank;
        report.traffic = comm.world().traffic().snapshot(rank);
        corrected[slot] = std::move(ctx.job.corrected);
        run.counters[slot] = trace.counters;
        trace.wrappers.clear();  // they point into this rank's sources
      },
      parallel::resolve_run_options(config));
  world.reset();
  const int merge = traces[0].spans.open("merge");
  run.corrected = pipeline::MergeStage::run(std::move(corrected));
  traces[0].spans.close(merge);
  run.wall_s = clock.seconds();
  for (const RankTrace& trace : traces) {
    run.stages.push_back(stage_seconds(trace.spans, run_id));
  }
  return run;
}

TracedServer run_traced_server(
    const std::vector<seq::Read>& build_reads,
    const std::vector<const std::vector<seq::Read>*>& jobs,
    const parallel::DistConfig& config, std::vector<RankTrace>& traces,
    std::uint64_t first_id) {
  require_traceable(config);
  const auto np = static_cast<std::size_t>(config.ranks);
  traces.resize(np);
  TracedServer server;
  server.build.run_id = first_id;
  server.build.ranks.resize(np);
  server.build.counters.resize(np);
  server.jobs.resize(jobs.size());
  std::vector<std::vector<std::vector<seq::Read>>> corrected(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    server.jobs[j].run_id = first_id + 1 + j;
    server.jobs[j].ranks.resize(np);
    server.jobs[j].counters.resize(np);
    corrected[j].resize(np);
  }

  auto world = rtm::run_world(
      config.topology(),
      [&](rtm::Comm& comm) {
        const int rank = comm.rank();
        RankTrace& trace = traces[static_cast<std::size_t>(rank)];
        pipeline::DistSpectrumModel inner(config.params, config.heuristics,
                                          comm);
        TracedModel model(inner, trace);
        pipeline::RankContext ctx;
        bind(ctx, config, comm, model);

        // Rank-lifetime phase: the build half of the graph, once.
        {
          trace.begin(first_id);
          const int span = trace.spans.open("build");
          const auto [b, e] = slice(build_reads.size(), rank, comm.size());
          seq::SliceReadSource raw(build_reads, b, e);
          TracedReadSource source(raw, trace);
          ctx.job.source = &source;
          traced_graph(GraphKind::kBuild, trace).run(ctx);
          trace.spans.close(span);
          parallel::RankReport& report =
              server.build.ranks[static_cast<std::size_t>(rank)];
          report.timeline() = std::move(ctx.job.report);
          report.rank = rank;
          report.traffic = comm.world().traffic().snapshot(rank);
          server.build.counters[static_cast<std::size_t>(rank)] =
              trace.counters;
          trace.wrappers.clear();
        }
        comm.barrier();

        // Job loop, with the server's control messages.
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          TracedRun& job = server.jobs[j];
          if (rank == 0) {
            parallel::JobAnnounce announce;
            announce.job_id = job.run_id;
            announce.op = static_cast<std::uint32_t>(parallel::JobOp::kRun);
            for (int dst = 1; dst < comm.size(); ++dst) {
              comm.send_value(dst, parallel::kTagJobAnnounce, announce);
            }
          } else {
            const auto announce = comm.recv(0, parallel::kTagJobAnnounce)
                                      .as_value<parallel::JobAnnounce>();
            if (announce.job_id != job.run_id) {
              throw std::logic_error("traced server: job out of order");
            }
          }
          trace.begin(job.run_id);
          const reptile::stats::Stopwatch clock;
          const int span = trace.spans.open("job");
          ctx.job.reset_for_job(job.run_id);
          ctx.job.params = config.params;
          ctx.job.heuristics = config.heuristics;
          ctx.job.retry = config.retry;
          model.reset_for_job();
          const auto [b, e] = slice(jobs[j]->size(), rank, comm.size());
          seq::SliceReadSource raw(*jobs[j], b, e);
          TracedReadSource source(raw, trace);
          ctx.job.source = &source;
          traced_graph(GraphKind::kCorrection, trace).run(ctx);

          parallel::RankReport& report =
              job.ranks[static_cast<std::size_t>(rank)];
          report.timeline() = std::move(ctx.job.report);
          report.rank = rank;
          report.traffic = comm.world().traffic().snapshot(rank);
          corrected[j][static_cast<std::size_t>(rank)] =
              std::move(ctx.job.corrected);
          job.counters[static_cast<std::size_t>(rank)] = trace.counters;
          trace.wrappers.clear();
          if (rank != 0) {
            trace.spans.close(span);
            parallel::JobComplete done;
            done.job_id = job.run_id;
            comm.send_value(0, parallel::kTagJobComplete, done);
            continue;
          }
          const int wait = trace.spans.open("await_peers");
          for (int peer = 1; peer < comm.size(); ++peer) {
            comm.recv(rtm::kAnySource, parallel::kTagJobComplete);
          }
          trace.spans.close(wait);
          const int merge = trace.spans.open("merge");
          job.corrected = pipeline::MergeStage::run(std::move(corrected[j]));
          trace.spans.close(merge);
          trace.spans.close(span);
          job.wall_s = clock.seconds();
        }
        if (rank == 0) {
          parallel::JobAnnounce shutdown;
          shutdown.op = static_cast<std::uint32_t>(parallel::JobOp::kShutdown);
          for (int dst = 1; dst < comm.size(); ++dst) {
            comm.send_value(dst, parallel::kTagJobAnnounce, shutdown);
          }
        } else {
          comm.recv(0, parallel::kTagJobAnnounce);
        }
      },
      parallel::resolve_run_options(config));
  world.reset();

  for (const RankTrace& trace : traces) {
    server.build.stages.push_back(stage_seconds(trace.spans, first_id));
    for (TracedRun& job : server.jobs) {
      job.stages.push_back(stage_seconds(trace.spans, job.run_id));
    }
  }
  return server;
}

double p2p_rtt_us(int rounds) {
  constexpr int kTag = 100;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  rtm::RunOptions options;
  options.check.enabled = false;
  rtm::run_world(
      rtm::Topology(2, 1),
      [&](rtm::Comm& comm) {
        for (int i = 0; i < rounds; ++i) {
          if (comm.rank() == 0) {
            const reptile::stats::Stopwatch clock;
            comm.send_value(1, kTag, std::uint64_t{1});
            comm.recv(1, kTag);
            samples.push_back(clock.seconds() * 1e6);
          } else {
            comm.recv(0, kTag);
            comm.send_value(0, kTag, std::uint64_t{1});
          }
        }
      },
      options);
  return median(std::move(samples));
}

}  // namespace perfbench
