#pragma once
// The benchmark's tracing layer. Nothing here reaches inside the program:
// every number is taken at a public seam by a decorator that forwards to the
// real implementation.
//
//   TimedStage       wraps a pipeline::Stage: one span per stage run.
//   TracedReadSource wraps a seq::ReadSource: time and bytes in next_chunk,
//                    and one "chunk:<stage>" span per delivered chunk.
//   TracedModel      wraps a pipeline::SpectrumModel: time in add_read,
//                    exchange_chunk and finalize_construction; spans for
//                    those two and for reset_for_job.
//   TracedHandle     wraps a pipeline::WorkerHandle: one span per
//                    prefetch_chunk, and a TracedView over its view.
//   TracedView       wraps a core::SpectrumView: per-call time, classified
//                    into the answering tier of the lookup chain by which
//                    public remote_stats() counter the call advanced.
//
// Every decorator of one rank records into that rank's RankTrace, and only
// from the rank's main thread (the benchmark runs one correction worker per
// rank, which CorrectStage runs inline on that thread).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/spectrum.hpp"
#include "parallel/remote_spectrum.hpp"
#include "pipeline/spectrum_model.hpp"
#include "pipeline/stages.hpp"
#include "seq/read.hpp"
#include "util.hpp"

namespace perfbench {

/// Nanoseconds since the first call in this process.
std::int64_t now_ns();

/// One recorded span: a named interval on one rank, inside the run or job
/// `run_id`, caused by the span at index `parent` of the same log.
struct Span {
  std::uint64_t run_id = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// The spans of one rank, kept in memory until the benchmark writes them.
/// Spans nest strictly: close() always closes the innermost open span.
class SpanLog {
 public:
  void set_run(std::uint64_t run_id) { run_id_ = run_id; }
  int open(std::string name);
  void close(int index);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span, the seconds not covered by its direct children.
  std::vector<double> self_seconds() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t run_id_ = 0;
};

/// Log-linear latency histogram over nanoseconds: 16 buckets per power of
/// two, so a quantile read from it is within ~4 % of the sample.
class LatencyHistogram {
 public:
  void record(std::int64_t ns);
  /// Approximate quantile in nanoseconds (bucket midpoint); 0 when empty.
  double quantile_ns(double q) const;
  void merge(const LatencyHistogram& other);

 private:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Which link of the lookup chain answered a view call.
enum class Tier : int {
  kLocal = 0,  ///< owned or replicated table (no remote counter moved)
  kReadsTable,
  kGroup,
  kFilter,
  kPrefetch,
  kWire,
  kCount
};

struct TierStats {
  std::uint64_t calls = 0;
  double seconds = 0;
  LatencyHistogram latency;
};

/// The counters the decorators of one rank accumulate over one run or job.
struct LayerCounters {
  std::array<TierStats, static_cast<int>(Tier::kCount)> tiers;
  double add_read_seconds = 0;
  double exchange_seconds = 0;  ///< exchange_chunk + finalize_construction
  double prefetch_seconds = 0;
  double next_chunk_seconds = 0;
  std::uint64_t next_chunk_bytes = 0;  ///< bases + quality bytes delivered

  TierStats& tier(Tier t) { return tiers[static_cast<std::size_t>(t)]; }
  const TierStats& tier(Tier t) const {
    return tiers[static_cast<std::size_t>(t)];
  }
  double view_seconds() const;
};

/// Everything the decorators of one rank record.
struct RankTrace {
  SpanLog spans;
  LayerCounters counters;
  /// The stage being run (names the chunk spans).
  std::string stage;
  /// Index of the open chunk span, -1 when none.
  int open_chunk = -1;
  /// Wrappers over sources a stage re-pointed ctx.job.source at.
  std::vector<std::unique_ptr<reptile::seq::ReadSource>> wrappers;

  /// Starts run or job `run_id`: new spans carry its id, counters restart.
  void begin(std::uint64_t run_id);
};

class TracedReadSource final : public reptile::seq::ReadSource {
 public:
  TracedReadSource(reptile::seq::ReadSource& inner, RankTrace& trace)
      : inner_(&inner), trace_(&trace) {}

  bool next_chunk(std::size_t max_reads, reptile::seq::ReadBatch& out) override;
  void reset() override { inner_->reset(); }
  std::size_t size() const override { return inner_->size(); }

 private:
  reptile::seq::ReadSource* inner_;
  RankTrace* trace_;
};

class TimedStage final : public reptile::pipeline::Stage {
 public:
  TimedStage(std::unique_ptr<reptile::pipeline::Stage> inner, RankTrace& trace)
      : inner_(std::move(inner)), trace_(&trace) {}

  std::string_view name() const override { return inner_->name(); }
  void run(reptile::pipeline::RankContext& ctx) override;

 private:
  std::unique_ptr<reptile::pipeline::Stage> inner_;
  RankTrace* trace_;
};

class TracedView final : public reptile::core::SpectrumView {
 public:
  TracedView(reptile::core::SpectrumView& inner, RankTrace& trace);

  std::uint32_t kmer_count(reptile::seq::kmer_id_t id) override;
  std::uint32_t tile_count(reptile::seq::tile_id_t id) override;
  const reptile::core::LookupStats& stats() const override {
    return inner_->stats();
  }
  std::uint64_t degraded_lookups() const override {
    return inner_->degraded_lookups();
  }

 private:
  /// The remote counters that identify the answering tier, in Tier order
  /// from kReadsTable to kWire.
  using Marks = std::array<std::uint64_t, 5>;
  Marks marks() const;
  void record(const Marks& before, std::int64_t t0);

  reptile::core::SpectrumView* inner_;
  const reptile::parallel::RemoteSpectrumView* remote_;
  RankTrace* trace_;
};

class TracedHandle final : public reptile::pipeline::WorkerHandle {
 public:
  TracedHandle(std::unique_ptr<reptile::pipeline::WorkerHandle> inner,
               RankTrace& trace)
      : inner_(std::move(inner)),
        view_(inner_->view(), trace),
        trace_(&trace) {}

  reptile::core::SpectrumView& view() override { return view_; }
  void prefetch_chunk(const reptile::seq::ReadBatch& batch) override;
  void harvest(reptile::stats::PhaseTimeline& acc) override {
    inner_->harvest(acc);
  }

 private:
  std::unique_ptr<reptile::pipeline::WorkerHandle> inner_;
  TracedView view_;
  RankTrace* trace_;
};

class TracedModel final : public reptile::pipeline::SpectrumModel {
 public:
  TracedModel(reptile::pipeline::SpectrumModel& inner, RankTrace& trace)
      : inner_(&inner), trace_(&trace) {}

  void add_read(std::string_view bases) override;
  bool chunked_exchange() const override { return inner_->chunked_exchange(); }
  void exchange_chunk() override;
  void finalize_construction() override;
  std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  void record_construction_footprint(
      reptile::stats::PhaseTimeline& report) override {
    inner_->record_construction_footprint(report);
  }
  void record_correction_footprint(
      reptile::stats::PhaseTimeline& report) override {
    inner_->record_correction_footprint(report);
  }
  void reset_for_job() override;
  void prepare_correction(reptile::pipeline::RankContext& ctx) override {
    inner_->prepare_correction(ctx);
  }
  bool needs_service() const override { return inner_->needs_service(); }
  void serve() override { inner_->serve(); }
  void announce_done() override { inner_->announce_done(); }
  void harvest_service(reptile::stats::PhaseTimeline& report) override {
    inner_->harvest_service(report);
  }
  std::unique_ptr<reptile::pipeline::WorkerHandle> make_worker(
      const reptile::pipeline::RankContext& ctx, int slot) override;

 private:
  reptile::pipeline::SpectrumModel* inner_;
  RankTrace* trace_;
};

/// `graph`'s stages, each wrapped in a TimedStage recording into `trace`:
/// the paper graph (LoadBalance -> BuildSpectrum -> Correct), the serve
/// build half (LoadBalance -> BuildSpectrum) or the per-job half
/// (LoadBalance -> Correct).
enum class GraphKind { kPaper, kBuild, kCorrection };
reptile::pipeline::StageGraph traced_graph(GraphKind kind, RankTrace& trace);

/// Writes every rank's spans as one Chrome trace-event file (pid = rank),
/// each event carrying its run id, parent and self time. Returns false when
/// the file cannot be written.
bool write_trace(const std::string& path, const std::vector<RankTrace>& ranks);

}  // namespace perfbench
