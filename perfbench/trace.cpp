#include "trace.hpp"

#include <bit>
#include <chrono>
#include <cstdio>

namespace perfbench {

using reptile::pipeline::RankContext;

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

namespace {

/// Seconds elapsed since `t0`, a now_ns() reading.
double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

// --- SpanLog ---------------------------------------------------------------

int SpanLog::open(std::string name) {
  Span span;
  span.run_id = run_id_;
  span.name = std::move(name);
  span.start_ns = now_ns();
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans nest, so the closed span is the innermost open one.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  // Children of one span run on one thread, so they never overlap.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

// --- LatencyHistogram ------------------------------------------------------

void LatencyHistogram::record(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(ns < 1 ? 1 : ns);
  const int octave = std::bit_width(v) - 1;  // v in [2^octave, 2^(octave+1))
  int sub = 0;
  if (octave >= 4) {
    sub = static_cast<int>((v >> (octave - 4)) & (kSub - 1));
  } else {
    sub = static_cast<int>((v << (4 - octave)) & (kSub - 1));
  }
  ++counts_[static_cast<std::size_t>(octave * kSub + sub)];
  ++total_;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<std::size_t>(b)];
    if (seen > rank) {
      const int octave = b / kSub;
      const int sub = b % kSub;
      const double base = static_cast<double>(std::uint64_t{1} << octave);
      return base * (1.0 + (sub + 0.5) / kSub);
    }
  }
  return 0.0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    counts_[static_cast<std::size_t>(b)] +=
        other.counts_[static_cast<std::size_t>(b)];
  }
  total_ += other.total_;
}

// --- RankTrace -------------------------------------------------------------

double LayerCounters::view_seconds() const {
  double total = 0;
  for (const TierStats& t : tiers) total += t.seconds;
  return total;
}

void RankTrace::begin(std::uint64_t run_id) {
  spans.set_run(run_id);
  counters = {};
  stage.clear();
  open_chunk = -1;
  wrappers.clear();
}

// --- decorators ------------------------------------------------------------

bool TracedReadSource::next_chunk(std::size_t max_reads,
                                  reptile::seq::ReadBatch& out) {
  if (trace_->open_chunk >= 0) {
    trace_->spans.close(trace_->open_chunk);
    trace_->open_chunk = -1;
  }
  const std::int64_t t0 = now_ns();
  const bool more = inner_->next_chunk(max_reads, out);
  trace_->counters.next_chunk_seconds += seconds_since(t0);
  for (const reptile::seq::Read& r : out) {
    trace_->counters.next_chunk_bytes += r.bases.size() + r.quals.size();
  }
  if (more) trace_->open_chunk = trace_->spans.open("chunk:" + trace_->stage);
  return more;
}

void TimedStage::run(RankContext& ctx) {
  trace_->stage = std::string(inner_->name());
  const int span = trace_->spans.open("stage:" + trace_->stage);
  inner_->run(ctx);
  if (trace_->open_chunk >= 0) {
    trace_->spans.close(trace_->open_chunk);
    trace_->open_chunk = -1;
  }
  trace_->spans.close(span);
  // LoadBalanceStage re-points the job at the re-homed reads; keep timing
  // the chunks the later stages draw from them.
  if (ctx.job.source != nullptr &&
      dynamic_cast<TracedReadSource*>(ctx.job.source) == nullptr) {
    trace_->wrappers.push_back(
        std::make_unique<TracedReadSource>(*ctx.job.source, *trace_));
    ctx.job.source = trace_->wrappers.back().get();
  }
}

TracedView::TracedView(reptile::core::SpectrumView& inner, RankTrace& trace)
    : inner_(&inner),
      remote_(dynamic_cast<const reptile::parallel::RemoteSpectrumView*>(
          &inner)),
      trace_(&trace) {}

TracedView::Marks TracedView::marks() const {
  if (remote_ == nullptr) return {};
  const reptile::parallel::RemoteLookupStats& r = remote_->remote_stats();
  return {r.reads_table_hits, r.group_lookups, r.filter_neg_hits,
          r.prefetch_hits, r.remote_lookups()};
}

void TracedView::record(const Marks& before, std::int64_t t0) {
  const std::int64_t ns = now_ns() - t0;
  const Marks after = marks();
  // The wire is checked first: a filter false positive advances its counter
  // and still pays the round trip.
  Tier tier = Tier::kLocal;
  for (int i = 4; i >= 0; --i) {
    if (after[static_cast<std::size_t>(i)] !=
        before[static_cast<std::size_t>(i)]) {
      tier = static_cast<Tier>(i + 1);
      break;
    }
  }
  TierStats& stats = trace_->counters.tier(tier);
  ++stats.calls;
  stats.seconds += static_cast<double>(ns) * 1e-9;
  stats.latency.record(ns);
}

std::uint32_t TracedView::kmer_count(reptile::seq::kmer_id_t id) {
  const Marks before = marks();
  const std::int64_t t0 = now_ns();
  const std::uint32_t count = inner_->kmer_count(id);
  record(before, t0);
  return count;
}

std::uint32_t TracedView::tile_count(reptile::seq::tile_id_t id) {
  const Marks before = marks();
  const std::int64_t t0 = now_ns();
  const std::uint32_t count = inner_->tile_count(id);
  record(before, t0);
  return count;
}

void TracedHandle::prefetch_chunk(const reptile::seq::ReadBatch& batch) {
  const int span = trace_->spans.open("prefetch");
  const std::int64_t t0 = now_ns();
  inner_->prefetch_chunk(batch);
  trace_->counters.prefetch_seconds += seconds_since(t0);
  trace_->spans.close(span);
}

void TracedModel::add_read(std::string_view bases) {
  const std::int64_t t0 = now_ns();
  inner_->add_read(bases);
  trace_->counters.add_read_seconds += seconds_since(t0);
}

void TracedModel::exchange_chunk() {
  const int span = trace_->spans.open("exchange");
  const std::int64_t t0 = now_ns();
  inner_->exchange_chunk();
  trace_->counters.exchange_seconds += seconds_since(t0);
  trace_->spans.close(span);
}

void TracedModel::finalize_construction() {
  const int span = trace_->spans.open("finalize");
  const std::int64_t t0 = now_ns();
  inner_->finalize_construction();
  trace_->counters.exchange_seconds += seconds_since(t0);
  trace_->spans.close(span);
}

void TracedModel::reset_for_job() {
  const int span = trace_->spans.open("reset_for_job");
  inner_->reset_for_job();
  trace_->spans.close(span);
}

std::unique_ptr<reptile::pipeline::WorkerHandle> TracedModel::make_worker(
    const RankContext& ctx, int slot) {
  return std::make_unique<TracedHandle>(inner_->make_worker(ctx, slot),
                                        *trace_);
}

reptile::pipeline::StageGraph traced_graph(GraphKind kind, RankTrace& trace) {
  namespace pl = reptile::pipeline;
  pl::StageGraph graph;
  graph.add(std::make_unique<TimedStage>(
      std::make_unique<pl::LoadBalanceStage>(), trace));
  if (kind != GraphKind::kCorrection) {
    graph.add(std::make_unique<TimedStage>(
        std::make_unique<pl::BuildSpectrumStage>(), trace));
  }
  if (kind != GraphKind::kBuild) {
    graph.add(std::make_unique<TimedStage>(std::make_unique<pl::CorrectStage>(),
                                           trace));
  }
  return graph;
}

bool write_trace(const std::string& path, const std::vector<RankTrace>& ranks) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [");
  bool first = true;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const std::vector<Span>& spans = ranks[r].spans.spans();
    const std::vector<double> self = ranks[r].spans.self_seconds();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                   "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"run\": %llu, \"parent\": %d, \"self_us\": %.3f}}",
                   first ? "" : ",", s.name.c_str(), r,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.run_id), s.parent,
                   self[i] * 1e6);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
