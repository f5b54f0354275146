// perfbench: the repository's benchmark (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--data-dir DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics through the program's public
// entry points with no instrumentation; --trace 1 runs the decorated
// drivers of drivers.hpp beside the untraced program and reports the
// per-layer metrics. Either way every corrected read is checked against the
// sequential reference, and the last line of stdout is the JSON result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/spectrum.hpp"
#include "drivers.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/serve.hpp"
#include "seq/dataset.hpp"
#include "seq/error_model.hpp"
#include "seq/fasta_io.hpp"
#include "stats/accuracy.hpp"
#include "stats/stopwatch.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace {

using namespace perfbench;
namespace core = reptile::core;
namespace parallel = reptile::parallel;
namespace seq = reptile::seq;
namespace stats = reptile::stats;

using Reads = std::vector<seq::Read>;

// The direct children of a run or job span must cover it, and the root
// spans plus the merge the traced run's wall time, within this tolerance.
constexpr double kSpanTolFrac = 0.05;
constexpr double kSpanTolSeconds = 0.005;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path data_dir = ".bench_build/perfbench-data";
  std::filesystem::path trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{paper-base-2r|replicated-files-4r|serve-filtered-2r} --seed N "
               "--seconds S --trace 0|1 [--smoke] [--data-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--data-dir") {
      o.data_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload != "paper-base-2r" && o.workload != "replicated-files-4r" &&
      o.workload != "serve-filtered-2r") {
    usage("unknown workload");
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

// --- inputs ------------------------------------------------------------------

/// The corrector parameters of the repository's E.Coli replica runs: k = 12,
/// 20 bp tiles, threshold 3, a six-position search per tile.
core::CorrectorParams replica_params() {
  core::CorrectorParams p;
  p.k = 12;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.max_positions_per_tile = 6;
  p.chunk_size = 256;
  return p;
}

/// Illumina-like errors with bursts in four file regions.
seq::ErrorModelParams replica_errors() {
  seq::ErrorModelParams e;
  e.error_rate_start = 0.003;
  e.error_rate_end = 0.01;
  e.burst_fraction = 0.2;
  e.burst_regions = 4;
  e.burst_multiplier = 8.0;
  return e;
}

/// A scaled E.Coli replica (Table I read length and coverage) of `reads`
/// reads, deterministic in `seed`.
seq::SyntheticDataset ecoli_replica(std::uint64_t reads, std::uint64_t seed) {
  const seq::DatasetSpec full = seq::DatasetSpec::ecoli();
  const seq::DatasetSpec spec = full.scaled(static_cast<double>(reads) /
                                            static_cast<double>(full.n_reads));
  return seq::SyntheticDataset::generate(spec, replica_errors(), seed);
}

parallel::DistConfig base_config(int ranks) {
  parallel::DistConfig config;
  config.params = replica_params();
  config.ranks = ranks;
  config.run_options.check.enabled = false;  // measure the program, not audits
  return config;
}

/// Reads whose number or bases differ from the reference, plus any missing.
std::uint64_t mismatches(const Reads& got, const Reads& want) {
  std::uint64_t bad = got.size() > want.size() ? got.size() - want.size()
                                               : want.size() - got.size();
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i].number != want[i].number || got[i].bases != want[i].bases) ++bad;
  }
  return bad;
}

bool degraded(const std::vector<parallel::RankReport>& ranks) {
  for (const parallel::RankReport& r : ranks) {
    if (r.tiles_degraded > 0 || r.reads_deadline_skipped > 0 ||
        r.remote.degraded_lookups > 0) {
      return true;
    }
  }
  return false;
}

/// Correctness tally over every checked run: reads attempted, reads that
/// failed (differ from the reference, or belong to a degraded job), and
/// cross-check violations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void check(const Reads& got, const Reads& want, bool job_degraded) {
    attempted += want.size();
    failed += job_degraded ? want.size() : mismatches(got, want);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  bool correct() const { return failed == 0 && violations.empty(); }
};

/// Removes a scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// --- one-shot workloads ------------------------------------------------------

struct OneShot {
  parallel::DistConfig config;
  seq::SyntheticDataset data;
  OneShotInput input;
  Reads reference;
  double reference_correct_s = 0;
  double gain = 0;
  std::unique_ptr<ScratchDir> files;
};

/// Untimed set-up: dataset, input files, and the sequential reference.
std::unique_ptr<OneShot> make_oneshot(const Options& o) {
  auto w = std::make_unique<OneShot>();
  if (o.workload == "paper-base-2r") {
    w->config = base_config(2);  // the paper's base mode: every flag off
    w->data = ecoli_replica(o.smoke ? 300 : 2000, o.seed);
  } else {
    w->config = base_config(4);
    w->config.heuristics.allgather_kmers = true;  // Fig. 5 "allgather both"
    w->config.heuristics.allgather_tiles = true;
    w->data = ecoli_replica(o.smoke ? 4000 : 200000, o.seed);
  }
  w->input.reads = &w->data.reads;
  if (o.workload == "replicated-files-4r") {
    w->files = std::make_unique<ScratchDir>(
        o.data_dir / ("files-" + std::to_string(::getpid())));
    w->input.fasta = w->files->path / "reads.fa";
    w->input.qual = w->files->path / "reads.qual";
    seq::write_read_files(w->input.fasta, w->input.qual, w->data.reads);
  }
  core::SequentialResult ref =
      core::run_sequential(w->data.reads, w->config.params);
  w->reference_correct_s = ref.correct_seconds;
  w->reference = std::move(ref.corrected);
  w->gain = stats::score_correction(w->data.reads, w->reference, w->data.truth)
                .gain();
  return w;
}

parallel::DistResult run_untraced(const OneShot& w) {
  return w.input.fasta.empty()
             ? parallel::run_distributed(*w.input.reads, w.config)
             : parallel::run_distributed_files(w.input.fasta, w.input.qual,
                                               w.config);
}

void oneshot_end_to_end(const Options& o, const OneShot& w, MetricList& out,
                       Tally& tally) {
  const parallel::DistResult warm = run_untraced(w);  // cold run, untimed
  tally.check(warm.corrected, w.reference, degraded(warm.ranks));

  std::vector<double> walls, setups, rates;
  reset_peak_rss();
  const stats::Stopwatch phase;
  while (walls.size() < 3 || phase.seconds() < o.seconds) {
    const stats::Stopwatch clock;
    const parallel::DistResult result = run_untraced(w);
    walls.push_back(clock.seconds());
    setups.push_back(result.max_construct_seconds());
    rates.push_back(ratio(static_cast<double>(w.reference.size()),
                          result.max_correct_seconds()));
    tally.check(result.corrected, w.reference, degraded(result.ranks));
  }
  const double rss = peak_rss_mb();
  std::printf("%zu timed runs of %zu reads\n", walls.size(),
              w.reference.size());
  out.add("setup_s", median(setups), "s");
  out.add("wall_s", median(walls), "s");
  out.add("reads_per_s", median(rates), "reads/s");
  out.add("job_p50_ms", quantile(walls, 0.5) * 1e3, "ms");
  out.add("job_p90_ms", quantile(walls, 0.9) * 1e3, "ms");
  out.add("peak_rss_mb", rss, "MB");
  out.add("correction_gain", w.gain, "ratio");
}

// --- per-layer summary of traced runs ----------------------------------------

/// The per-layer values of one traced run or job.
struct LayerRow {
  double wall_s = 0;
  double load_balance_s = 0, build_spectrum_s = 0, correct_s = 0, merge_s = 0;
  double root_s = 0, covered_s = 0, merge_root_s = 0;
  double next_chunk_s = 0, next_chunk_s_sum = 0;
  double next_chunk_bytes = 0;
  double extract_s = 0, exchange_s = 0, prefetch_s = 0, corrector_self_s = 0;
  double wire_blocked_frac = 0;
  double local_calls = 0, local_s = 0;
  double reads = 0, tile_lookups = 0, remote_lookups = 0;
  double batch_requests = 0, prefetch_hits = 0, prefetch_misses = 0;
  double filter_neg_hits = 0, filter_fp = 0, served = 0;
  double filter_bytes = 0;
  // Derived once the ranks are folded in.
  double unattributed_frac = 0, parse_mb_per_s = 0, local_lookup_ns = 0;
};

LayerRow summarize(const TracedRun& run) {
  LayerRow row;
  row.wall_s = run.wall_s;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const parallel::RankReport& rep = run.ranks[r];
    const LayerCounters& c = run.counters[r];
    const StageSeconds& s = run.stages[r];
    row.load_balance_s = std::max(row.load_balance_s, s.load_balance);
    row.build_spectrum_s = std::max(row.build_spectrum_s, s.build_spectrum);
    row.correct_s = std::max(row.correct_s, s.correct);
    row.merge_s += s.merge;
    row.root_s = std::max(row.root_s, s.root);
    row.covered_s = std::max(row.covered_s, s.covered);
    row.merge_root_s += s.merge_root;
    row.next_chunk_s = std::max(row.next_chunk_s, c.next_chunk_seconds);
    row.next_chunk_s_sum += c.next_chunk_seconds;
    row.next_chunk_bytes += static_cast<double>(c.next_chunk_bytes);
    row.extract_s = std::max(row.extract_s, c.add_read_seconds);
    row.exchange_s = std::max(row.exchange_s, c.exchange_seconds);
    row.prefetch_s = std::max(row.prefetch_s, c.prefetch_seconds);
    if (s.correct > 0) {
      row.corrector_self_s =
          std::max(row.corrector_self_s,
                   s.correct - c.view_seconds() - c.prefetch_seconds);
      row.wire_blocked_frac =
          std::max(row.wire_blocked_frac,
                   c.tier(Tier::kWire).seconds / s.correct);
    }
    for (int t = 0; t < static_cast<int>(Tier::kCount); ++t) {
      if (static_cast<Tier>(t) == Tier::kWire) continue;
      row.local_calls += static_cast<double>(c.tiers[t].calls);
      row.local_s += c.tiers[t].seconds;
    }
    row.reads += static_cast<double>(rep.reads_processed);
    row.tile_lookups += static_cast<double>(rep.lookups.tile_lookups);
    row.remote_lookups += static_cast<double>(rep.remote.remote_lookups());
    row.batch_requests += static_cast<double>(rep.remote.batch_requests);
    row.prefetch_hits += static_cast<double>(rep.remote.prefetch_hits);
    row.prefetch_misses += static_cast<double>(rep.remote.prefetch_misses);
    row.filter_neg_hits += static_cast<double>(rep.remote.filter_neg_hits);
    row.filter_fp += static_cast<double>(rep.remote.filter_false_positives);
    row.served += static_cast<double>(rep.service.requests_served);
    const auto filter =
        static_cast<double>(rep.footprint_after_correction.filter_bytes);
    row.filter_bytes = std::max(row.filter_bytes, filter);
  }
  row.unattributed_frac =
      ratio(row.wall_s - row.covered_s - row.merge_root_s, row.wall_s);
  row.parse_mb_per_s = ratio(row.next_chunk_bytes, row.next_chunk_s_sum) / 1e6;
  row.local_lookup_ns = ratio(row.local_s, row.local_calls) * 1e9;
  return row;
}

using Field = double LayerRow::*;

/// Median over rows of one field.
double median_of(const std::vector<LayerRow>& rows, Field field) {
  std::vector<double> v;
  for (const LayerRow& r : rows) v.push_back(r.*field);
  return median(std::move(v));
}

/// Mean over rows of one field (exact counts of a fixed job set).
double mean_of(const std::vector<LayerRow>& rows, Field field) {
  double total = 0;
  for (const LayerRow& r : rows) total += r.*field;
  return rows.empty() ? 0.0 : total / static_cast<double>(rows.size());
}

/// Checks one traced run against the untraced program's run of the same
/// input, rank by rank, and its spans against its own wall time.
void cross_check(const TracedRun& traced,
                 const std::vector<parallel::RankReport>& program,
                 const std::vector<std::uint64_t>& traced_msgs,
                 const std::vector<std::uint64_t>& program_msgs,
                 bool spans_cover_wall, Tally& tally) {
  const std::string run = "run " + std::to_string(traced.run_id);
  tally.require(traced.ranks.size() == program.size(), run + ": rank count");
  for (std::size_t r = 0; r < std::min(traced.ranks.size(), program.size());
       ++r) {
    const parallel::RankReport& t = traced.ranks[r];
    const parallel::RankReport& p = program[r];
    const LayerCounters& c = traced.counters[r];
    const std::string where = run + " rank " + std::to_string(r) + ": ";
    tally.require(t.remote.remote_lookups() == p.remote.remote_lookups(),
                  where + "remote_lookups differ from the program's");
    tally.require(t.remote.filter_neg_hits == p.remote.filter_neg_hits,
                  where + "filter_neg_hits differ from the program's");
    tally.require(t.remote.prefetch_hits == p.remote.prefetch_hits,
                  where + "prefetch_hits differ from the program's");
    tally.require(t.substitutions == p.substitutions,
                  where + "substitutions differ from the program's");
    tally.require(traced_msgs[r] == program_msgs[r],
                  where + "sent_msgs differ from the program's");
    // The tier classification agrees with the program's own counters.
    tally.require(c.tier(Tier::kWire).calls == t.remote.remote_lookups(),
                  where + "wire-tier calls != remote_lookups");
    tally.require(c.tier(Tier::kFilter).calls == t.remote.filter_neg_hits,
                  where + "filter-tier calls != filter_neg_hits");
    tally.require(c.tier(Tier::kPrefetch).calls == t.remote.prefetch_hits,
                  where + "prefetch-tier calls != prefetch_hits");
    const StageSeconds& s = traced.stages[r];
    const double gap = s.root - s.covered;
    tally.require(gap >= -kSpanTolSeconds &&
                      gap <= kSpanTolFrac * s.root + kSpanTolSeconds,
                  where + "child spans cover " + std::to_string(s.covered) +
                      " s of the " + std::to_string(s.root) + " s run span");
  }
  if (spans_cover_wall) {
    double root = 0;
    double merge = 0;
    for (const StageSeconds& s : traced.stages) {
      root = std::max(root, s.root);
      merge += s.merge_root;
    }
    const double gap = traced.wall_s - root - merge;
    tally.require(gap >= -kSpanTolSeconds &&
                      gap <= kSpanTolFrac * traced.wall_s + kSpanTolSeconds,
                  run + ": spans cover " + std::to_string(root + merge) +
                      " s of the traced run's " + std::to_string(traced.wall_s) +
                      " s");
  }
}

std::vector<std::uint64_t> sent_msgs(
    const std::vector<parallel::RankReport>& ranks) {
  std::vector<std::uint64_t> out;
  for (const parallel::RankReport& r : ranks) {
    out.push_back(r.traffic.sent_msgs());
  }
  return out;
}

struct TrafficTotals {
  double msgs = 0, bytes = 0, collective_calls = 0, collective_bytes = 0,
         largest = 0;
};

TrafficTotals traffic_totals(const std::vector<parallel::RankReport>& ranks) {
  TrafficTotals t;
  for (const parallel::RankReport& r : ranks) {
    t.msgs += static_cast<double>(r.traffic.sent_msgs());
    t.bytes += static_cast<double>(r.traffic.sent_bytes());
    t.collective_calls += static_cast<double>(r.traffic.collective_calls);
    t.collective_bytes += static_cast<double>(r.traffic.collective_bytes_out);
    t.largest = std::max(t.largest,
                         static_cast<double>(r.traffic.largest_msg_bytes));
  }
  return t;
}

/// Everything the per-layer report needs besides the traced rows.
struct LayerContext {
  std::vector<LayerRow> rows;         ///< traced runs (one-shot) or jobs
  std::vector<LayerRow> build_rows;   ///< serve: the traced builds
  LatencyHistogram wire;              ///< every traced wire-tier call
  double untraced_wall_s = 0;         ///< median, same unit as rows' wall_s
  double untraced_correct_s = 0;      ///< median max-rank correct_seconds
  double sequential_s = 0;            ///< reference correction time
  double rtt_us = 0;
  double spectrum_bytes = 0;
  TrafficTotals traffic;              ///< per run (one-shot) or per job
  TrafficTotals build_traffic;        ///< collectives: the run or the build
  double job_service_ms = 0;
  double serve_queue_ms = 0;
};

void report_layers(const LayerContext& c, MetricList& out) {
  const std::vector<LayerRow>& rows = c.rows;
  const std::vector<LayerRow>& build =
      c.build_rows.empty() ? rows : c.build_rows;
  auto med = [&rows](Field f) { return median_of(rows, f); };
  auto exact = [&rows](Field f) { return mean_of(rows, f); };
  using R = LayerRow;

  out.add("pipeline.load_balance_s", med(&R::load_balance_s), "s");
  out.add("pipeline.build_spectrum_s", median_of(build, &R::build_spectrum_s),
          "s");
  out.add("pipeline.correct_s", med(&R::correct_s), "s");
  out.add("pipeline.merge_s", med(&R::merge_s), "s");
  out.add("pipeline.overhead_vs_sequential",
          ratio(c.untraced_correct_s, c.sequential_s), "ratio");
  out.add("pipeline.trace_overhead_frac",
          ratio(med(&R::wall_s), c.untraced_wall_s) - 1.0, "ratio");
  out.add("pipeline.unattributed_frac", med(&R::unattributed_frac), "ratio");

  out.add("seq.next_chunk_s", med(&R::next_chunk_s), "s");
  out.add("seq.parse_mb_per_s", med(&R::parse_mb_per_s), "MB/s");

  out.add("core.extract_s", median_of(build, &R::extract_s), "s");
  out.add("core.corrector_self_s", med(&R::corrector_self_s), "s");
  out.add("core.tile_lookups_per_read",
          ratio(exact(&R::tile_lookups), exact(&R::reads)), "lookups/read");
  out.add("core.sequential_s", c.sequential_s, "s");

  out.add("hash.local_lookups", exact(&R::local_calls), "count");
  out.add("hash.local_lookup_ns", med(&R::local_lookup_ns), "ns");
  out.add("hash.spectrum_bytes_max_rank", c.spectrum_bytes, "bytes");
  out.add("hash.filter_bytes", exact(&R::filter_bytes), "bytes");

  out.add("rtm.p2p_rtt_us", c.rtt_us, "us");
  out.add("rtm.sent_msgs", c.traffic.msgs, "count");
  out.add("rtm.sent_bytes", c.traffic.bytes, "bytes");
  out.add("rtm.collective_calls", c.build_traffic.collective_calls, "count");
  out.add("rtm.collective_bytes", c.build_traffic.collective_bytes, "bytes");
  out.add("rtm.largest_msg_bytes", c.traffic.largest, "bytes");

  const double remote = exact(&R::remote_lookups);
  const double hits = exact(&R::prefetch_hits);
  const double probes = hits + exact(&R::prefetch_misses);
  const double neg = exact(&R::filter_neg_hits);
  const double absent = neg + exact(&R::filter_fp);
  out.add("parallel.remote_lookups", remote, "count");
  out.add("parallel.remote_lookups_per_read", ratio(remote, exact(&R::reads)),
          "lookups/read");
  out.add("parallel.wire_lookup_us_p50", c.wire.quantile_ns(0.50) * 1e-3, "us");
  out.add("parallel.wire_lookup_us_p99", c.wire.quantile_ns(0.99) * 1e-3, "us");
  out.add("parallel.wire_blocked_frac", med(&R::wire_blocked_frac), "ratio");
  out.add("parallel.exchange_s", median_of(build, &R::exchange_s), "s");
  out.add("parallel.prefetch_s", med(&R::prefetch_s), "s");
  out.add("parallel.batch_requests", exact(&R::batch_requests), "count");
  out.add("parallel.prefetch_hits", hits, "count");
  out.add("parallel.prefetch_probes", probes, "count");
  out.add("parallel.prefetch_hit_ratio", ratio(hits, probes), "ratio");
  out.add("parallel.filter_neg_hits", neg, "count");
  out.add("parallel.filter_absent_probes", absent, "count");
  out.add("parallel.filter_fp_ratio", ratio(absent - neg, absent), "ratio");
  out.add("parallel.service_requests_served", exact(&R::served), "count");
  out.add("parallel.job_service_ms", c.job_service_ms, "ms");
  out.add("parallel.serve_queue_ms", c.serve_queue_ms, "ms");
}

void oneshot_traced(const Options& o, const OneShot& w, MetricList& out,
                   Tally& tally) {
  const parallel::DistResult warm = run_untraced(w);
  tally.check(warm.corrected, w.reference, degraded(warm.ranks));

  // The reference correction time, re-measured in this process.
  std::vector<double> sequential = {w.reference_correct_s};
  const int extra = o.smoke || o.workload == "replicated-files-4r" ? 1 : 5;
  for (int i = 0; i < extra; ++i) {
    sequential.push_back(
        core::run_sequential(w.data.reads, w.config.params).correct_seconds);
  }

  LayerContext c;
  c.sequential_s = median(sequential);
  c.rtt_us = p2p_rtt_us(o.smoke ? 200 : 2000);
  std::vector<RankTrace> traces;
  std::vector<double> untraced_walls, untraced_correct, service, queue;
  std::uint64_t run_id = 1;
  const stats::Stopwatch phase;
  while (c.rows.empty() || phase.seconds() < o.seconds) {
    const stats::Stopwatch clock;
    const parallel::DistResult program = run_untraced(w);
    untraced_walls.push_back(clock.seconds());
    untraced_correct.push_back(program.max_correct_seconds());
    tally.check(program.corrected, w.reference, degraded(program.ranks));

    const TracedRun traced =
        run_traced_oneshot(w.input, w.config, traces, run_id++);
    tally.check(traced.corrected, w.reference, degraded(traced.ranks));
    cross_check(traced, program.ranks, sent_msgs(traced.ranks),
                sent_msgs(program.ranks), /*spans_cover_wall=*/true, tally);
    for (const LayerCounters& counters : traced.counters) {
      c.wire.merge(counters.tier(Tier::kWire).latency);
    }
    c.rows.push_back(summarize(traced));
    const LayerRow& row = c.rows.back();
    service.push_back(row.root_s * 1e3);
    queue.push_back((row.wall_s - row.root_s - row.merge_root_s) * 1e3);
    if (c.rows.size() == 1) {
      c.traffic = traffic_totals(traced.ranks);
      c.build_traffic = c.traffic;
      for (const parallel::RankReport& r : traced.ranks) {
        c.spectrum_bytes = std::max(
            c.spectrum_bytes,
            static_cast<double>(r.footprint_after_construction.bytes));
      }
    }
  }
  c.untraced_wall_s = median(untraced_walls);
  c.untraced_correct_s = median(untraced_correct);
  c.job_service_ms = median(service);
  c.serve_queue_ms = median(queue);
  std::printf("%zu traced and %zu untraced runs of %zu reads\n", c.rows.size(),
              untraced_walls.size(), w.reference.size());
  report_layers(c, out);
  if (!o.trace_out.empty() && !write_trace(o.trace_out.string(), traces)) {
    tally.require(false, "cannot write " + o.trace_out.string());
  }
}

// --- serve workload ----------------------------------------------------------

struct Serve {
  parallel::DistConfig config;
  Reads build;
  std::vector<Reads> pool;       ///< job inputs (held-out reads)
  std::vector<Reads> reference;  ///< per pool entry
  std::vector<double> sequential_s;  ///< per pool entry: reference correction
  double gain = 0;
};

/// Untimed set-up: a replica split into build reads and a pool of held-out
/// job inputs; the reference is the sequential corrector over a LocalSpectrum
/// of the build reads. The pool is 200-read slices from the end of the file
/// that miss the error-burst regions. A burst job takes 5-15x longer (its HD2
/// candidates are not prefetched) by an amount that varies between seeds, so
/// burst jobs would make the latency figures unsteady; paper-base-2r carries
/// the candidate path instead.
std::unique_ptr<Serve> make_serve(const Options& o) {
  auto w = std::make_unique<Serve>();
  w->config = base_config(2);
  w->config.heuristics.batch_lookups = true;
  w->config.heuristics.filter_lookups = true;
  // A 0.1 % filter keeps false-positive round trips, whose number depends
  // on which hot candidate IDs the hash happens to admit, a minor cost.
  w->config.heuristics.filter_fp_rate = 0.001;
  const std::size_t build_reads = o.smoke ? 2000 : 20000;
  const std::size_t jobs = o.smoke ? 4 : 40;
  const std::size_t job_reads = o.smoke ? 50 : 200;
  const seq::SyntheticDataset data =
      ecoli_replica(build_reads + jobs * job_reads, o.seed);
  const std::size_t n = data.reads.size();
  const seq::IlluminaErrorModel errors(replica_errors(), n);

  // Walk slices back from the end of the file, skipping burst regions.
  std::vector<bool> in_pool(n, false);
  std::vector<std::size_t> starts;
  for (std::size_t end = n; end >= job_reads && starts.size() < jobs;
       end -= job_reads) {
    const std::size_t begin = end - job_reads;
    if (errors.in_burst(begin) || errors.in_burst(end - 1)) continue;
    starts.push_back(begin);
    for (std::size_t i = begin; i < end; ++i) in_pool[i] = true;
  }
  if (starts.size() != jobs) throw std::logic_error("serve pool too small");
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_pool[i]) w->build.push_back(data.reads[i]);
  }

  core::LocalSpectrum spectrum(w->config.params);
  for (const seq::Read& r : w->build) spectrum.add_read(r.bases);
  spectrum.prune();
  const core::TileCorrector corrector(w->config.params);
  Reads observed, corrected;
  std::vector<std::string> truth;
  for (const std::size_t begin : starts) {
    const auto first = data.reads.begin() + static_cast<std::ptrdiff_t>(begin);
    Reads job(first, first + static_cast<std::ptrdiff_t>(job_reads));
    Reads fixed = job;
    const stats::Stopwatch clock;
    for (seq::Read& r : fixed) corrector.correct(r, spectrum);
    w->sequential_s.push_back(clock.seconds());
    observed.insert(observed.end(), job.begin(), job.end());
    corrected.insert(corrected.end(), fixed.begin(), fixed.end());
    const auto t = data.truth.begin() + static_cast<std::ptrdiff_t>(begin);
    truth.insert(truth.end(), t, t + static_cast<std::ptrdiff_t>(job_reads));
    w->pool.push_back(std::move(job));
    w->reference.push_back(std::move(fixed));
  }
  w->gain = stats::score_correction(observed, corrected, truth).gain();
  return w;
}

/// One closed-loop job: submit, wait, check. Returns the client latency.
double serve_one(parallel::CorrectionServer& server, const Serve& w,
                 std::size_t content, parallel::JobReport& report,
                 Tally& tally) {
  parallel::JobRequest request;
  request.reads = w.pool[content];
  const stats::Stopwatch clock;
  std::future<parallel::JobReport> done = server.submit(std::move(request));
  report = done.get();
  const double latency = clock.seconds();
  tally.check(report.corrected, w.reference[content], report.degraded);
  return latency;
}

void serve_end_to_end(const Options& o, const Serve& w, MetricList& out,
                     Tally& tally) {
  // Set-up time: the constructor builds the spectrum; the last server stays.
  std::vector<double> setups;
  std::unique_ptr<parallel::CorrectionServer> server;
  for (int i = 0; i < 5; ++i) {
    if (server) server->shutdown();
    server.reset();
    const stats::Stopwatch clock;
    server = std::make_unique<parallel::CorrectionServer>(w.build, w.config, 1);
    setups.push_back(clock.seconds());
  }
  parallel::JobReport report;
  for (std::size_t i = 0; i < w.pool.size(); ++i) {  // warm-up pass, untimed
    serve_one(*server, w, i, report, tally);
  }

  // The timed phase runs whole passes over the pool, each job once in pool
  // order, so every pass holds the same job mix. Peak RSS is read after a
  // fixed number of passes: the server's footprint grows with every job it
  // serves, so a time-bounded reading would track throughput.
  constexpr std::size_t kRssPasses = 10;
  std::vector<double> latencies, pass_wall, pass_rate;
  double rss = 0;
  reset_peak_rss();
  const stats::Stopwatch phase;
  while (pass_wall.size() < 3 || phase.seconds() < o.seconds) {
    double busy = 0;
    std::size_t reads = 0;
    for (std::size_t content = 0; content < w.pool.size(); ++content) {
      latencies.push_back(serve_one(*server, w, content, report, tally));
      busy += latencies.back();
      reads += w.pool[content].size();
    }
    pass_wall.push_back(busy / static_cast<double>(w.pool.size()));
    pass_rate.push_back(static_cast<double>(reads) / busy);
    if (pass_wall.size() == kRssPasses) rss = peak_rss_mb();
  }
  if (pass_wall.size() < kRssPasses) rss = peak_rss_mb();
  server->shutdown();
  const double p90 = quantile(latencies, 0.9);
  std::size_t beyond = 0;
  for (double l : latencies) beyond += l > p90 ? 1 : 0;
  std::printf("%zu timed jobs (%zu passes) of %zu reads, %zu beyond p90\n",
              latencies.size(), pass_wall.size(), w.pool.front().size(),
              beyond);
  std::printf("job latency ms:");
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99}) {
    std::printf(" p%g %.2f", q * 100, quantile(latencies, q) * 1e3);
  }
  std::printf("\n");
  out.add("setup_s", median(setups), "s");
  out.add("wall_s", median(pass_wall), "s");
  out.add("reads_per_s", median(pass_rate), "reads/s");
  out.add("job_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
  out.add("job_p90_ms", p90 * 1e3, "ms");
  out.add("peak_rss_mb", rss, "MB");
  out.add("correction_gain", w.gain, "ratio");
}

void serve_traced(const Options& o, const Serve& w, MetricList& out,
                 Tally& tally) {
  // Jobs run in a fixed order: pool entry 0 as a warm-up, then every entry
  // once. Job k's message count is the traffic between job k-1's and job
  // k's end-of-job snapshots, so only jobs with a predecessor compare.
  std::vector<const Reads*> order = {&w.pool[0]};
  for (const Reads& job : w.pool) order.push_back(&job);
  auto job_msgs = [](const std::vector<parallel::RankReport>& prev,
                     const std::vector<parallel::RankReport>& cur) {
    std::vector<std::uint64_t> out;
    for (std::size_t r = 0; r < cur.size(); ++r) {
      out.push_back(cur[r].traffic.sent_msgs() - prev[r].traffic.sent_msgs());
    }
    return out;
  };

  LayerContext c;
  c.sequential_s = median(w.sequential_s);
  c.rtt_us = p2p_rtt_us(o.smoke ? 200 : 2000);
  std::vector<RankTrace> traces;
  std::vector<double> untraced_seconds, untraced_correct, service, queue;
  std::uint64_t run_id = 1;
  const stats::Stopwatch phase;
  while (c.rows.empty() || phase.seconds() < o.seconds) {
    // The program: a CorrectionServer over the same build, same job order.
    std::vector<parallel::JobReport> program(order.size());
    {
      parallel::CorrectionServer server(w.build, w.config, 1);
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t content = k == 0 ? 0 : k - 1;
        const double latency = serve_one(server, w, content, program[k], tally);
        if (k == 0) continue;
        untraced_seconds.push_back(program[k].seconds);
        queue.push_back((latency - program[k].seconds) * 1e3);
        service.push_back(program[k].seconds * 1e3);
        double correct = 0;
        for (const parallel::RankReport& r : program[k].ranks) {
          correct = std::max(correct, r.correct_seconds);
        }
        untraced_correct.push_back(correct);
      }
      server.shutdown();
    }

    const TracedServer traced =
        run_traced_server(w.build, order, w.config, traces, run_id);
    run_id += order.size() + 1;
    const bool first_pass = c.build_rows.empty();
    c.build_rows.push_back(summarize(traced.build));
    std::vector<LayerRow> pass;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const TracedRun& job = traced.jobs[k];
      const std::size_t content = k == 0 ? 0 : k - 1;
      tally.check(job.corrected, w.reference[content], degraded(job.ranks));
      if (k == 0) continue;
      cross_check(job, program[k].ranks,
                  job_msgs(traced.jobs[k - 1].ranks, job.ranks),
                  job_msgs(program[k - 1].ranks, program[k].ranks),
                  /*spans_cover_wall=*/false, tally);
      for (const LayerCounters& counters : job.counters) {
        c.wire.merge(counters.tier(Tier::kWire).latency);
      }
      pass.push_back(summarize(job));
      if (first_pass) {
        const TrafficTotals t = traffic_totals(job.ranks);
        const TrafficTotals before = traffic_totals(traced.jobs[k - 1].ranks);
        const auto pool = static_cast<double>(w.pool.size());
        c.traffic.msgs += (t.msgs - before.msgs) / pool;
        c.traffic.bytes += (t.bytes - before.bytes) / pool;
        c.traffic.largest = std::max(c.traffic.largest, t.largest);
      }
    }
    if (first_pass) {
      c.build_traffic = traffic_totals(traced.build.ranks);
      for (const parallel::RankReport& r : traced.build.ranks) {
        c.spectrum_bytes = std::max(
            c.spectrum_bytes,
            static_cast<double>(r.footprint_after_construction.bytes));
      }
    }
    c.rows.insert(c.rows.end(), pass.begin(), pass.end());
  }
  c.untraced_wall_s = median(untraced_seconds);
  c.untraced_correct_s = median(untraced_correct);
  c.job_service_ms = median(service);
  c.serve_queue_ms = median(queue);
  std::printf("%zu traced and %zu untraced jobs of %zu reads\n", c.rows.size(),
              untraced_seconds.size(), w.pool.front().size());
  report_layers(c, out);
  if (!o.trace_out.empty() && !write_trace(o.trace_out.string(), traces)) {
    tally.require(false, "cannot write " + o.trace_out.string());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  MetricList metrics;
  Tally tally;
  // The 2-rank workloads are chains of request/reply hand-offs. Across
  // vCPUs of a shared VM host, each hand-off waits until the hypervisor runs
  // the peer's vCPU, and that moved their wall time up to 4x between runs of
  // the same code. On one CPU the rank threads hand off by yielding, and the
  // time measured is the program's own work.
  if (o.workload != "replicated-files-4r") {
    const int cpu = pin_to_one_cpu();
    if (cpu < 0) {
      std::fprintf(stderr, "perfbench: cannot pin to one CPU; the times "
                           "will depend on the host's load\n");
    } else {
      std::printf("pinned to CPU %d\n", cpu);
    }
  }
  try {
    const stats::Stopwatch clock;
    if (o.workload == "serve-filtered-2r") {
      const auto w = make_serve(o);
      std::printf("set-up (untimed): %.2f s\n", clock.seconds());
      if (o.trace) {
        serve_traced(o, *w, metrics, tally);
      } else {
        serve_end_to_end(o, *w, metrics, tally);
      }
    } else {
      const auto w = make_oneshot(o);
      std::printf("set-up (untimed): %.2f s\n", clock.seconds());
      if (o.trace) {
        oneshot_traced(o, *w, metrics, tally);
      } else {
        oneshot_end_to_end(o, *w, metrics, tally);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s (seed %llu, %s):\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  metrics.print_table();
  for (const std::string& v : tally.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (tally.failed > 0) {
    std::printf("MISMATCH: %llu of %llu reads differ from the reference\n",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
  }
  metrics.print_result(tally.correct(), tally.attempted, tally.failed);
  return tally.correct() ? 0 : 1;
}
