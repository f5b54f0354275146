#pragma once
// The unified report core shared by every pipeline driver.
//
// One run produces one report per rank (or one total, sequentially); before
// this header existed each driver hand-copied the same timing/counter fields
// into its own result struct (core::SequentialResult,
// parallel::RankReport, parallel::BaselineRankReport) and re-implemented the
// same max/total reductions over them. PhaseTimeline is the single struct
// all three now inherit: per-stage wall time, the peak construction
// footprint sampled per chunk, and the lookup/remote/service counters the
// paper's figures are built from. It is also the instrumentation seam the
// perfmodel calibration and the per-rank report tables read.
//
// The counter structs below (LookupStats, RemoteLookupStats, ServiceStats,
// SpectrumFootprint) historically lived in core/ and parallel/; they are
// pure counters with no dependencies, so they moved down here and the old
// namespaces re-export them under their original names.
//
// Each scalar counter and gauge of those structs and of PhaseTimeline is a
// row of its struct's `counters()` table: the field, its Prometheus metric,
// its RunReport column and its kind. operator+=, publish_timeline and
// to_report are generated from the tables, so adding a counter means adding
// its field and one row; the static_assert under each struct enforces it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace reptile::stats {

// --- the counter table ------------------------------------------------------

/// A row's kind is also its merge rule: a counter counts events, so merging
/// partial reports sums it; a gauge is a level (a wall time, a peak
/// footprint), so merging keeps the maximum. Prometheus exposes each as such.
enum class CounterKind { kCounter, kGauge };

/// One scalar field of S with its names in every output.
template <class S, class T>
struct CounterRow {
  T S::*field;
  const char* metric;  ///< Prometheus name, "reptile_..."
  const char* column;  ///< RunReport column
  CounterKind kind;
};

/// Splices the whole table of a nested counter struct into S's table.
template <class S, class Sub>
struct NestedRows {
  Sub S::*field;
};

/// Every metric is named "reptile_<name>"; a row's report column is <name>
/// unless the row gives another one.
inline constexpr std::size_t kMetricPrefix = sizeof("reptile_") - 1;

template <class S, class T>
constexpr CounterRow<S, T> counter(T S::*field, const char* metric,
                                   const char* column = nullptr) {
  return {field, metric, column != nullptr ? column : metric + kMetricPrefix,
          CounterKind::kCounter};
}

template <class S, class T>
constexpr CounterRow<S, T> gauge(T S::*field, const char* metric) {
  return {field, metric, metric + kMetricPrefix, CounterKind::kGauge};
}

/// Calls `f(row, s.*row.field, more.*row.field...)` for every scalar row of
/// S's table in declaration order, descending into nested tables. `S` may
/// be const, or derived from the struct that declares the table.
template <class F, class S, class... More>
constexpr void for_each_counter(F&& f, S& s, More&... more) {
  const auto visit = [&](const auto& row) {
    if constexpr (requires { row.metric; }) {
      f(row, s.*row.field, more.*row.field...);
    } else {
      for_each_counter(f, s.*row.field, more.*row.field...);
    }
  };
  std::apply([&](const auto&... row) { (visit(row), ...); },
             std::remove_const_t<S>::counters());
}

/// Folds a partial report into `into` row by row: counters add, gauges
/// keep the maximum, members outside the table are left alone.
template <class S>
  requires requires { S::counters(); }
constexpr S& operator+=(S& into, const S& from) {
  for_each_counter(
      [](const auto& row, auto& a, const auto& b) {
        a = row.kind == CounterKind::kCounter ? a + b : std::max(a, b);
      },
      into, from);
  return into;
}

/// What `now` counted since the snapshot `before` (gauges keep `now`'s
/// level).
template <class S>
constexpr S counters_since(S now, const S& before) {
  for_each_counter(
      [](const auto& row, auto& a, const auto& b) {
        if (row.kind == CounterKind::kCounter) a -= b;
      },
      now, before);
  return now;
}

namespace detail {
/// Converts to any member type; only used unevaluated, to count the
/// members of an aggregate by brace-initializing it.
struct AnyMember {
  template <class T>
  operator T() const;
};

template <class S, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { S{A{}..., AnyMember{}}; }) {
    return member_count<S, A..., AnyMember>();
  }
  return sizeof...(A);
}
}  // namespace detail

/// True when S's table has one entry per member of S, apart from
/// `outside` members that are deliberately not counters.
template <class S>
constexpr bool table_covers(std::size_t outside = 0) {
  return std::tuple_size_v<decltype(S::counters())> + outside ==
         detail::member_count<S>();
}

// --- the report core --------------------------------------------------------

/// Lookup-side instrumentation. The paper's evaluation hinges on these
/// counters (remote tile lookups per rank, misses on non-existent tiles).
struct LookupStats {
  std::uint64_t kmer_lookups = 0;
  std::uint64_t kmer_misses = 0;  ///< lookups that found no entry
  std::uint64_t tile_lookups = 0;
  std::uint64_t tile_misses = 0;

  static constexpr auto counters() {
    using S = LookupStats;
    return std::tuple{
        counter(&S::kmer_lookups, "reptile_lookup_kmer_total", "kmer_lookups"),
        counter(&S::kmer_misses, "reptile_lookup_kmer_miss", "kmer_misses"),
        counter(&S::tile_lookups, "reptile_lookup_tile_total", "tile_lookups"),
        counter(&S::tile_misses, "reptile_lookup_tile_miss", "tile_misses"),
    };
  }
};
static_assert(table_covers<LookupStats>(), "a LookupStats field has no row");

/// Remote-side counters for one rank's correction phase.
struct RemoteLookupStats {
  std::uint64_t remote_kmer_lookups = 0;
  std::uint64_t remote_tile_lookups = 0;
  std::uint64_t remote_kmer_absent = 0;  ///< replies that said "not in spectrum"
  std::uint64_t remote_tile_absent = 0;
  std::uint64_t reads_table_hits = 0;    ///< resolved by the reads tables
  std::uint64_t group_lookups = 0;       ///< resolved by partial replication

  // batch_lookups (chunk wavefront) counters. The dedup counts are kept
  // per kind because the round dedup is per kind too (one bucket per owner
  // and kind): a numeric ID queued both as a k-mer and as a tile is two
  // distinct spectrum entries and must count in both tables — a merged
  // counter would hide a cross-kind accounting bug (regression-tested in
  // test_batch_lookup.cpp).
  std::uint64_t wavefront_rounds = 0;    ///< wavefront exchanges, all chunks
  std::uint64_t batch_requests = 0;      ///< vectored wavefront requests sent
  std::uint64_t batch_kmer_ids = 0;      ///< deduped k-mer IDs sent
  std::uint64_t batch_tile_ids = 0;      ///< deduped tile IDs sent
  std::uint64_t batch_kmer_ids_raw = 0;  ///< k-mer IDs queued, pre-dedup
  std::uint64_t batch_tile_ids_raw = 0;  ///< tile IDs queued, pre-dedup
  std::uint64_t prefetch_hits = 0;    ///< lookups answered by the chunk cache
  std::uint64_t prefetch_misses = 0;  ///< fell through the cache to scalar

  // filter_lookups extension counters.
  std::uint64_t filter_neg_hits = 0;  ///< remote lookups answered "absent"
                                      ///< locally by a peer filter
  std::uint64_t filter_false_positives = 0;  ///< filter said maybe, owner
                                             ///< replied absent (wasted trip)

  // Timeout/retry protocol counters (RetryPolicy; all 0 on fault-free runs
  // with retries disabled).
  std::uint64_t lookup_retries = 0;   ///< scalar requests retransmitted
  std::uint64_t lookup_timeouts = 0;  ///< reply waits that expired
  std::uint64_t degraded_lookups = 0; ///< scalar lookups given up after
                                      ///< max_retries (corrector skips)
  std::uint64_t stale_replies_suppressed = 0;  ///< seq-mismatched replies
  std::uint64_t malformed_replies = 0;  ///< undecodable replies discarded
  std::uint64_t batch_retries = 0;    ///< batch requests retransmitted
  std::uint64_t batch_abandoned = 0;  ///< batches given up (IDs go scalar)

  std::uint64_t remote_lookups() const noexcept {
    return remote_kmer_lookups + remote_tile_lookups;
  }

  /// Deduped IDs carried by vectored requests, both kinds.
  std::uint64_t batch_ids() const noexcept {
    return batch_kmer_ids + batch_tile_ids;
  }

  /// IDs queued for the wire before the round dedup, both kinds.
  std::uint64_t batch_ids_raw() const noexcept {
    return batch_kmer_ids_raw + batch_tile_ids_raw;
  }

  /// Average IDs per vectored request (0 when none were sent).
  double avg_batch_size() const noexcept {
    return batch_requests == 0
               ? 0.0
               : static_cast<double>(batch_ids()) /
                     static_cast<double>(batch_requests);
  }

  /// Fraction of queued IDs removed by the round deduplication.
  double dedup_ratio() const noexcept {
    return batch_ids_raw() == 0
               ? 0.0
               : 1.0 - static_cast<double>(batch_ids()) /
                           static_cast<double>(batch_ids_raw());
  }

  /// Fraction of would-be remote lookups answered by the chunk cache.
  double prefetch_hit_rate() const noexcept {
    const std::uint64_t total = prefetch_hits + prefetch_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(prefetch_hits) /
                            static_cast<double>(total);
  }

  static constexpr auto counters() {
    using S = RemoteLookupStats;
    return std::tuple{
        counter(&S::remote_kmer_lookups, "reptile_remote_kmer_lookups"),
        counter(&S::remote_tile_lookups, "reptile_remote_tile_lookups"),
        counter(&S::remote_kmer_absent, "reptile_remote_kmer_absent"),
        counter(&S::remote_tile_absent, "reptile_remote_tile_absent"),
        counter(&S::reads_table_hits, "reptile_reads_table_hits"),
        counter(&S::group_lookups, "reptile_group_lookups"),
        counter(&S::wavefront_rounds, "reptile_wavefront_rounds"),
        counter(&S::batch_requests, "reptile_batch_requests"),
        counter(&S::batch_kmer_ids, "reptile_batch_kmer_ids"),
        counter(&S::batch_tile_ids, "reptile_batch_tile_ids"),
        counter(&S::batch_kmer_ids_raw, "reptile_batch_kmer_ids_raw"),
        counter(&S::batch_tile_ids_raw, "reptile_batch_tile_ids_raw"),
        counter(&S::prefetch_hits, "reptile_prefetch_hits"),
        counter(&S::prefetch_misses, "reptile_prefetch_misses"),
        counter(&S::filter_neg_hits, "reptile_filter_neg_hits"),
        counter(&S::filter_false_positives, "reptile_filter_false_positives"),
        counter(&S::lookup_retries, "reptile_lookup_retries"),
        counter(&S::lookup_timeouts, "reptile_lookup_timeouts"),
        counter(&S::degraded_lookups, "reptile_degraded_lookups"),
        counter(&S::stale_replies_suppressed,
                "reptile_stale_replies_suppressed"),
        counter(&S::malformed_replies, "reptile_malformed_replies"),
        counter(&S::batch_retries, "reptile_batch_retries"),
        counter(&S::batch_abandoned, "reptile_batch_abandoned"),
    };
  }
};
static_assert(table_covers<RemoteLookupStats>(),
              "a RemoteLookupStats field has no row");

/// Per-service counters (the communication thread), read after the join.
struct ServiceStats {
  std::uint64_t requests_served = 0;  ///< messages answered (scalar + batch)
  std::uint64_t kmer_requests = 0;    ///< scalar k-mer requests
  std::uint64_t tile_requests = 0;    ///< scalar tile requests
  std::uint64_t probe_calls = 0;  ///< tag probes (non-universal mode only)
  std::uint64_t absent_replies = 0;   ///< -1 answers, scalar or batched
  std::uint64_t batch_requests = 0;   ///< vectored requests answered
  std::uint64_t batch_ids_served = 0; ///< IDs looked up across all batches
  /// Requests dropped unanswered because the payload was malformed (wrong
  /// size / truncated by fault injection). The requester's timeout retry
  /// recovers; answering garbage would be worse than staying silent.
  std::uint64_t malformed_requests = 0;
  /// Stall-delayed filter-exchange copies drained (discarded) at the end of
  /// the serve loop. Always 0 on fault-free runs: the exchange completes
  /// before the service starts.
  std::uint64_t filter_stragglers = 0;

  static constexpr auto counters() {
    using S = ServiceStats;
    return std::tuple{
        counter(&S::requests_served, "reptile_service_requests",
                "requests_served"),
        counter(&S::kmer_requests, "reptile_service_kmer_requests"),
        counter(&S::tile_requests, "reptile_service_tile_requests"),
        counter(&S::probe_calls, "reptile_probe_calls"),
        counter(&S::absent_replies, "reptile_service_absent_replies"),
        counter(&S::batch_requests, "reptile_service_batch_requests",
                "batch_requests_served"),
        counter(&S::batch_ids_served, "reptile_service_batch_ids"),
        counter(&S::malformed_requests, "reptile_service_malformed_requests",
                "malformed_requests"),
        counter(&S::filter_stragglers, "reptile_service_filter_stragglers"),
    };
  }
};
static_assert(table_covers<ServiceStats>(), "a ServiceStats field has no row");

/// Sizes/memory snapshot of the spectrum tables (plus replicas). Sequential
/// and baseline runs fill only the hash_* entries and bytes.
struct SpectrumFootprint {
  std::size_t hash_kmer_entries = 0;
  std::size_t hash_tile_entries = 0;
  std::size_t reads_kmer_entries = 0;
  std::size_t reads_tile_entries = 0;
  std::size_t replica_kmer_entries = 0;
  std::size_t replica_tile_entries = 0;
  std::size_t filter_bytes = 0;  ///< peer membership filters (filter_lookups)
  std::size_t bytes = 0;  ///< total table memory (filters included)
};

/// One resource-ledger account's attribution for a run (obs-free mirror of
/// obs::LedgerSnapshot; the pipeline layer fills it when the ledger is
/// armed, so stats/ stays dependency-free).
struct LedgerAccountSample {
  const char* account = "";             ///< stable snake_case account name
  std::uint64_t build_end_bytes = 0;    ///< balance when construction ended
  std::uint64_t peak_bytes = 0;         ///< high-water mark over the run
};

/// One stage's sample in a run's timeline, recorded by the stage graph.
struct StageSample {
  std::string stage;               ///< stage name, e.g. "build_spectrum"
  double seconds = 0;              ///< stage wall time
  std::size_t spectrum_bytes = 0;  ///< spectrum footprint at stage end
};

/// The shared core of every per-rank (or sequential) report: what one rank
/// measured, independent of which driver ran it.
struct PhaseTimeline {
  std::uint64_t reads_processed = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t substitutions = 0;   ///< "errors corrected" in the figures
  std::uint64_t tiles_untrusted = 0;
  std::uint64_t tiles_fixed = 0;
  /// Tiles conservatively skipped because a backing lookup degraded (gave
  /// up after timeout retries). Always 0 on fault-free runs.
  std::uint64_t tiles_degraded = 0;
  /// Reads passed through UNCORRECTED because the job's correction-phase
  /// deadline expired (serve-mode SLO). The job is marked degraded; the
  /// reads are never miscorrected. Always 0 when no deadline is set.
  std::uint64_t reads_deadline_skipped = 0;
  std::uint64_t batches = 0;  ///< construction-phase chunks processed
  /// Non-empty work-queue grants received (the dynamic prior-art baseline
  /// only; 0 everywhere else).
  std::uint64_t work_grants = 0;

  LookupStats lookups;        ///< correction-phase lookups issued
  RemoteLookupStats remote;   ///< of which remote
  ServiceStats service;       ///< requests served for other ranks

  SpectrumFootprint footprint_after_construction;
  SpectrumFootprint footprint_after_correction;
  /// Peak construction-phase footprint (sampled after each chunk; the
  /// batch-reads heuristic exists to cap exactly this).
  std::size_t construction_peak_bytes = 0;

  double construct_seconds = 0;  ///< k-mer construction wall time
  double correct_seconds = 0;    ///< error-correction wall time
  double comm_seconds = 0;       ///< of which blocked on remote replies
  /// Context switches of the correction threads (workers and the
  /// communication thread), from getrusage(RUSAGE_THREAD) deltas. They
  /// depend on the schedule, so no exact gate may list them.
  std::uint64_t correct_voluntary_switches = 0;
  std::uint64_t correct_involuntary_switches = 0;

  /// Per-stage wall times in graph order, recorded by pipeline::StageGraph.
  std::vector<StageSample> stages;

  /// Per-account resource-ledger attribution (empty unless the run armed
  /// the ledger, DistConfig::trace.ledger). The ledger is process-global,
  /// so in the in-process runtime every rank's rows carry the same values —
  /// the world-wide bill, analogous to an MPI job's per-node RSS.
  std::vector<LedgerAccountSample> ledger;
  std::uint64_t ledger_total_peak_bytes = 0;  ///< hwm of the live total
  std::uint64_t ledger_rss_peak_bytes = 0;    ///< OS cross-check (statm)

  /// The timeline slice of a derived report (assignment target for the
  /// stage graph's accumulated core).
  PhaseTimeline& timeline() noexcept { return *this; }
  const PhaseTimeline& timeline() const noexcept { return *this; }

  static constexpr auto counters() {
    using S = PhaseTimeline;
    return std::tuple{
        counter(&S::reads_processed, "reptile_reads_processed", "reads"),
        counter(&S::reads_changed, "reptile_reads_changed"),
        counter(&S::substitutions, "reptile_substitutions"),
        counter(&S::tiles_untrusted, "reptile_tiles_untrusted"),
        counter(&S::tiles_fixed, "reptile_tiles_fixed"),
        counter(&S::tiles_degraded, "reptile_tiles_degraded"),
        counter(&S::reads_deadline_skipped, "reptile_reads_deadline_skipped"),
        counter(&S::batches, "reptile_chunks_built"),
        counter(&S::work_grants, "reptile_work_grants"),
        NestedRows{&S::lookups},
        NestedRows{&S::remote},
        NestedRows{&S::service},
        gauge(&S::construction_peak_bytes, "reptile_construction_peak_bytes"),
        gauge(&S::construct_seconds, "reptile_construct_seconds"),
        gauge(&S::correct_seconds, "reptile_correct_seconds"),
        gauge(&S::comm_seconds, "reptile_comm_seconds"),
        counter(&S::correct_voluntary_switches,
                "reptile_correct_voluntary_switches"),
        counter(&S::correct_involuntary_switches,
                "reptile_correct_involuntary_switches"),
    };
  }
};
// Not counters: the two footprint snapshots, the stage samples, and the
// ledger rows with their two totals.
static_assert(table_covers<PhaseTimeline>(6),
              "a PhaseTimeline counter or gauge has no row");

/// Sum of one member over a range of report rows. `member` may point into
/// PhaseTimeline or into the derived report type itself, so the same helper
/// reduces shared fields (substitutions) and driver-specific ones
/// (chunks_granted).
template <class Range, class Row, class T>
T field_total(const Range& rows, T Row::* member) {
  T acc{};
  for (const auto& r : rows) acc += r.*member;
  return acc;
}

/// Maximum of one member over a range of report rows (zero when empty).
template <class Range, class Row, class T>
T field_max(const Range& rows, T Row::* member) {
  T best{};
  for (const auto& r : rows) {
    if (r.*member > best) best = r.*member;
  }
  return best;
}

}  // namespace reptile::stats
