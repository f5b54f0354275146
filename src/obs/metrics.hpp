#pragma once
// reptile-obs metrics registry: named counters, gauges and log2-bucket
// latency histograms behind one seam.
//
// The pipeline's existing per-phase counters (stats::LookupStats /
// RemoteLookupStats / ServiceStats) stay where they are — they are plain
// per-thread struct increments and already race-free. The registry adds
// what those cannot express:
//
//   * latency *distributions* (lookup RTT, mailbox wait, stage duration)
//     with fixed log2 buckets, so p50/p99 survive aggregation, and
//   * one uniform, named, rank-labelled view of everything, rendered as a
//     Prometheus-style text dump and as extra stats::RunReport columns.
//
// `publish_timeline()` is the single bridge that mirrors the struct
// counters into the registry at harvest time, so no hot-path increment is
// ever duplicated.
//
// Overhead contract: when metrics are disabled, `Registry::histogram()`
// etc. return nullptr; call sites cache the pointer per chunk/loop and the
// per-event cost is a null check. When enabled, one record() is a handful
// of relaxed atomic RMWs (bucket + count + sum + max).

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace reptile::stats {
struct PhaseTimeline;  // bridge target; defined in stats/phase_timeline.hpp
}  // namespace reptile::stats

namespace reptile::obs {

class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    // mo: relaxed — a statistic; no payload is published through it, and
    // readers harvest after the run's join.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    // mo: relaxed — statistics read, see add().
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) noexcept {
    // mo: relaxed — a statistic; see Counter::add().
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    // mo: relaxed — statistics read.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram with fixed log2 buckets: bucket b counts samples in
/// [2^b, 2^(b+1)) (bucket 0 additionally holds 0). Unit-agnostic; by
/// convention the registry's latency histograms record microseconds.
/// Thread-safe: record() is relaxed atomics only, so worker/service
/// threads share one histogram without coordination.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;  // covers [0, 2^40) ~ 12 days in us

  void record(std::uint64_t sample) noexcept {
    // mo: relaxed throughout — each field is an independent statistic;
    // cross-field exactness only matters after the recording threads have
    // quiesced (the reader holds the run's join edge).
    buckets_[bucket_index(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);  // mo: same as above
    sum_.fetch_add(sample, std::memory_order_relaxed);  // mo: same as above
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    // mo: relaxed CAS — hwm maintenance, same statistics argument.
    while (prev < sample &&
           !max_.compare_exchange_weak(prev, sample,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    // mo: relaxed — statistics read, see record().
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    // mo: relaxed — statistics read, see record().
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    // mo: relaxed — statistics read, see record().
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  std::uint64_t bucket_count(std::size_t index) const noexcept {
    // mo: relaxed — statistics read, see record().
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Upper bound of the log2 bucket holding quantile `q` (0 < q <= 1) —
  /// an upper estimate, never below the true quantile's bucket.
  std::uint64_t quantile(double q) const noexcept;

  static std::size_t bucket_index(std::uint64_t sample) noexcept {
    if (sample < 2) {
      return sample;  // 0 -> bucket 0, 1 -> bucket 1
    }
    const auto log2 = static_cast<std::size_t>(std::bit_width(sample)) - 1;
    return log2 >= kBuckets ? kBuckets - 1 : log2;
  }

  /// Inclusive upper bound of bucket `index` (2^(index+1) - 1).
  static std::uint64_t bucket_upper(std::size_t index) noexcept {
    return index + 1 >= 64 ? std::uint64_t(-1)
                           : (std::uint64_t{1} << (index + 1)) - 1;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Compact summary of one histogram, for report columns and tests.
struct HistogramSummary {
  std::string name;
  int rank = -1;
  std::int64_t job = -1;  ///< serve-mode job id; -1 = not job-scoped
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
};

/// Process-wide registry of named, rank-labelled instruments. Lookup
/// (`counter()`/`gauge()`/`histogram()`) takes a mutex and returns a
/// stable pointer — cache it outside loops; when the registry is disabled
/// the lookup returns nullptr and recording costs one branch.
class Registry {
 public:
  static Registry& global();

  /// Enables/disables the registry for the coming run; disabling clears
  /// every instrument (a run owns its metrics, mirroring Tracer).
  void configure(bool enabled);
  bool enabled() const noexcept {
    // mo: relaxed — configure() runs between runs, before any instrument
    // user exists; the thread spawn provides the ordering.
    return enabled_.load(std::memory_order_relaxed);
  }

  /// rank < 0 registers an unlabelled (process-wide) instrument; job >= 0
  /// additionally scopes the instrument to one serve-mode job, so a
  /// resident server's per-job counters stay attributable after N jobs.
  Counter* counter(std::string_view name, int rank = -1,
                   std::int64_t job = -1);
  Gauge* gauge(std::string_view name, int rank = -1, std::int64_t job = -1);
  Histogram* histogram(std::string_view name, int rank = -1,
                       std::int64_t job = -1);

  /// Gauge carrying a pre-rendered extra label (`account="count_table"`),
  /// merged before rank/job in the exposition — the ledger's
  /// reptile_ledger_bytes{account=...} family uses this.
  Gauge* gauge_labelled(std::string_view name, std::string_view label);

  /// Mirrors one rank's harvested stats::PhaseTimeline into the registry:
  /// one instrument per counter-table row, plus reptile_batch_ids and the
  /// footprint gauges. job >= 0 publishes the counters under the (rank,
  /// job) pair (serve mode); -1 keeps the one-shot rank-only labelling.
  void publish_timeline(const stats::PhaseTimeline& timeline, int rank,
                        std::int64_t job = -1);

  /// Prometheus text exposition (`# TYPE` comments, `{rank="N"}` /
  /// `{rank="N",job="J"}` labels, `_bucket{le=...}` per histogram) of
  /// every instrument.
  std::string prometheus_text() const;

  /// Summaries of every histogram, sorted by (name, rank, job).
  std::vector<HistogramSummary> histogram_summaries() const;

  /// Summary of one (name, rank[, job]) histogram; count==0 when absent.
  HistogramSummary histogram_summary(std::string_view name, int rank,
                                     std::int64_t job = -1) const;

  /// Number of registered instruments (tests; 0 when disabled).
  std::size_t size() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    int rank;
    std::int64_t job;   ///< -1 = not job-scoped
    std::string label;  ///< pre-rendered extra label ("" = none)
    std::unique_ptr<T> value;
  };

  template <typename T>
  T* find_or_add(std::vector<Entry<T>>& entries, std::string_view name,
                 int rank, std::int64_t job, std::string_view label = {});

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

}  // namespace reptile::obs
