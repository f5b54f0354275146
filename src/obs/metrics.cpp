#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/phase_timeline.hpp"

namespace reptile::obs {

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(n) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += bucket_count(b);
    if (cumulative >= target) {
      // The true sample is somewhere in [2^b, 2^(b+1)); report the upper
      // bound, clamped to the largest sample actually seen.
      return std::min(bucket_upper(b), max());
    }
  }
  return max();
}

Registry& Registry::global() {
  static auto* registry = new Registry;  // leaky, mirrors Tracer::instance
  return *registry;
}

void Registry::configure(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  // mo: relaxed — configure() runs between runs; the thread spawn orders
  // the flag for every later instrument user.
  enabled_.store(enabled, std::memory_order_relaxed);
}

template <typename T>
T* Registry::find_or_add(std::vector<Entry<T>>& entries, std::string_view name,
                         int rank, std::int64_t job, std::string_view label) {
  for (auto& entry : entries) {
    if (entry.rank == rank && entry.job == job && entry.name == name &&
        entry.label == label) {
      return entry.value.get();
    }
  }
  entries.push_back(Entry<T>{std::string(name), rank, job, std::string(label),
                             std::make_unique<T>()});
  return entries.back().value.get();
}

Counter* Registry::counter(std::string_view name, int rank, std::int64_t job) {
  if (!enabled()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(counters_, name, rank, job);
}

Gauge* Registry::gauge(std::string_view name, int rank, std::int64_t job) {
  if (!enabled()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name, rank, job);
}

Histogram* Registry::histogram(std::string_view name, int rank,
                               std::int64_t job) {
  if (!enabled()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(histograms_, name, rank, job);
}

Gauge* Registry::gauge_labelled(std::string_view name, std::string_view label) {
  if (!enabled()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name, -1, -1, label);
}

void Registry::publish_timeline(const stats::PhaseTimeline& t, int rank,
                                std::int64_t job) {
  if (!enabled()) {
    return;
  }
  // A zero counter stays unregistered; gauges are always set.
  stats::for_each_counter(
      [&](const auto& row, const auto& value) {
        if (row.kind == stats::CounterKind::kGauge) {
          gauge(row.metric, rank, job)->set(static_cast<double>(value));
        } else if (value != 0) {
          counter(row.metric, rank, job)
              ->add(static_cast<std::uint64_t>(value));
        }
      },
      t);
  // Derived and footprint values, which have no row of their own.
  if (const std::uint64_t ids = t.remote.batch_ids(); ids != 0) {
    counter("reptile_batch_ids", rank, job)->add(ids);
  }
  gauge("reptile_spectrum_bytes", rank, job)
      ->set(static_cast<double>(t.footprint_after_construction.bytes));
  gauge("reptile_filter_bytes", rank, job)
      ->set(static_cast<double>(t.footprint_after_correction.filter_bytes));
}

namespace {

void append_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void append_label(std::string& out, int rank, std::int64_t job,
                  const std::string& label = {}) {
  if (rank < 0 && job < 0 && label.empty()) {
    return;
  }
  out += '{';
  bool first = true;
  if (!label.empty()) {
    out += label;
    first = false;
  }
  if (rank >= 0) {
    if (!first) {
      out += ',';
    }
    out += "rank=\"" + std::to_string(rank) + "\"";
    first = false;
  }
  if (job >= 0) {
    if (!first) {
      out += ',';
    }
    out += "job=\"" + std::to_string(job) + "\"";
  }
  out += '}';
}

void append_bucket_label(std::string& out, int rank, std::int64_t job,
                         const std::string& le) {
  out += "{";
  if (rank >= 0) {
    out += "rank=\"" + std::to_string(rank) + "\",";
  }
  if (job >= 0) {
    out += "job=\"" + std::to_string(job) + "\",";
  }
  out += "le=\"" + le + "\"}";
}

}  // namespace

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;

  // Group by name so each `# TYPE` header appears once; entries are stored
  // in registration order, so sort a view by (name, rank).
  const auto sorted_view = [](const auto& entries) {
    std::vector<const typename std::decay_t<decltype(entries)>::value_type*>
        view;
    view.reserve(entries.size());
    for (const auto& entry : entries) {
      view.push_back(&entry);
    }
    std::sort(view.begin(), view.end(), [](const auto* a, const auto* b) {
      if (a->name != b->name) return a->name < b->name;
      if (a->label != b->label) return a->label < b->label;
      if (a->rank != b->rank) return a->rank < b->rank;
      return a->job < b->job;
    });
    return view;
  };

  const char* previous = nullptr;
  for (const auto* entry : sorted_view(counters_)) {
    if (previous == nullptr || entry->name != previous) {
      out += "# TYPE " + entry->name + " counter\n";
      previous = entry->name.c_str();
    }
    out += entry->name;
    append_label(out, entry->rank, entry->job, entry->label);
    out += ' ';
    out += std::to_string(entry->value->value());
    out += '\n';
  }
  previous = nullptr;
  for (const auto* entry : sorted_view(gauges_)) {
    if (previous == nullptr || entry->name != previous) {
      out += "# TYPE " + entry->name + " gauge\n";
      previous = entry->name.c_str();
    }
    out += entry->name;
    append_label(out, entry->rank, entry->job, entry->label);
    out += ' ';
    append_double(out, entry->value->value());
    out += '\n';
  }
  previous = nullptr;
  for (const auto* entry : sorted_view(histograms_)) {
    if (previous == nullptr || entry->name != previous) {
      out += "# TYPE " + entry->name + " histogram\n";
      previous = entry->name.c_str();
    }
    const Histogram& h = *entry->value;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t in_bucket = h.bucket_count(b);
      if (in_bucket == 0) {
        continue;  // log2 buckets are sparse; elide empties
      }
      cumulative += in_bucket;
      out += entry->name + "_bucket";
      append_bucket_label(out, entry->rank, entry->job,
                          std::to_string(Histogram::bucket_upper(b)));
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    }
    out += entry->name + "_bucket";
    append_bucket_label(out, entry->rank, entry->job, "+Inf");
    out += ' ';
    out += std::to_string(h.count());
    out += '\n';
    out += entry->name + "_sum";
    append_label(out, entry->rank, entry->job, entry->label);
    out += ' ';
    out += std::to_string(h.sum());
    out += '\n';
    out += entry->name + "_count";
    append_label(out, entry->rank, entry->job, entry->label);
    out += ' ';
    out += std::to_string(h.count());
    out += '\n';
  }
  return out;
}

std::vector<HistogramSummary> Registry::histogram_summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramSummary> out;
  out.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.value;
    out.push_back({entry.name, entry.rank, entry.job, h.count(), h.sum(),
                   h.max(), h.quantile(0.5), h.quantile(0.99)});
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSummary& a, const HistogramSummary& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.job < b.job;
            });
  return out;
}

HistogramSummary Registry::histogram_summary(std::string_view name, int rank,
                                             std::int64_t job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : histograms_) {
    if (entry.rank == rank && entry.job == job && entry.name == name) {
      const Histogram& h = *entry.value;
      return {entry.name, entry.rank,      entry.job,       h.count(),
              h.sum(),    h.max(),         h.quantile(0.5), h.quantile(0.99)};
    }
  }
  HistogramSummary none;
  none.name = std::string(name);
  none.rank = rank;
  none.job = job;
  return none;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace reptile::obs
