#pragma once
// Flattening a distributed run into a machine-readable report.

#include "obs/metrics.hpp"
#include "parallel/dist_pipeline.hpp"
#include "stats/report.hpp"

namespace reptile::parallel {

/// One record per rank with the quantities the paper's figures track: a
/// column per counter-table row, then derived and footprint columns
/// (`spectrum_bytes` is the after-construction footprint, like the
/// reptile_spectrum_bytes gauge). When the metrics registry is enabled for
/// the run, each record also carries the latency-histogram summaries
/// (lookup RTT, batch prefetch, service handle, mailbox wait) — gated on
/// the registry rather than per-histogram presence so every rank's record
/// has the same columns (RunReport::add enforces one schema per report).
inline stats::RunReport to_report(const DistResult& result,
                                  const std::string& title) {
  const bool metrics = obs::Registry::global().enabled();
  const auto add_latency = [](stats::RunReport& rec, const std::string& column,
                              const obs::HistogramSummary& h) {
    rec.add(column + "_count", static_cast<double>(h.count))
        .add(column + "_p50_us", static_cast<double>(h.p50))
        .add(column + "_p99_us", static_cast<double>(h.p99))
        .add(column + "_max_us", static_cast<double>(h.max));
  };
  stats::RunReport report(title);
  for (const RankReport& r : result.ranks) {
    report.record().add("rank", r.rank);
    stats::for_each_counter(
        [&report](const auto& row, const auto& value) {
          report.add(row.column, static_cast<double>(value));
        },
        r);
    report.add("avg_batch_size", r.remote.avg_batch_size())
        .add("dedup_ratio", r.remote.dedup_ratio())
        .add("prefetch_hit_rate", r.remote.prefetch_hit_rate())
        .add("spectrum_bytes",
             static_cast<double>(r.footprint_after_construction.bytes))
        .add("filter_bytes",
             static_cast<double>(r.footprint_after_correction.filter_bytes))
        .add("sent_msgs", static_cast<double>(r.traffic.sent_msgs()))
        .add("sent_bytes", static_cast<double>(r.traffic.sent_bytes()))
        .add("largest_msg_bytes",
             static_cast<double>(r.traffic.largest_msg_bytes))
        .add("check_lint_msgs", static_cast<double>(r.check.lint_checked))
        .add("check_fifo_violations",
             static_cast<double>(r.check.fifo_violations))
        .add("check_leaked_msgs",
             static_cast<double>(r.check.leaked_messages))
        .add("check_orphan_replies",
             static_cast<double>(r.check.orphaned_replies))
        .add("check_unanswered",
             static_cast<double>(r.check.unanswered_requests))
        .add("check_max_pending_at_barrier",
             static_cast<double>(r.check.max_pending_at_barrier))
        // Fault-injection columns (all 0 on fault-free runs).
        .add("chaos_dropped_msgs",
             static_cast<double>(r.traffic.dropped_msgs))
        .add("chaos_duplicated_msgs",
             static_cast<double>(r.traffic.duplicated_msgs))
        .add("check_retransmits", static_cast<double>(r.check.retransmits))
        .add("check_stale_leaks", static_cast<double>(r.check.stale_leaks));
    if (metrics) {
      const auto& reg = obs::Registry::global();
      add_latency(report, "lookup_rtt",
                  reg.histogram_summary("reptile_lookup_rtt_us", r.rank));
      add_latency(report, "batch_prefetch",
                  reg.histogram_summary("reptile_batch_prefetch_us", r.rank));
      add_latency(report, "service_handle",
                  reg.histogram_summary("reptile_service_handle_us", r.rank));
      add_latency(report, "mailbox_wait",
                  reg.histogram_summary("reptile_mailbox_wait_us", r.rank));
    }
    // Resource-ledger columns, present only when the run armed the ledger
    // (same schema-gating idea as the histogram block above).
    if (!r.ledger.empty()) {
      for (const stats::LedgerAccountSample& row : r.ledger) {
        report.add(std::string("ledger_peak_") + row.account,
                   static_cast<double>(row.peak_bytes));
      }
      report
          .add("ledger_total_peak_bytes",
               static_cast<double>(r.ledger_total_peak_bytes))
          .add("rss_peak_bytes",
               static_cast<double>(r.ledger_rss_peak_bytes));
    }
  }
  return report;
}

}  // namespace reptile::parallel
