#pragma once
// The paper's partitioned spectrum behind the SpectrumModel interface:
// DistSpectrum construction (Steps II-III with every heuristic), the
// LookupService communication thread, and RemoteSpectrumView worker lookups
// (Step IV).

#include <memory>
#include <optional>
#include <string_view>

#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "pipeline/spectrum_model.hpp"
#include "rtm/comm.hpp"

namespace reptile::pipeline {

class DistSpectrumModel final : public SpectrumModel {
 public:
  DistSpectrumModel(const core::CorrectorParams& params,
                    const parallel::Heuristics& heur, rtm::Comm& comm)
      : comm_(&comm), spectrum_(params, heur, comm) {}

  void add_read(std::string_view bases) override { spectrum_.add_read(bases); }

  bool chunked_exchange() const override {
    return spectrum_.heuristics().batch_reads;
  }

  void exchange_chunk() override { spectrum_.exchange_to_owners(); }

  void finalize_construction() override;

  std::size_t footprint_bytes() const override {
    return spectrum_.footprint().bytes;
  }

  void record_construction_footprint(stats::PhaseTimeline& report) override {
    record_construction(report, spectrum_.footprint());
  }

  void record_correction_footprint(stats::PhaseTimeline& report) override {
    report.footprint_after_correction = spectrum_.footprint();
  }

  /// Collective: erases the add_remote reply caches from the reads tables
  /// (the only job-lifetime residue inside DistSpectrum) so job N's
  /// lookup counters cannot be perturbed by job N-1's cached replies.
  void reset_for_job() override;

  void prepare_correction(RankContext& ctx) override;

  /// A rank needs the communication thread unless it runs alone or both
  /// spectra are replicated ("allgather both": no lookup ever leaves the
  /// rank, so nobody would message it).
  bool needs_service() const override {
    return comm_->size() > 1 && !spectrum_.heuristics().fully_replicated();
  }

  void serve() override { service_->serve(); }
  /// One barrier, then the stop to this rank's service (when it runs).
  void announce_done() override {
    parallel::end_correction_phase(*comm_, needs_service());
  }

  void harvest_service(stats::PhaseTimeline& report) override {
    if (service_.has_value()) report.service = service_->stats();
  }

  std::unique_ptr<WorkerHandle> make_worker(const RankContext& ctx,
                                            int slot) override;

  parallel::DistSpectrum& spectrum() noexcept { return spectrum_; }

 private:
  class Handle;

  rtm::Comm* comm_;
  parallel::DistSpectrum spectrum_;
  /// Constructed by prepare_correction whether or not the service thread
  /// runs — its zeroed stats still feed the report.
  std::optional<parallel::LookupService> service_;
};

}  // namespace reptile::pipeline
