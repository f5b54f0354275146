#pragma once
// SpectrumModel: where the k-mer/tile spectrum physically lives, behind the
// interface the stage graph drives.
//
// BuildSpectrumStage and CorrectStage contain the paper's control flow once;
// the three models supply what differs between the drivers:
//   LocalSpectrumModel      — sequential reference (core::LocalSpectrum);
//   DistSpectrumModel       — the paper's partitioned spectrum + lookup
//                             protocol (dist_model.hpp);
//   ReplicatedSpectrumModel — the prior-art full replica per rank
//                             (replicated_model.hpp).

#include <cstddef>
#include <memory>
#include <string_view>

#include "core/spectrum.hpp"
#include "seq/read.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile::pipeline {

struct RankContext;

/// One correction worker's lookup surface over the model (Step IV). Workers
/// are slot-numbered; each handle is used by exactly one thread.
class WorkerHandle {
 public:
  virtual ~WorkerHandle() = default;

  /// The SpectrumView the corrector runs against.
  virtual core::SpectrumView& view() = 0;

  /// batch_lookups hook: resolve the chunk's remote lookups ahead of
  /// correction (the distributed model's chunk wavefront), so the
  /// corrector's pass over the chunk answers them locally. No-op for local
  /// models.
  virtual void prefetch_chunk(const seq::ReadBatch& batch) {
    (void)batch;
  }

  /// Folds this worker's lookup counters into its per-worker accumulator
  /// after the chunk loop (CorrectStage then merges accumulators: counters
  /// add, comm_seconds takes the maximum across workers).
  virtual void harvest(stats::PhaseTimeline& acc) { (void)acc; }
};

class SpectrumModel {
 public:
  virtual ~SpectrumModel() = default;

  // --- Steps II-III: construction (driven by BuildSpectrumStage) --------

  /// Step II for one read.
  virtual void add_read(std::string_view bases) = 0;

  /// True when construction must run the chunk-synchronous exchange loop
  /// to the global maximum batch count (the batch_reads heuristic; every
  /// rank must join every collective exchange).
  virtual bool chunked_exchange() const { return false; }

  /// Step III exchange: per chunk in batch mode, once after the read loop
  /// otherwise. No-op for local models.
  virtual void exchange_chunk() {}

  /// End of Step III: prune, replication heuristics, and (distributed) the
  /// construction barrier.
  virtual void finalize_construction() = 0;

  /// Current total table bytes — sampled per chunk for the peak footprint
  /// the batch_reads heuristic exists to cap.
  virtual std::size_t footprint_bytes() const = 0;

  /// Snapshot into report.footprint_after_construction (and fold it into
  /// the construction peak).
  virtual void record_construction_footprint(stats::PhaseTimeline& report) = 0;

  /// Snapshot into report.footprint_after_correction.
  virtual void record_correction_footprint(stats::PhaseTimeline& report) = 0;

  // --- Step IV: correction (driven by CorrectStage) ---------------------

  /// Serve-mode seam: drop every piece of JOB-lifetime state the model
  /// accumulated while correcting (remote reply caches, per-job counters)
  /// so the next job's lookups and report cannot observe the previous
  /// job's. The spectrum tables themselves are RANK-lifetime and survive.
  /// Collective where overridden (all ranks must call it together).
  virtual void reset_for_job() {}

  /// Runs before any Step IV thread starts (distributed: Comm::reset_done
  /// and service construction).
  virtual void prepare_correction(RankContext& ctx) { (void)ctx; }

  /// True when a communication thread must run alongside the workers.
  virtual bool needs_service() const { return false; }

  /// The communication thread's body: serve lookups until every rank is
  /// done. Called only when needs_service().
  virtual void serve() {}

  /// This rank's completion announcement (distributed: Comm::signal_done).
  /// CorrectStage guarantees exactly one call, even on exception unwind.
  virtual void announce_done() {}

  /// Service counters into report.service, after the service join.
  virtual void harvest_service(stats::PhaseTimeline& report) { (void)report; }

  /// Lookup handle for worker `slot` (0-based; slot 0 runs on the rank's
  /// main thread).
  virtual std::unique_ptr<WorkerHandle> make_worker(const RankContext& ctx,
                                                    int slot) = 0;
};

/// The sequential reference model: both spectra in one in-memory
/// core::LocalSpectrum, no communication anywhere.
class LocalSpectrumModel final : public SpectrumModel {
 public:
  explicit LocalSpectrumModel(const core::CorrectorParams& params)
      : spectrum_(params) {}

  void add_read(std::string_view bases) override { spectrum_.add_read(bases); }
  void finalize_construction() override { spectrum_.prune(); }

  std::size_t footprint_bytes() const override {
    return spectrum_.memory_bytes();
  }

  void record_construction_footprint(stats::PhaseTimeline& report) override {
    fill_footprint(report.footprint_after_construction);
    if (report.footprint_after_construction.bytes >
        report.construction_peak_bytes) {
      report.construction_peak_bytes =
          report.footprint_after_construction.bytes;
    }
  }

  void record_correction_footprint(stats::PhaseTimeline& report) override {
    fill_footprint(report.footprint_after_correction);
  }

  std::unique_ptr<WorkerHandle> make_worker(const RankContext& ctx,
                                            int slot) override;

  core::LocalSpectrum& spectrum() noexcept { return spectrum_; }

 private:
  /// The single-worker handle: lookups are the spectrum's counter delta
  /// since the handle was made (construction-phase counters excluded).
  class Handle final : public WorkerHandle {
   public:
    explicit Handle(core::LocalSpectrum& spectrum)
        : spectrum_(&spectrum), before_(spectrum.stats()) {}

    core::SpectrumView& view() override { return *spectrum_; }

    void harvest(stats::PhaseTimeline& acc) override {
      acc.lookups += stats::counters_since(spectrum_->stats(), before_);
    }

   private:
    core::LocalSpectrum* spectrum_;
    core::LookupStats before_;
  };

  void fill_footprint(stats::SpectrumFootprint& fp) const {
    fp.hash_kmer_entries = spectrum_.kmer_entries();
    fp.hash_tile_entries = spectrum_.tile_entries();
    fp.bytes = spectrum_.memory_bytes();
  }

  core::LocalSpectrum spectrum_;
};

inline std::unique_ptr<WorkerHandle> LocalSpectrumModel::make_worker(
    const RankContext& ctx, int slot) {
  (void)ctx;
  (void)slot;
  return std::make_unique<Handle>(spectrum_);
}

}  // namespace reptile::pipeline
