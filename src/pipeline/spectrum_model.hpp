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

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "core/corrector.hpp"
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

  /// Corrects `batch` in place with `corrector` and appends one
  /// ReadCorrection per read to `out`. The default is prefetch_chunk(batch)
  /// and then `corrector.correct(r, view())` for each read. The distributed
  /// handle runs its view's one-pass chunk wavefront instead, whose final
  /// tile decisions are the correction; bases, outcomes and counters are
  /// the same either way.
  virtual void correct_chunk(const core::TileCorrector& corrector,
                             seq::ReadBatch& batch,
                             std::vector<core::ReadCorrection>& out) {
    prefetch_chunk(batch);
    for (seq::Read& r : batch) out.push_back(corrector.correct(r, view()));
  }

  /// batch_lookups hook of the default correct_chunk: resolve the chunk's
  /// remote lookups ahead of correction (the distributed model's chunk
  /// wavefront over copies of the bases), so the corrector's pass over the
  /// chunk answers them locally. No-op for local models.
  virtual void prefetch_chunk(const seq::ReadBatch& batch) {
    (void)batch;
  }

  /// Folds this worker's lookup counters into its per-worker accumulator
  /// after the chunk loop (CorrectStage then merges accumulators: counters
  /// add, comm_seconds takes the maximum across workers).
  virtual void harvest(stats::PhaseTimeline& acc) { (void)acc; }
};

/// The single-worker handle over an in-memory spectrum (the local and
/// replicated models): lookups are the view's counter delta since the
/// handle was made, so construction-phase counters are excluded.
class CounterDeltaHandle final : public WorkerHandle {
 public:
  explicit CounterDeltaHandle(core::SpectrumView& view)
      : view_(&view), before_(view.stats()) {}

  core::SpectrumView& view() override { return *view_; }

  void harvest(stats::PhaseTimeline& acc) override {
    acc.lookups += stats::counters_since(view_->stats(), before_);
  }

 private:
  core::SpectrumView* view_;
  core::LookupStats before_;
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

  /// Runs before any Step IV thread starts (distributed: the filter
  /// exchange and service construction). Not a barrier: a request that
  /// reaches a rank before its service starts waits in the mailbox.
  virtual void prepare_correction(RankContext& ctx) { (void)ctx; }

  /// True when a communication thread must run alongside the workers.
  virtual bool needs_service() const { return false; }

  /// The communication thread's body: serve lookups until announce_done
  /// stops it. Called only when needs_service().
  virtual void serve() {}

  /// Ends this rank's correction phase once its workers are done. The
  /// distributed model runs one barrier, after which no rank owes another a
  /// reply, and then stops its own service. CorrectStage calls it exactly
  /// once, also on exception unwind, so it must not throw.
  virtual void announce_done() {}

  /// Service counters into report.service, after the service join.
  virtual void harvest_service(stats::PhaseTimeline& report) { (void)report; }

  /// Lookup handle for worker `slot` (0-based; slot 0 runs on the rank's
  /// main thread).
  virtual std::unique_ptr<WorkerHandle> make_worker(const RankContext& ctx,
                                                    int slot) = 0;
};

/// Stores `fp` as the post-construction footprint and folds it into the
/// construction peak.
inline void record_construction(stats::PhaseTimeline& report,
                                const stats::SpectrumFootprint& fp) {
  report.footprint_after_construction = fp;
  report.construction_peak_bytes =
      std::max(report.construction_peak_bytes, fp.bytes);
}

/// The footprint of a spectrum held whole in one rank's memory (the local
/// and replicated models): entries per table and total bytes.
template <class Spectrum>
stats::SpectrumFootprint whole_footprint(const Spectrum& spectrum) {
  stats::SpectrumFootprint fp;
  fp.hash_kmer_entries = spectrum.kmer_entries();
  fp.hash_tile_entries = spectrum.tile_entries();
  fp.bytes = spectrum.memory_bytes();
  return fp;
}

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
    record_construction(report, whole_footprint(spectrum_));
  }

  void record_correction_footprint(stats::PhaseTimeline& report) override {
    report.footprint_after_correction = whole_footprint(spectrum_);
  }

  std::unique_ptr<WorkerHandle> make_worker(const RankContext& /*ctx*/,
                                            int /*slot*/) override {
    return std::make_unique<CounterDeltaHandle>(spectrum_);
  }

  core::LocalSpectrum& spectrum() noexcept { return spectrum_; }

 private:
  core::LocalSpectrum spectrum_;
};

}  // namespace reptile::pipeline
