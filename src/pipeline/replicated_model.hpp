#pragma once
// The prior-art spectrum model (paper Section II-B): every rank holds the
// full replicated spectrum, built by allgathering each rank's local counts
// (Shah et al. 2012 / Jammula et al. 2015). Correction needs no spectrum
// communication at all — the very memory/scalability trade the paper's
// partitioned approach removes.

#include <memory>
#include <string_view>
#include <vector>

#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "pipeline/spectrum_model.hpp"
#include "rtm/comm.hpp"
#include "seq/kmer.hpp"
#include "seq/tile.hpp"

namespace reptile::pipeline {

/// Full spectrum replica with canonical-aware lookups.
class ReplicatedSpectrum final : public core::SpectrumView {
 public:
  explicit ReplicatedSpectrum(const core::CorrectorParams& params)
      : extractor_(params), params_(params) {}

  /// Step II over this rank's slice: local (canonical) counts.
  void add_read(std::string_view bases);

  /// Replication: allgather every rank's local counts and merge — after
  /// this, each rank holds the full global spectrum.
  void replicate(rtm::Comm& comm);

  void prune() {
    kmers_.prune_below(params_.kmer_threshold);
    tiles_.prune_below(params_.tile_threshold);
  }

  std::uint32_t kmer_count(seq::kmer_id_t id) override;
  std::uint32_t tile_count(seq::tile_id_t id) override;
  const core::LookupStats& stats() const override { return stats_; }

  std::size_t kmer_entries() const noexcept { return kmers_.size(); }
  std::size_t tile_entries() const noexcept { return tiles_.size(); }
  std::size_t memory_bytes() const noexcept {
    return kmers_.memory_bytes() + tiles_.memory_bytes();
  }

 private:
  core::SpectrumExtractor extractor_;
  core::CorrectorParams params_;
  hash::CountTable<> kmers_;
  hash::CountTable<> tiles_;
  core::LookupStats stats_;
  std::vector<seq::kmer_id_t> kmer_scratch_;
  std::vector<seq::tile_id_t> tile_scratch_;
};

class ReplicatedSpectrumModel final : public SpectrumModel {
 public:
  ReplicatedSpectrumModel(const core::CorrectorParams& params, rtm::Comm& comm)
      : comm_(&comm), spectrum_(params) {}

  void add_read(std::string_view bases) override { spectrum_.add_read(bases); }

  void finalize_construction() override {
    spectrum_.replicate(*comm_);
    spectrum_.prune();
  }

  std::size_t footprint_bytes() const override {
    return spectrum_.memory_bytes();
  }

  void record_construction_footprint(stats::PhaseTimeline& report) override {
    record_construction(report, whole_footprint(spectrum_));
  }

  void record_correction_footprint(stats::PhaseTimeline& report) override {
    report.footprint_after_correction = whole_footprint(spectrum_);
  }

  /// The replica is worker-private per rank (one correction thread in this
  /// mode).
  std::unique_ptr<WorkerHandle> make_worker(const RankContext& /*ctx*/,
                                            int /*slot*/) override {
    return std::make_unique<CounterDeltaHandle>(spectrum_);
  }

 private:
  rtm::Comm* comm_;
  ReplicatedSpectrum spectrum_;
};

}  // namespace reptile::pipeline
