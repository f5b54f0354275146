#include "pipeline/replicated_model.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

namespace reptile::pipeline {

void ReplicatedSpectrum::add_read(std::string_view bases) {
  kmer_scratch_.clear();
  tile_scratch_.clear();
  extractor_.extract(bases, kmer_scratch_, tile_scratch_);
  for (auto id : kmer_scratch_) kmers_.increment(id);
  for (auto id : tile_scratch_) tiles_.increment(id);
}

void ReplicatedSpectrum::replicate(rtm::Comm& comm) {
  auto merge = [&comm](hash::CountTable<>& table) {
    struct IdCount {
      std::uint64_t id;
      std::uint32_t count;
    };
    std::vector<IdCount> flat;
    flat.reserve(table.size());
    table.for_each([&flat](std::uint64_t id, std::uint32_t c) {
      flat.push_back({id, c});
    });
    const auto all =
        comm.allgatherv(std::span<const IdCount>(flat.data(), flat.size()));
    hash::CountTable<> merged(all.size());
    for (const auto& e : all) merged.increment(e.id, e.count);
    table = std::move(merged);
  };
  merge(kmers_);
  merge(tiles_);
}

std::uint32_t ReplicatedSpectrum::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const auto c = kmers_.find(extractor_.canon_kmer(id));
  if (!c) ++stats_.kmer_misses;
  return c.value_or(0);
}

std::uint32_t ReplicatedSpectrum::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const auto c = tiles_.find(extractor_.canon_tile(id));
  if (!c) ++stats_.tile_misses;
  return c.value_or(0);
}

void ReplicatedSpectrumModel::fill_footprint(
    stats::SpectrumFootprint& fp) const {
  fp.hash_kmer_entries = spectrum_.kmer_entries();
  fp.hash_tile_entries = spectrum_.tile_entries();
  fp.bytes = spectrum_.memory_bytes();
}

void ReplicatedSpectrumModel::record_construction_footprint(
    stats::PhaseTimeline& report) {
  fill_footprint(report.footprint_after_construction);
  report.construction_peak_bytes =
      std::max(report.construction_peak_bytes,
               report.footprint_after_construction.bytes);
}

void ReplicatedSpectrumModel::record_correction_footprint(
    stats::PhaseTimeline& report) {
  fill_footprint(report.footprint_after_correction);
}

namespace {

/// The replica is worker-private per rank (one correction thread in this
/// mode), so lookups are the spectrum's counter delta since Step IV began.
class ReplicaHandle final : public WorkerHandle {
 public:
  explicit ReplicaHandle(ReplicatedSpectrum& spectrum)
      : spectrum_(&spectrum), before_(spectrum.stats()) {}

  core::SpectrumView& view() override { return *spectrum_; }

  void harvest(stats::PhaseTimeline& acc) override {
    acc.lookups += stats::counters_since(spectrum_->stats(), before_);
  }

 private:
  ReplicatedSpectrum* spectrum_;
  core::LookupStats before_;
};

}  // namespace

std::unique_ptr<WorkerHandle> ReplicatedSpectrumModel::make_worker(
    const RankContext& ctx, int slot) {
  (void)ctx;
  (void)slot;
  return std::make_unique<ReplicaHandle>(spectrum_);
}

}  // namespace reptile::pipeline
