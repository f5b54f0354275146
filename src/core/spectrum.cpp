#include "core/spectrum.hpp"

#include <utility>

namespace reptile::core {

SpectrumExtractor::SpectrumExtractor(const CorrectorParams& params)
    : kmer_codec_(params.k),
      tile_codec_(params.k, params.tile_overlap),
      canonical_(params.canonical) {}

void SpectrumExtractor::extract(std::string_view bases,
                                std::vector<seq::kmer_id_t>& kmers,
                                std::vector<seq::tile_id_t>& tiles) const {
  const std::size_t kmer_start = kmers.size();
  kmer_codec_.extract(bases, kmers);
  const std::size_t tile_start = tiles.size();
  tile_codec_.extract(bases, tiles);
  if (canonical_) {
    for (std::size_t i = kmer_start; i < kmers.size(); ++i) {
      kmers[i] = kmer_codec_.canonical(kmers[i]);
    }
    const seq::KmerCodec& tc = tile_codec_.as_kmer_codec();
    for (std::size_t i = tile_start; i < tiles.size(); ++i) {
      tiles[i] = tc.canonical(tiles[i]);
    }
  }
}

LocalSpectrum::LocalSpectrum(const CorrectorParams& params)
    : params_(params),
      kmer_codec_(params.k),
      tile_codec_(params.k, params.tile_overlap) {
  params_.validate();
}

LocalSpectrum::LocalSpectrum(const CorrectorParams& params,
                             hash::CountTable<> kmers, hash::CountTable<> tiles)
    : params_(params),
      kmer_codec_(params.k),
      tile_codec_(params.k, params.tile_overlap),
      kmers_(std::move(kmers)),
      tiles_(std::move(tiles)) {
  params_.validate();
}

void LocalSpectrum::add_read(std::string_view bases) {
  kmer_scratch_.clear();
  tile_scratch_.clear();
  SpectrumExtractor extractor(params_);
  extractor.extract(bases, kmer_scratch_, tile_scratch_);
  for (seq::kmer_id_t id : kmer_scratch_) kmers_.increment(id);
  for (seq::tile_id_t id : tile_scratch_) tiles_.increment(id);
}

std::size_t LocalSpectrum::prune() {
  return kmers_.prune_below(params_.kmer_threshold) +
         tiles_.prune_below(params_.tile_threshold);
}

seq::kmer_id_t LocalSpectrum::canon_kmer(seq::kmer_id_t id) const {
  return params_.canonical ? kmer_codec_.canonical(id) : id;
}

seq::tile_id_t LocalSpectrum::canon_tile(seq::tile_id_t id) const {
  return params_.canonical ? tile_codec_.as_kmer_codec().canonical(id) : id;
}

std::uint32_t LocalSpectrum::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const auto c = kmers_.find(canon_kmer(id));
  if (!c) {
    ++stats_.kmer_misses;
    return 0;
  }
  return *c;
}

std::uint32_t LocalSpectrum::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const auto c = tiles_.find(canon_tile(id));
  if (!c) {
    ++stats_.tile_misses;
    return 0;
  }
  return *c;
}

}  // namespace reptile::core
