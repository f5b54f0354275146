#include "core/frozen_spectrum.hpp"

namespace reptile::core {

FrozenSpectrum::FrozenSpectrum(const LocalSpectrum& source,
                               SpectrumBackend backend)
    : backend_(backend),
      source_for_canon_(&source),
      kmer_entries_(source.kmer_entries()),
      tile_entries_(source.tile_entries()) {
  switch (backend_) {
    case SpectrumBackend::kHashTable:
      hash_kmers_ = hash::CountTable<>::frozen(kmer_entries_);
      hash_tiles_ = hash::CountTable<>::frozen(tile_entries_);
      source.kmers().for_each([this](std::uint64_t id, std::uint32_t c) {
        hash_kmers_.increment(id, c);
      });
      source.tiles().for_each([this](std::uint64_t id, std::uint32_t c) {
        hash_tiles_.increment(id, c);
      });
      break;
    case SpectrumBackend::kSortedArray:
      sorted_kmers_ = hash::SortedCountArray::from_entries(
          source.kmers().entries());
      sorted_tiles_ = hash::SortedCountArray::from_entries(
          source.tiles().entries());
      break;
    case SpectrumBackend::kCacheAware:
      cache_kmers_ = hash::CacheAwareCountArray::from_entries(
          source.kmers().entries());
      cache_tiles_ = hash::CacheAwareCountArray::from_entries(
          source.tiles().entries());
      break;
  }
}

std::uint32_t FrozenSpectrum::lookup(std::uint64_t id, bool is_kmer) const {
  std::optional<std::uint32_t> found;
  switch (backend_) {
    case SpectrumBackend::kHashTable:
      found = is_kmer ? hash_kmers_.find(id) : hash_tiles_.find(id);
      break;
    case SpectrumBackend::kSortedArray:
      found = is_kmer ? sorted_kmers_.find(id) : sorted_tiles_.find(id);
      break;
    case SpectrumBackend::kCacheAware:
      found = is_kmer ? cache_kmers_.find(id) : cache_tiles_.find(id);
      break;
  }
  return found.value_or(0);
}

std::uint32_t FrozenSpectrum::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const std::uint32_t c = lookup(source_for_canon_->canon_kmer(id), true);
  if (c == 0) ++stats_.kmer_misses;
  return c;
}

std::uint32_t FrozenSpectrum::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const std::uint32_t c = lookup(source_for_canon_->canon_tile(id), false);
  if (c == 0) ++stats_.tile_misses;
  return c;
}

std::size_t FrozenSpectrum::memory_bytes() const noexcept {
  switch (backend_) {
    case SpectrumBackend::kHashTable:
      return hash_kmers_.memory_bytes() + hash_tiles_.memory_bytes();
    case SpectrumBackend::kSortedArray:
      return sorted_kmers_.memory_bytes() + sorted_tiles_.memory_bytes();
    case SpectrumBackend::kCacheAware:
      return cache_kmers_.memory_bytes() + cache_tiles_.memory_bytes();
  }
  return 0;
}

}  // namespace reptile::core
