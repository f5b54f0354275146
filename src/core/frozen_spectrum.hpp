#pragma once
// Read-only spectrum with a selectable storage backend.
//
// The paper's Section II-B design contrast: the prior Reptile
// parallelizations (Shah 2012, Jammula 2015) stored the spectra as sorted
// arrays searched by repeated binary search, later improved to a
// cache-aware (B+1)-ary layout; this work stores them in hash tables.
// FrozenSpectrum lets the corrector run against any of the three backends
// so the contrast is testable (identical correction decisions) and
// measurable (bench/microbench).
//
// "Frozen" because the prior art's structures are immutable after
// construction: build a LocalSpectrum (with pruning), then freeze it into
// the backend of interest.

#include <cstdint>

#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "hash/sorted_spectrum.hpp"

namespace reptile::core {

/// Storage layout of a frozen spectrum.
enum class SpectrumBackend {
  kHashTable,   ///< this paper's choice: open-addressing hash tables
  kSortedArray, ///< Shah et al.: sorted lists + binary search
  kCacheAware,  ///< Jammula et al.: (B+1)-ary cache-line blocked layout
};

/// Immutable spectrum view over one of the three layouts.
class FrozenSpectrum final : public SpectrumView {
 public:
  /// Copies the (pruned) contents of `source` into the chosen backend.
  FrozenSpectrum(const LocalSpectrum& source, SpectrumBackend backend);

  std::uint32_t kmer_count(seq::kmer_id_t id) override;
  std::uint32_t tile_count(seq::tile_id_t id) override;
  const LookupStats& stats() const override { return stats_; }

  SpectrumBackend backend() const noexcept { return backend_; }
  std::size_t kmer_entries() const noexcept { return kmer_entries_; }
  std::size_t tile_entries() const noexcept { return tile_entries_; }

  /// Bytes of the backend structures (the prior art's layouts are denser
  /// per entry than an open-addressed table at low load).
  std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t lookup(std::uint64_t canonical_id, bool is_kmer) const;

  SpectrumBackend backend_;
  // Canonicalization must match the source spectrum's construction.
  const LocalSpectrum* source_for_canon_;
  LookupStats stats_;
  std::size_t kmer_entries_ = 0;
  std::size_t tile_entries_ = 0;

  // Exactly one pair is populated, per backend.
  hash::CountTable<> hash_kmers_;
  hash::CountTable<> hash_tiles_;
  hash::SortedCountArray sorted_kmers_;
  hash::SortedCountArray sorted_tiles_;
  hash::CacheAwareCountArray cache_kmers_;
  hash::CacheAwareCountArray cache_tiles_;
};

}  // namespace reptile::core
