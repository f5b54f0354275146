#pragma once
// The prior art's spectrum stores: sorted arrays with binary search, and the
// cache-aware (B+1)-ary layout.
//
// Paper Section II-B, describing Jammula et al.: "K-mer and tile spectrums
// are stored as sorted lists with look-up operations involving repeated
// binary searches over the spectrum. A cache-aware layout of k-mer spectrum
// was presented which lowered the search time from the original O(log2 N)
// to O(log(B+1) N) where B represents the number of elements that can fit
// into a cache line."
//
// Both structures are implemented here as baselines so the paper's design
// contrast (hash tables, "prevent[ing] any need for sorting the arrays or
// for repeated binary searches") can be measured — see bench/microbench.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "obs/ledger.hpp"

namespace reptile::hash {

/// Sorted (id, count) arrays searched by std::lower_bound — the Shah et
/// al. layout. Immutable once built.
class SortedCountArray {
 public:
  SortedCountArray() = default;

  /// Builds from arbitrary-order entries (sorted internally). Duplicate
  /// keys have their counts summed.
  static SortedCountArray from_entries(
      std::vector<std::pair<std::uint64_t, std::uint32_t>> entries);

  std::optional<std::uint32_t> find(std::uint64_t key) const {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return std::nullopt;
    return counts_[static_cast<std::size_t>(it - keys_.begin())];
  }

  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }
  std::size_t memory_bytes() const noexcept {
    return keys_.capacity() * sizeof(std::uint64_t) +
           counts_.capacity() * sizeof(std::uint32_t);
  }

  /// Sorted key sequence (tests and the cache-aware builder).
  const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }
  const std::vector<std::uint32_t>& counts() const noexcept { return counts_; }

 private:
  std::vector<std::uint64_t> keys_;    // ascending
  std::vector<std::uint32_t> counts_;  // parallel to keys_
  // Charged once at build (immutable afterwards); moves carry the balance.
  obs::LedgerCharge charge_{obs::LedgerAccount::kSortedSpectrum};
};

/// Cache-aware static search tree: keys are grouped into blocks of B = 8
/// (one 64-byte cache line of 8-byte keys) arranged as an implicit
/// (B+1)-ary tree in level order. A lookup touches O(log_{B+1} N) cache
/// lines instead of binary search's O(log2 N).
class CacheAwareCountArray {
 public:
  /// Keys per block: 8 x 8-byte keys = one cache line.
  static constexpr int kBlock = 8;

  CacheAwareCountArray() = default;

  /// Builds the level-order layout from a sorted array.
  static CacheAwareCountArray from_sorted(const SortedCountArray& sorted);

  /// Convenience: sort + layout in one step.
  static CacheAwareCountArray from_entries(
      std::vector<std::pair<std::uint64_t, std::uint32_t>> entries) {
    return from_sorted(SortedCountArray::from_entries(std::move(entries)));
  }

  std::optional<std::uint32_t> find(std::uint64_t key) const;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t memory_bytes() const noexcept {
    return keys_.capacity() * sizeof(std::uint64_t) +
           counts_.capacity() * sizeof(std::uint32_t);
  }

  /// Number of blocks (tests).
  std::size_t blocks() const noexcept { return keys_.size() / kBlock; }

 private:
  /// Sentinel padding key for partially filled blocks; greater than every
  /// real key, so in-block scans stop naturally. (~0 is itself a valid
  /// packed ID only for the all-T 32-mer; it is stored out of line.)
  static constexpr std::uint64_t kPad = std::numeric_limits<std::uint64_t>::max();

  std::vector<std::uint64_t> keys_;    // m * kBlock, level-order blocks
  std::vector<std::uint32_t> counts_;  // parallel to keys_
  // Charged once at build (immutable afterwards); moves carry the balance.
  obs::LedgerCharge charge_{obs::LedgerAccount::kSortedSpectrum};
  std::size_t size_ = 0;
  // The sentinel collision case: a real entry with key == ~0.
  bool has_max_key_ = false;
  std::uint32_t max_key_count_ = 0;
};

}  // namespace reptile::hash
