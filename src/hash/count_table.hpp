#pragma once
// Open-addressing counting hash table for the k-mer and tile spectra.
//
// The paper stores both spectra "in hash tables instead of arrays; this
// prevents any need for sorting the arrays or for repeated binary searches"
// (Section II-B contrast with Jammula et al.). This table is the structure
// behind hashKmer/readsKmer/hashTile/readsTile.
//
// Implementation: robin-hood hashing on power-of-two capacity, with an
// 8-bit probe-distance array (0 = empty slot), flat key and count arrays
// (no per-node allocation), backward-shift deletion, and exact
// memory-footprint accounting — the paper's evaluation tracks MB/rank, so
// the table must be able to report its own bytes.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "hash/hashing.hpp"
#include "obs/ledger.hpp"

namespace reptile::hash {

/// Counting map keyed by packed 64-bit IDs.
///
/// Count is saturating at its numeric maximum (frequencies beyond the
/// threshold scale never matter to Reptile).
template <class Count = std::uint32_t, class Hash = Mix64Hash>
class CountTable {
 public:
  using key_type = std::uint64_t;
  using count_type = Count;

  /// Creates a table with capacity for at least `expected` entries before
  /// the first rehash.
  explicit CountTable(std::size_t expected = 0) { rehash_for(expected); }

  // Move-only: the ledger charge is an ownership handle (moves carry the
  // charged balance to the new table; see obs/ledger.hpp).
  CountTable(CountTable&&) noexcept = default;
  CountTable& operator=(CountTable&&) noexcept = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }

  /// Current heap footprint in bytes (slot arrays only; the object header
  /// is negligible). Used for the paper's per-rank memory accounting.
  /// Reads the ledger charge, which every (re)size keeps equal to
  /// cap_ * (key + count + probe) — one source of truth for the byte bill.
  std::size_t memory_bytes() const noexcept {
    return static_cast<std::size_t>(charge_.recorded());
  }

  /// Re-attributes this table's bytes to a different ledger account —
  /// e.g. RemoteSpectrumView's chunk cache bills remote_cache, not
  /// count_table. The current balance follows the handle.
  void bind_ledger_account(obs::LedgerAccount account) {
    charge_.bind(account);
  }

  /// Adds `delta` to the count of `key`, inserting it when absent.
  /// Returns the new count.
  count_type increment(key_type key, count_type delta = 1) {
    if ((size_ + 1) * 8 >= cap_ * 7) rehash_for(size_ * 2 + 8);
    while (true) {
      const auto r = try_increment(key, delta);
      if (r) return *r;
      // Probe distance overflowed its 8-bit budget: grow and retry.
      rehash_for(cap_);
    }
  }

  /// Count of `key`, or std::nullopt when absent.
  std::optional<count_type> find(key_type key) const {
    if (cap_ == 0) return std::nullopt;
    std::size_t slot = index_of(key);
    std::uint8_t dist = 1;
    while (true) {
      const std::uint8_t d = probe_[slot];
      if (d == 0 || d < dist) return std::nullopt;
      if (d == dist && keys_[slot] == key) return counts_[slot];
      slot = (slot + 1) & mask_;
      ++dist;
      if (dist == 0) return std::nullopt;  // wrapped: cannot exist
    }
  }

  bool contains(key_type key) const { return find(key).has_value(); }

  /// Removes `key`; returns true when it was present.
  bool erase(key_type key) {
    if (cap_ == 0) return false;
    std::size_t slot = index_of(key);
    std::uint8_t dist = 1;
    while (true) {
      const std::uint8_t d = probe_[slot];
      if (d == 0 || d < dist) return false;
      if (d == dist && keys_[slot] == key) break;
      slot = (slot + 1) & mask_;
      ++dist;
      if (dist == 0) return false;
    }
    // Backward-shift deletion keeps probe distances tight.
    std::size_t next = (slot + 1) & mask_;
    while (probe_[next] > 1) {
      keys_[slot] = keys_[next];
      counts_[slot] = counts_[next];
      probe_[slot] = static_cast<std::uint8_t>(probe_[next] - 1);
      slot = next;
      next = (next + 1) & mask_;
    }
    probe_[slot] = 0;
    --size_;
    return true;
  }

  /// Drops every entry whose count is strictly below `threshold` (the
  /// paper's Step III pruning). Returns the number of entries removed.
  std::size_t prune_below(count_type threshold) {
    // Rebuild into a fresh table: simpler and cache-friendlier than chained
    // backward-shift erasure over a full scan.
    CountTable kept(size_);
    std::size_t removed = 0;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (probe_[i] == 0) continue;
      if (counts_[i] >= threshold) {
        kept.increment(keys_[i], counts_[i]);
      } else {
        ++removed;
      }
    }
    *this = std::move(kept);
    return removed;
  }

  /// Applies `fn(key, count)` to every entry (unspecified order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (probe_[i] != 0) fn(keys_[i], counts_[i]);
    }
  }

  /// Extracts all entries as a vector of pairs (unspecified order);
  /// convenience for the alltoallv exchange code.
  std::vector<std::pair<key_type, count_type>> entries() const {
    std::vector<std::pair<key_type, count_type>> out;
    out.reserve(size_);
    for_each([&](key_type k, count_type c) { out.emplace_back(k, c); });
    return out;
  }

  /// Removes all entries, releasing slot storage (the batch-reads-table
  /// heuristic empties the reads tables after every chunk).
  void clear() {
    keys_.clear();
    keys_.shrink_to_fit();
    counts_.clear();
    counts_.shrink_to_fit();
    probe_.clear();
    probe_.shrink_to_fit();
    cap_ = 0;
    mask_ = 0;
    size_ = 0;
    charge_.set(0);
  }

  /// Removes all entries but keeps the slot arrays and their charge, for a
  /// table refilled at about the same size (the chunk cache).
  void clear_keep_capacity() {
    std::fill(probe_.begin(), probe_.end(), std::uint8_t{0});
    size_ = 0;
  }

 private:
  std::size_t index_of(key_type key) const noexcept {
    return Hash{}(key) & mask_;
  }

  /// Robin-hood insert-or-increment; returns nullopt when the required
  /// probe distance would exceed the 8-bit budget (caller grows the table).
  std::optional<count_type> try_increment(key_type key, count_type delta) {
    key_type k = key;
    count_type c = delta;
    std::size_t slot = index_of(key);
    std::uint8_t dist = 1;
    bool carrying_original = true;  // still looking for `key` itself
    count_type result = 0;
    while (true) {
      const std::uint8_t d = probe_[slot];
      if (d == 0) {
        keys_[slot] = k;
        counts_[slot] = c;
        probe_[slot] = dist;
        ++size_;
        return carrying_original ? c : result;
      }
      if (carrying_original && d == dist && keys_[slot] == key) {
        const count_type room =
            std::numeric_limits<count_type>::max() - counts_[slot];
        counts_[slot] += (delta < room ? delta : room);
        return counts_[slot];
      }
      if (d < dist) {
        // Rob the rich: swap the carried entry with the resident one.
        std::swap(k, keys_[slot]);
        std::swap(c, counts_[slot]);
        std::swap(dist, probe_[slot]);
        if (carrying_original) {
          // The original (key, delta) just landed in this slot; from here on
          // we are only re-homing displaced residents.
          carrying_original = false;
          result = delta;
        }
      }
      slot = (slot + 1) & mask_;
      ++dist;
      if (dist == 0) return std::nullopt;  // 8-bit probe budget exhausted
    }
  }

  void rehash_for(std::size_t expected) {
    std::size_t want = 16;
    while (want * 7 < (expected + 1) * 8) want *= 2;  // keep load <= 7/8
    if (want <= cap_ && size_ != 0) want = cap_ * 2;
    std::vector<key_type> old_keys = std::move(keys_);
    std::vector<count_type> old_counts = std::move(counts_);
    std::vector<std::uint8_t> old_probe = std::move(probe_);
    const std::size_t old_cap = cap_;

    keys_.assign(want, 0);
    counts_.assign(want, 0);
    probe_.assign(want, 0);
    cap_ = want;
    mask_ = want - 1;
    size_ = 0;
    charge_.set(
        cap_ * (sizeof(key_type) + sizeof(count_type) + sizeof(std::uint8_t)));
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_probe[i] != 0) increment(old_keys[i], old_counts[i]);
    }
  }

  std::vector<key_type> keys_;
  std::vector<count_type> counts_;
  std::vector<std::uint8_t> probe_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  obs::LedgerCharge charge_{obs::LedgerAccount::kCountTable};
};

}  // namespace reptile::hash
