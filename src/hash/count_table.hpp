#pragma once
// Open-addressing counting hash table for the k-mer and tile spectra.
//
// The paper stores both spectra "in hash tables instead of arrays; this
// prevents any need for sorting the arrays or for repeated binary searches"
// (Section II-B contrast with Jammula et al.). This table is the structure
// behind hashKmer/readsKmer/hashTile/readsTile.
//
// Why misses matter: the corrector asks for every Hamming neighbour of an
// untrusted tile, and almost none of them exist — about 95 % of the
// correction phase's tile lookups are misses. A miss must therefore be
// decided from as few bytes as possible.
//
// Layout: power-of-two capacity, split into aligned groups of 16 slots
// (group g holds slots 16g to 16g + 15).
// Keys, counts and one control byte per slot live in three flat arrays (no
// per-node allocation). A control byte is kEmpty (0x80), kDeleted (0xFE,
// a tombstone) or a live slot's 7-bit tag.
//
// Probing: a key starts at its home group and visits later groups in
// triangular order (home + 1, + 3, + 6, ...), which reaches every group of
// a power-of-two table. Each group is tested with one SSE2 compare of the
// tag against its 16 control bytes, and only tag matches load a key. The
// search stops at the first group that still has an empty slot, so a
// typical miss reads 16 control bytes and nothing else.
//
// Hash bits: on a rank's owned table every key satisfies
// `mix64(key) % np == rank` (hash/hashing.hpp), so the low bits of the hash
// are constant there for a power-of-two rank count. The tag is therefore the
// top 7 bits, and the home group index skips the low 7 bits; both stay
// spread on an owned table for up to 128 ranks.
//
// Deletion: an erased slot becomes empty when its group still has an empty
// slot — such a group was never full since the last rebuild, so no probe
// ever passed it. Otherwise it becomes a tombstone. An insert that would
// take live entries plus tombstones to 7/8 of capacity first rebuilds the
// table in place at the same capacity, which clears the tombstones; at
// least 1/8 of the slots are always empty, so every probe ends.
//
// Two sizing regimes, one byte bill: 8 B key + 4 B count + 1 B control =
// 13 B per slot, and memory_bytes() is that exact bill, which the paper's
// per-rank memory evaluation (MB/rank) reads.
// - A growing table (construction's owned and pending tables, the chunk
//   cache) grows on entry to increment() when live entries would reach 7/8
//   of capacity, so its load lands anywhere in (0.44, 0.875].
// - A table frozen after construction (the pruned spectra, replicas, group
//   tables, fetched reads tables, loaded checkpoints) is built through
//   frozen(): the smallest power of two >= 2 x entries, so its load is at
//   most 1/2. With 101,010 random keys (a replicated tile table), a miss
//   visits 1.33 groups and meets 0.13 false tag matches at the growing
//   sizing (131,072 slots, load 0.77), against 1.00 group and 0.05 at the
//   frozen one (262,144 slots, load 0.39); microbench BM_CountTableFind
//   times such a miss at 16.0 and 8.2 ns (4-vCPU Xeon, Release). Timed at
//   a fixed 262,144 slots, a miss costs 7.7-8.6 ns up to load 0.50, 9.6 at
//   0.61, 13.1 at 0.70 and 17.3 at 0.77: the knee lies between 0.6 and 0.7,
//   and frozen() keeps every table left of it. The price is up to twice the
//   slots of a growing table holding the same entries.

#ifndef __SSE2__
#error "hash/count_table.hpp needs SSE2 (every x86-64 target has it)"
#endif
#include <emmintrin.h>

#include <algorithm>
#include <bit>
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

  /// Bytes of one slot: key, count and control byte.
  static constexpr std::size_t kSlotBytes =
      sizeof(key_type) + sizeof(count_type) + 1;

  /// Creates a table with capacity for at least `expected` entries before
  /// the first rehash (the growing regime, load up to 7/8).
  explicit CountTable(std::size_t expected = 0) { rehash_for(expected); }

  /// Capacity of a frozen table for `entries` keys: the smallest power of
  /// two >= 2 x entries, one group at least, so load is at most 1/2.
  static constexpr std::size_t frozen_capacity(std::size_t entries) noexcept {
    return std::max(kGroupWidth, std::bit_ceil(2 * entries));
  }

  /// An empty table for `entries` keys that will be read far more than
  /// written: a spectrum table after construction, where ~95 % of lookups
  /// miss and a miss at load <= 1/2 reads one group. Inserts past
  /// `entries` still work and grow it by the 7/8 rule.
  static CountTable frozen(std::size_t entries) {
    return CountTable(AtCapacity{}, frozen_capacity(entries));
  }

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
  /// cap_ * (key + count + control) — one source of truth for the byte bill.
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
    const std::uint64_t h = Hash{}(key);
    const __m128i tag = _mm_set1_epi8(static_cast<char>(tag_of(h)));
    std::size_t free_slot = kNone;
    std::size_t g = home_group(h);
    for (std::size_t step = 1;; g = (g + step++) & group_mask_) {
      const __m128i ctrl = load_group(g);
      for (unsigned m = match(ctrl, tag); m != 0; m &= m - 1) {
        const std::size_t slot = g * kGroupWidth + std::countr_zero(m);
        if (keys_[slot] == key) {
          const count_type room =
              std::numeric_limits<count_type>::max() - counts_[slot];
          counts_[slot] += (delta < room ? delta : room);
          return counts_[slot];
        }
      }
      const unsigned free = free_mask(ctrl);
      if (free_slot == kNone && free != 0) {
        free_slot = g * kGroupWidth + std::countr_zero(free);
      }
      if (match(ctrl, empty_group()) != 0) break;
    }
    if (ctrl_[free_slot] == kDeleted) {
      --tombstones_;
    } else if ((size_ + tombstones_ + 1) * 8 >= cap_ * 7) {
      drop_tombstones();
      free_slot = first_free(h);
    }
    place(free_slot, key, delta, h);
    ++size_;
    return delta;
  }

  /// Count of `key`, or std::nullopt when absent.
  std::optional<count_type> find(key_type key) const {
    const std::size_t slot = locate(key);
    if (slot == kNone) return std::nullopt;
    return counts_[slot];
  }

  bool contains(key_type key) const { return locate(key) != kNone; }

  /// Removes `key`; returns true when it was present.
  bool erase(key_type key) {
    const std::size_t slot = locate(key);
    if (slot == kNone) return false;
    if (match(load_group(slot / kGroupWidth), empty_group()) != 0) {
      ctrl_[slot] = kEmpty;
    } else {
      ctrl_[slot] = kDeleted;
      ++tombstones_;
    }
    --size_;
    return true;
  }

  /// Drops every entry whose count is strictly below `threshold` (the
  /// paper's Step III pruning). Returns the number of entries removed.
  std::size_t prune_below(count_type threshold) {
    // Rebuild into a frozen table for the survivors: the pruned spectrum
    // drops the capacity that held every error k-mer and is only read from
    // here on.
    std::size_t survivors = 0;
    for_each([&](key_type, count_type c) { survivors += c >= threshold; });
    CountTable kept = frozen(survivors);
    for_each([&](key_type k, count_type c) {
      if (c >= threshold) kept.increment(k, c);
    });
    const std::size_t removed = size_ - survivors;
    *this = std::move(kept);
    return removed;
  }

  /// Applies `fn(key, count)` to every entry (unspecified order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t g = 0; g * kGroupWidth < cap_; ++g) {
      for (unsigned m = ~free_mask(load_group(g)) & 0xFFFFu; m != 0;
           m &= m - 1) {
        const std::size_t slot = g * kGroupWidth + std::countr_zero(m);
        fn(keys_[slot], counts_[slot]);
      }
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
    ctrl_.clear();
    ctrl_.shrink_to_fit();
    cap_ = 0;
    group_mask_ = 0;
    size_ = 0;
    tombstones_ = 0;
    charge_.set(0);
  }

  /// Removes all entries but keeps the slot arrays and their charge, for a
  /// table refilled at about the same size (the chunk cache).
  void clear_keep_capacity() {
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  static constexpr std::size_t kGroupWidth = 16;
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint8_t kDeleted = 0xFE;
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct AtCapacity {};
  CountTable(AtCapacity, std::size_t capacity) { resize(capacity); }

  static std::uint8_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(h >> 57);
  }
  std::size_t home_group(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(h >> 7) & group_mask_;
  }

  __m128i load_group(std::size_t g) const noexcept {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ctrl_.data() + g * kGroupWidth));
  }
  static __m128i empty_group() noexcept {
    return _mm_set1_epi8(static_cast<char>(kEmpty));
  }
  /// Bit i set when control byte i equals the byte broadcast in `want`.
  static unsigned match(__m128i ctrl, __m128i want) noexcept {
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(ctrl, want)));
  }
  /// Bit i set when slot i is empty or a tombstone (high bit of the byte).
  static unsigned free_mask(__m128i ctrl) noexcept {
    return static_cast<unsigned>(_mm_movemask_epi8(ctrl));
  }

  /// Slot holding `key`, or kNone.
  std::size_t locate(key_type key) const {
    if (cap_ == 0) return kNone;
    const std::uint64_t h = Hash{}(key);
    const __m128i tag = _mm_set1_epi8(static_cast<char>(tag_of(h)));
    std::size_t g = home_group(h);
    for (std::size_t step = 1;; g = (g + step++) & group_mask_) {
      const __m128i ctrl = load_group(g);
      for (unsigned m = match(ctrl, tag); m != 0; m &= m - 1) {
        const std::size_t slot = g * kGroupWidth + std::countr_zero(m);
        if (keys_[slot] == key) return slot;
      }
      if (match(ctrl, empty_group()) != 0) return kNone;
    }
  }

  /// First empty-or-tombstone slot on the probe sequence of hash `h`.
  std::size_t first_free(std::uint64_t h) const noexcept {
    std::size_t g = home_group(h);
    for (std::size_t step = 1;; g = (g + step++) & group_mask_) {
      const unsigned free = free_mask(load_group(g));
      if (free != 0) return g * kGroupWidth + std::countr_zero(free);
    }
  }

  void place(std::size_t slot, key_type key, count_type count,
             std::uint64_t h) noexcept {
    ctrl_[slot] = tag_of(h);
    keys_[slot] = key;
    counts_[slot] = count;
  }

  /// Rebuilds the table in place at its own capacity, turning every
  /// tombstone back into an empty slot. Live slots are first marked
  /// kDeleted ("not yet placed"); each is then moved to the first free slot
  /// of its probe sequence, swapping with an unplaced entry found there.
  void drop_tombstones() {
    for (std::uint8_t& c : ctrl_) c = (c & 0x80) ? kEmpty : kDeleted;
    for (std::size_t i = 0; i < cap_;) {
      if (ctrl_[i] != kDeleted) {
        ++i;
        continue;
      }
      const std::uint64_t h = Hash{}(keys_[i]);
      const std::size_t target = first_free(h);
      if (target / kGroupWidth == i / kGroupWidth) {
        // Already in the first group with room: it stays.
        ctrl_[i] = tag_of(h);
        ++i;
      } else if (ctrl_[target] == kEmpty) {
        place(target, keys_[i], counts_[i], h);
        ctrl_[i] = kEmpty;
        ++i;
      } else {
        // `target` holds an entry not yet placed: swap, then place the
        // entry that landed in slot i.
        std::swap(keys_[i], keys_[target]);
        std::swap(counts_[i], counts_[target]);
        ctrl_[target] = tag_of(h);
      }
    }
    tombstones_ = 0;
  }

  void rehash_for(std::size_t expected) {
    std::size_t want = kGroupWidth;
    while (want * 7 < (expected + 1) * 8) want *= 2;  // keep load <= 7/8
    if (want <= cap_ && size_ != 0) want = cap_ * 2;
    resize(want);
  }

  /// Moves every entry into fresh slot arrays of `want` slots (a power of
  /// two, at least one group, with room for every entry).
  void resize(std::size_t want) {
    std::vector<key_type> old_keys = std::move(keys_);
    std::vector<count_type> old_counts = std::move(counts_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);

    keys_.assign(want, 0);
    counts_.assign(want, 0);
    ctrl_.assign(want, kEmpty);
    cap_ = want;
    group_mask_ = want / kGroupWidth - 1;
    tombstones_ = 0;
    charge_.set(cap_ * kSlotBytes);
    // Keys are distinct and the new table has no tombstones, so each goes
    // straight to the first free slot of its probe sequence.
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] & 0x80) continue;
      const std::uint64_t h = Hash{}(old_keys[i]);
      place(first_free(h), old_keys[i], old_counts[i], h);
    }
  }

  std::vector<key_type> keys_;
  std::vector<count_type> counts_;
  std::vector<std::uint8_t> ctrl_;
  std::size_t cap_ = 0;
  std::size_t group_mask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  obs::LedgerCharge charge_{obs::LedgerAccount::kCountTable};
};

}  // namespace reptile::hash
