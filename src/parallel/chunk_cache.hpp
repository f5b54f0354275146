#pragma once
// The chunk cache of a correction worker: verbatim remote counts for the
// chunk being corrected, filled by the chunk wavefront's batch replies.
//
// Nearly every reply of the wavefront says "absent": most candidate tiles
// of an untrusted tile are not in the spectrum. Absences therefore go into
// one open-addressed ID set per kind (8 bytes a slot, load <= 0.8), and only
// the few present counts go into a CountTable. Every add is visible to
// find() at once and both are O(1): like the spectrum tables (paper
// Section II-B), the cache is hashed, with no ordered arrays to keep up or
// search.
//
// Every byte it keeps is charged to the remote_cache ledger account, so
// memory_bytes() and the ledger agree. Worker-private: no locking.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "hash/count_table.hpp"
#include "hash/hashing.hpp"
#include "obs/ledger.hpp"
#include "parallel/protocol.hpp"

namespace reptile::parallel {

class ChunkCache {
 public:
  ChunkCache() {
    present_[0].bind_ledger_account(obs::LedgerAccount::kRemoteCache);
    present_[1].bind_ledger_account(obs::LedgerAccount::kRemoteCache);
  }

  /// The cached count of `id`, 0 for a cached absence, nullopt when the
  /// chunk has not fetched it.
  std::optional<std::uint32_t> find(std::uint64_t id, LookupKind kind) const {
    if (absent_[index(kind)].contains(id)) return 0u;
    return present_[index(kind)].find(id);
  }

  /// Files the count of an ID the chunk has not cached yet, 0 for an
  /// absence.
  void add(std::uint64_t id, LookupKind kind, std::uint32_t count) {
    if (count == 0) {
      add_absent(id, kind);
    } else {
      present_[index(kind)].increment(id, count);
    }
  }

  /// Files an absence.
  void add_absent(std::uint64_t id, LookupKind kind) {
    if (absent_[index(kind)].insert(id)) {
      charge_.set(absent_[0].slot_bytes() + absent_[1].slot_bytes());
    }
  }

  /// Entries held (present and absent, both kinds).
  std::size_t size() const noexcept {
    return absent_[0].size() + absent_[1].size() + present_[0].size() +
           present_[1].size();
  }

  /// Forgets the chunk. Both structures keep their capacity, so the next
  /// chunk refills them without reallocating.
  void clear() {
    for (std::size_t k = 0; k < 2; ++k) {
      absent_[k].clear();
      present_[k].clear_keep_capacity();
    }
  }

  std::size_t memory_bytes() const noexcept {
    return static_cast<std::size_t>(charge_.recorded()) +
           present_[0].memory_bytes() + present_[1].memory_bytes();
  }

 private:
  static std::size_t index(LookupKind kind) noexcept {
    return kind == LookupKind::kKmer ? 0 : 1;
  }

  /// Set of 64-bit IDs with linear probing. A slot stores hash::mix64(id),
  /// which is bijective, so the stored key is the identity and 0 can mark an
  /// empty slot; the one ID that mixes to 0 is held in a flag instead. The
  /// mixed key's low bits pick the home slot.
  class IdSet {
   public:
    bool contains(std::uint64_t id) const noexcept {
      const std::uint64_t key = hash::mix64(id);
      if (key == 0) return has_zero_;
      if (slots_.empty()) return false;
      for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
        const std::uint64_t s = slots_[i];
        if (s == key) return true;
        if (s == 0) return false;
      }
    }

    /// Adds `id`; returns true when the slot array grew (the caller
    /// re-bills).
    bool insert(std::uint64_t id) {
      const std::uint64_t key = hash::mix64(id);
      if (key == 0) {
        size_ += has_zero_ ? 0 : 1;
        has_zero_ = true;
        return false;
      }
      const bool grew = (size_ + 1) * 5 > slots_.size() * 4;
      if (grew) grow();
      if (place(key)) ++size_;
      return grew;
    }

    std::size_t size() const noexcept { return size_; }
    std::size_t slot_bytes() const noexcept {
      return slots_.capacity() * sizeof(std::uint64_t);
    }

    /// Empties the set, keeping its slot array.
    void clear() noexcept {
      if (size_ != (has_zero_ ? 1 : 0)) {
        std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
      }
      size_ = 0;
      has_zero_ = false;
    }

   private:
    /// Files a non-zero mixed key; false when it was already there.
    bool place(std::uint64_t key) noexcept {
      for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
        if (slots_[i] == key) return false;
        if (slots_[i] == 0) {
          slots_[i] = key;
          return true;
        }
      }
    }

    void grow() {
      std::vector<std::uint64_t> old(
          slots_.empty() ? std::size_t{64} : 2 * slots_.size(), 0);
      old.swap(slots_);
      mask_ = slots_.size() - 1;
      for (const std::uint64_t key : old) {
        if (key != 0) place(key);
      }
    }

    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    bool has_zero_ = false;
  };

  IdSet absent_[2];
  hash::CountTable<> present_[2];
  obs::LedgerCharge charge_{obs::LedgerAccount::kRemoteCache};
};

}  // namespace reptile::parallel
