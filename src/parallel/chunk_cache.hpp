#pragma once
// The chunk cache of a correction worker: verbatim remote counts for the
// chunk being corrected, filled by the chunk wavefront's batch replies (and,
// with add_remote under several workers, by scalar replies).
//
// Nearly every reply of the wavefront says "absent": most candidate tiles
// of an untrusted tile are not in the spectrum. Absences therefore go into
// one sorted u64 array per kind (8 bytes an ID, binary-searched), and only
// the few present counts go into a CountTable. Absences arrive a round at a
// time: add_absent() appends, and seal() merges the round's block into the
// sorted run before the next lookup. add() files any count at once; the
// scalar path uses it.
//
// Every byte it keeps is charged to the remote_cache ledger account, so
// memory_bytes() and the ledger agree. Worker-private: no locking.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "hash/count_table.hpp"
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
  /// chunk has not fetched it. Absences appended since the last seal() are
  /// not visible yet.
  std::optional<std::uint32_t> find(std::uint64_t id, LookupKind kind) const {
    const std::vector<std::uint64_t>& absent = absent_[index(kind)];
    const auto sealed = absent.begin() + static_cast<std::ptrdiff_t>(
                                             sealed_[index(kind)]);
    if (std::binary_search(absent.begin(), sealed, id)) return 0u;
    return present_[index(kind)].find(id);
  }

  /// Files a count, 0 for an absence; visible to find() at once.
  void add(std::uint64_t id, LookupKind kind, std::uint32_t count) {
    present_[index(kind)].increment(id, count);
  }

  /// Files an absence from a batch reply; visible after the next seal().
  void add_absent(std::uint64_t id, LookupKind kind) {
    std::vector<std::uint64_t>& absent = absent_[index(kind)];
    const std::size_t capacity = absent.capacity();
    absent.push_back(id);
    if (absent.capacity() != capacity) charge_.set(absent_bytes());
  }

  /// Makes every added absence visible to find(): sorts the block added
  /// since the last seal and merges it into the sorted run.
  void seal() {
    for (std::size_t k = 0; k < 2; ++k) {
      std::vector<std::uint64_t>& absent = absent_[k];
      const auto mid = absent.begin() + static_cast<std::ptrdiff_t>(sealed_[k]);
      std::sort(mid, absent.end());
      std::inplace_merge(absent.begin(), mid, absent.end());
      sealed_[k] = absent.size();
    }
  }

  /// Entries held (present and absent, both kinds).
  std::size_t size() const noexcept {
    return absent_[0].size() + absent_[1].size() + present_[0].size() +
           present_[1].size();
  }

  /// Forgets the chunk. The absent arrays keep their capacity, so the next
  /// chunk refills them without reallocating.
  void clear() {
    for (std::size_t k = 0; k < 2; ++k) {
      absent_[k].clear();
      sealed_[k] = 0;
      present_[k].clear();
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

  std::size_t absent_bytes() const noexcept {
    return (absent_[0].capacity() + absent_[1].capacity()) *
           sizeof(std::uint64_t);
  }

  std::vector<std::uint64_t> absent_[2];
  std::size_t sealed_[2] = {0, 0};
  hash::CountTable<> present_[2];
  obs::LedgerCharge charge_{obs::LedgerAccount::kRemoteCache};
};

}  // namespace reptile::parallel
