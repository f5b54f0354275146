#pragma once
// The distributed k-mer + tile spectrum: paper Steps II and III.
//
// The paper keeps four hash tables per rank — hashKmer/hashTile for the
// entries the rank OWNS (hash(id) % np == rank, true global counts after
// the exchange) and readsKmer/readsTile for the entries of its own reads
// it does not own. K-mers and tiles take the same path through every step,
// so the class keeps one table set per LookupKind and every accessor takes
// the kind as an argument: the owned table, the reads tables (pending
// Step II counts and the persistent read-kmers table), the replica, the
// group table, and the Bloom and peer filters.
//
// Step III is an alltoallv of (id, count) pairs to owners followed by a
// merge; in batch mode (the "Batch Reads Table" heuristic) the exchange runs
// after every chunk of reads and the reads tables are emptied, bounding the
// construction-phase memory footprint.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "hash/hashing.hpp"
#include "hash/owner_filter.hpp"
#include "parallel/heuristics.hpp"
#include "parallel/protocol.hpp"
#include "rtm/comm.hpp"
#include "seq/kmer.hpp"
#include "seq/tile.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile::parallel {

/// (id, count) pair exchanged in Step III.
struct IdCount {
  std::uint64_t id = 0;
  std::uint32_t count = 0;
};
static_assert(std::is_trivially_copyable_v<IdCount>);

/// Sizes/memory snapshot of the four tables (plus replicas); the definition
/// lives in the unified report core (stats/phase_timeline.hpp).
using SpectrumFootprint = stats::SpectrumFootprint;

class DistSpectrum {
 public:
  DistSpectrum(const core::CorrectorParams& params, const Heuristics& heur,
               rtm::Comm& comm);

  /// Step II for one read: k-mers/tiles the rank owns go to its owned
  /// tables, the rest to its reads tables.
  void add_read(std::string_view bases);

  /// Step III: alltoallv the reads tables to their owners, merge received
  /// counts into the owned tables, and clear the reads tables. Collective.
  /// Safe to call repeatedly (batch mode runs it once per chunk; ranks that
  /// exhausted their reads keep participating with empty sends).
  void exchange_to_owners();

  /// Prunes the owned tables below the thresholds (end of Step III).
  /// Collective only in that every rank should do it at the same point.
  void prune();

  /// Read-kmers heuristic: replaces the local counts of the reads tables
  /// (the non-owned IDs seen in this rank's reads) with *global* counts
  /// fetched from the owners; IDs pruned from the global spectrum are kept
  /// with count 0, i.e. known-absent. Collective (two alltoallv rounds per
  /// spectrum). Call after prune().
  void fetch_global_reads_tables();

  /// Allgather replication heuristics: replicate the full spectrum of
  /// `kind` on every rank. Collective.
  void replicate(LookupKind kind);

  /// Partial replication (paper Section V future work): every rank
  /// receives the owned spectra of all ranks in its replication group
  /// (blocks of heuristics().partial_replication_group consecutive ranks),
  /// merged with its own shard into the group tables. Collective; call
  /// after prune(). No-op when the group size is 1.
  void replicate_group();

  /// Frees the reads tables (default mode does not keep them for
  /// correction).
  void drop_reads_tables();

  /// Filter exchange (filter_lookups heuristic, DESIGN.md §9): builds a
  /// blocked-Bloom OwnerFilter over each still-owned table (kinds resolved
  /// by allgather replication are skipped — their owned shards were
  /// cleared) and sends it to every out-of-group peer; then collects the
  /// peers' filters. Byte-capped: the filters held of one kind never take
  /// more bytes than this rank's owned table of that kind. One allreduce
  /// per kind sizes every owner's filter alike, so where the cap allows no
  /// filter below kMaxFilterFpRate no rank sends or expects one of that
  /// kind. Collective; call after prune()/replicate() on the rank
  /// main thread, before the correction service starts (kTagFilterExchange
  /// is the only tagged traffic in flight). Best effort when `retry` is
  /// armed: filters not received within the retry budget stay null and
  /// those owners keep the unfiltered wire path — a lost filter can cost
  /// traffic, never correctness. No-op unless filter_lookups is on.
  void exchange_filters(const RetryPolicy& retry);

  // --- lookups (all local; messaging lives in RemoteSpectrumView) --------
  // Pass canonical IDs.

  /// Count in the owned table; nullopt when this rank is not the owner or
  /// the entry was pruned/absent.
  std::optional<std::uint32_t> owned(LookupKind kind, std::uint64_t id) const {
    return tables(kind).owned.find(id);
  }

  /// Count in the reads table; nullopt when absent.
  std::optional<std::uint32_t> reads(LookupKind kind, std::uint64_t id) const {
    return tables(kind).reads.find(id);
  }

  /// Count in the replicated table (only meaningful after replicate()).
  std::optional<std::uint32_t> replica(LookupKind kind,
                                       std::uint64_t id) const {
    return tables(kind).replica.find(id);
  }

  /// Count in the group table (after replicate_group()); a miss is a
  /// definitive absence when owner_in_my_group(owner_of(id)) holds.
  std::optional<std::uint32_t> group(LookupKind kind, std::uint64_t id) const {
    return tables(kind).group.find(id);
  }

  /// True when `owner` belongs to this rank's replication group.
  bool owner_in_my_group(int owner) const noexcept {
    const int g = heur_.partial_replication_group;
    return g > 1 && owner / g == comm_->rank() / g;
  }

  /// What a peer's exchanged filter says about an ID owned by `owner`.
  /// kNoFilter = no usable filter for that owner (feature off, exchange
  /// lost, the byte cap left none, or the owner's kind is
  /// allgather-replicated) — take the wire path. kDefinitelyAbsent is exact: the owner's pruned table cannot
  /// contain the ID, so the reply would be -1 (count 0).
  enum class FilterAnswer { kNoFilter, kDefinitelyAbsent, kMaybePresent };
  FilterAnswer filter(LookupKind kind, std::uint64_t id, int owner) const;

  /// The filter `owner` sent for `kind`; nullptr where filter() answers
  /// kNoFilter.
  const hash::OwnerFilter* peer_filter(LookupKind kind, int owner) const;

  /// Total bytes of peer filters held after exchange_filters().
  std::size_t filter_bytes() const noexcept { return filter_bytes_; }

  /// Caches a remote reply in the reads table (add_remote heuristic); count
  /// 0 records a definitive absence. The cache is bounded by
  /// core::CorrectorParams::remote_cache_capacity entries per table: beyond
  /// it the oldest cached reply is evicted (FIFO). Entries placed in the
  /// reads tables by fetch_global_reads_tables are never evicted — eviction
  /// only ever costs a redundant remote lookup, never a wrong count.
  void cache_remote(LookupKind kind, std::uint64_t id, std::uint32_t count);

  /// Serve-mode seam: evicts every add_remote-cached reply from the reads
  /// tables (the only correction-phase mutation of the spectrum), restoring
  /// the end-of-construction state so job N's lookups cannot be answered by
  /// job N-1's caches. Local (no communication); every rank calls it when
  /// starting a job.
  void reset_for_job();

  bool owns(std::uint64_t id) const {
    return hash::owner_of(id, comm_->size()) == comm_->rank();
  }

  const core::SpectrumExtractor& extractor() const noexcept {
    return extractor_;
  }
  const Heuristics& heuristics() const noexcept { return heur_; }
  const core::CorrectorParams& params() const noexcept { return params_; }

  SpectrumFootprint footprint() const;

  const hash::CountTable<>& owned_table(LookupKind kind) const noexcept {
    return tables(kind).owned;
  }

  /// Applies `fn(kind, name, table)` to each table a lookup reads after
  /// construction (owned, reads, replica, group), for both kinds.
  template <class Fn>
  void for_each_lookup_table(Fn&& fn) const {
    for (const LookupKind kind : kLookupKinds) {
      const Tables& t = tables(kind);
      fn(kind, "owned", t.owned);
      fn(kind, "reads", t.reads);
      fn(kind, "replica", t.replica);
      fn(kind, "group", t.group);
    }
  }

 private:
  /// The tables of one spectrum (k-mers or tiles).
  struct Tables {
    /// Entries this rank owns (the paper's hashKmer/hashTile).
    hash::CountTable<> owned;
    /// Non-owned entries staged since the last exchange (what the paper
    /// calls readsKmer/readsTile during Step II); cleared by every exchange.
    hash::CountTable<> pending;
    /// Persistent reads table of the read-kmers heuristic (union of all
    /// non-owned IDs of this rank's reads, later refreshed to global
    /// counts), plus the add_remote-cached replies.
    hash::CountTable<> reads;
    /// Insertion order of add_remote-cached entries, for FIFO eviction once
    /// remote_cache_capacity is reached. Holds only cached replies, never
    /// the fetch_global_reads_tables base entries.
    std::deque<std::uint64_t> remote_cache_order;
    hash::CountTable<> replica;
    /// Group table of the partial-replication mode: the merged owned shards
    /// of this rank's replication group.
    hash::CountTable<> group;
    /// Bloom filter of the bloom_construction mode (owner-side singleton
    /// suppression); sized lazily on first use, ledger-charged as filters.
    std::unique_ptr<hash::OwnerFilter> bloom;
    /// Peer membership filters of the filter_lookups mode, indexed by
    /// owning rank; a null slot means "no filter — ask over the wire".
    /// Written once by exchange_filters() on the rank main thread before
    /// the worker and service threads start, read-only afterwards.
    std::vector<std::unique_ptr<hash::OwnerFilter>> peer_filters;
    /// Step II scratch: this kind's IDs of the read being added.
    std::vector<std::uint64_t> scratch;

    std::size_t memory_bytes() const;
  };

  Tables& tables(LookupKind kind) noexcept {
    return tables_[static_cast<std::size_t>(kind)];
  }
  const Tables& tables(LookupKind kind) const noexcept {
    return tables_[static_cast<std::size_t>(kind)];
  }

  /// The owned table's entries as Step III pairs.
  static std::vector<IdCount> owned_entries(const Tables& t);

  /// One spectrum's exchange-and-merge round.
  void exchange_one(Tables& t);

  /// Owner-side insert; with bloom_construction, singletons are parked in
  /// the Bloom filter and admitted to the exact table on second sighting.
  void owner_add(Tables& t, std::uint64_t id, std::uint32_t count);

  /// One spectrum's global-count fetch (read-kmers heuristic).
  void fetch_one(Tables& t);

  core::CorrectorParams params_;
  Heuristics heur_;
  rtm::Comm* comm_;
  core::SpectrumExtractor extractor_;
  /// Indexed by LookupKind.
  std::array<Tables, 2> tables_;
  std::size_t filter_bytes_ = 0;
  /// Makes exchange_filters() one-shot: the filters are rank-lifetime, and
  /// a resident server calls prepare_correction once per job.
  bool filters_exchanged_ = false;
};

}  // namespace reptile::parallel
