#include "parallel/dist_spectrum.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "parallel/wire.hpp"

namespace reptile::parallel {

DistSpectrum::DistSpectrum(const core::CorrectorParams& params,
                           const Heuristics& heur, rtm::Comm& comm)
    : params_(params), heur_(heur), comm_(&comm), extractor_(params) {
  params_.validate();
  heur_.validate();
}

void DistSpectrum::owner_add(Tables& t, std::uint64_t id,
                             std::uint32_t count) {
  if (!heur_.bloom_construction) {
    t.owned.increment(id, count);
    return;
  }
  // Bloom-filter construction (paper Step III note): singletons stay in
  // the filter; the exact table only holds IDs sighted at least twice.
  if (t.owned.contains(id)) {
    t.owned.increment(id, count);
    return;
  }
  if (!t.bloom) {
    // Lazy sizing for 2^20 IDs: a 3% target buys ~9.5 bits per ID, the
    // 1.2 B/ID the performance model charges for this mode.
    t.bloom = std::make_unique<hash::OwnerFilter>(1 << 20, 0.03);
  }
  const std::uint64_t key = hash::owned_set_key(id);
  if (count >= 2) {
    t.owned.increment(id, count);
    t.bloom->insert(key);
    return;
  }
  if (t.bloom->insert(key)) {
    // Second sighting (or a rare false positive): admit, crediting the
    // first sighting parked in the filter.
    t.owned.increment(id, count + 1);
  }
}

void DistSpectrum::add_read(std::string_view bases) {
  Tables& kmers = tables(LookupKind::kKmer);
  Tables& tiles = tables(LookupKind::kTile);
  kmers.scratch.clear();
  tiles.scratch.clear();
  extractor_.extract(bases, kmers.scratch, tiles.scratch);
  const int me = comm_->rank();
  const int np = comm_->size();
  for (Tables& t : tables_) {
    for (const std::uint64_t id : t.scratch) {
      if (hash::owner_of(id, np) == me) {
        owner_add(t, id, 1);
      } else {
        t.pending.increment(id);
        if (heur_.read_kmers) t.reads.increment(id);
      }
    }
  }
}

void DistSpectrum::exchange_one(Tables& t) {
  const int np = comm_->size();
  std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
  t.pending.for_each([&](std::uint64_t id, std::uint32_t count) {
    buckets[static_cast<std::size_t>(hash::owner_of(id, np))].push_back(
        {id, count});
  });
  const auto received = comm_->alltoallv(buckets);
  for (const auto& part : received) {
    for (const IdCount& e : part) owner_add(t, e.id, e.count);
  }
  t.pending.clear();
}

void DistSpectrum::exchange_to_owners() {
  for (Tables& t : tables_) exchange_one(t);
}

void DistSpectrum::prune() {
  tables(LookupKind::kKmer).owned.prune_below(params_.kmer_threshold);
  tables(LookupKind::kTile).owned.prune_below(params_.tile_threshold);
}

void DistSpectrum::fetch_one(Tables& t) {
  const int np = comm_->size();
  // Round 1: send the IDs we want counted to their owners.
  std::vector<std::vector<std::uint64_t>> asks(static_cast<std::size_t>(np));
  t.reads.for_each([&](std::uint64_t id, std::uint32_t) {
    asks[static_cast<std::size_t>(hash::owner_of(id, np))].push_back(id);
  });
  const auto questions = comm_->alltoallv(asks);

  // Answer from the (pruned) owned table, order-aligned with the request.
  std::vector<std::vector<std::uint32_t>> answers(
      static_cast<std::size_t>(np));
  for (int src = 0; src < np; ++src) {
    const auto& q = questions[static_cast<std::size_t>(src)];
    auto& a = answers[static_cast<std::size_t>(src)];
    a.reserve(q.size());
    for (std::uint64_t id : q) {
      a.push_back(t.owned.find(id).value_or(0));
    }
  }
  const auto replies = comm_->alltoallv(answers);

  // Rebuild the reads table with global counts, in the same per-owner order
  // the asks were issued. It is frozen from here on, except for add_remote's
  // cached replies, which grow it by the 7/8 rule.
  auto rebuilt = hash::CountTable<>::frozen(t.reads.size());
  for (int owner = 0; owner < np; ++owner) {
    const auto& sent = asks[static_cast<std::size_t>(owner)];
    const auto& got = replies[static_cast<std::size_t>(owner)];
    for (std::size_t i = 0; i < sent.size(); ++i) {
      rebuilt.increment(sent[i], got[i]);  // count 0 marks known-absent
    }
  }
  t.reads = std::move(rebuilt);
}

void DistSpectrum::fetch_global_reads_tables() {
  for (Tables& t : tables_) fetch_one(t);
}

std::vector<IdCount> DistSpectrum::owned_entries(const Tables& t) {
  std::vector<IdCount> flat;
  flat.reserve(t.owned.size());
  t.owned.for_each(
      [&](std::uint64_t id, std::uint32_t count) { flat.push_back({id, count}); });
  return flat;
}

void DistSpectrum::replicate(LookupKind kind) {
  Tables& t = tables(kind);
  const auto mine = owned_entries(t);
  const auto all =
      comm_->allgatherv(std::span<const IdCount>(mine.data(), mine.size()));
  t.replica = hash::CountTable<>::frozen(all.size());
  for (const IdCount& e : all) t.replica.increment(e.id, e.count);
  // Every rank now resolves this kind from the replica; the owned shard is
  // redundant (no rank will request it remotely in this mode).
  t.owned.clear();
}

void DistSpectrum::replicate_group() {
  const int g = heur_.partial_replication_group;
  if (g <= 1) return;
  const int np = comm_->size();
  const int me = comm_->rank();
  const int my_group = me / g;

  for (Tables& t : tables_) {
    // Send my owned shard to every other member of my group; everyone must
    // participate in the alltoallv regardless of group membership.
    const auto mine = owned_entries(t);
    std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
    for (int dst = 0; dst < np; ++dst) {
      if (dst != me && dst / g == my_group) {
        buckets[static_cast<std::size_t>(dst)] = mine;
      }
    }
    const auto received = comm_->alltoallv(buckets);
    std::size_t entries = mine.size();
    for (const auto& part : received) entries += part.size();
    t.group = hash::CountTable<>::frozen(entries);
    for (const IdCount& e : mine) t.group.increment(e.id, e.count);
    for (const auto& part : received) {
      for (const IdCount& e : part) t.group.increment(e.id, e.count);
    }
  }
}

void DistSpectrum::exchange_filters(const RetryPolicy& retry) {
  // Idempotent across jobs: the filters are RANK-lifetime (built over the
  // pruned owned tables, which never change after construction), so a
  // resident server pays the exchange exactly once. Every rank takes this
  // branch deterministically — no rank can be left waiting on a peer.
  if (filters_exchanged_) return;
  filters_exchanged_ = true;
  if (!heur_.filter_lookups) return;
  const int np = comm_->size();
  const int me = comm_->rank();
  for (Tables& t : tables_) {
    t.peer_filters.clear();
    t.peer_filters.resize(static_cast<std::size_t>(np));
  }
  filter_bytes_ = 0;
  if (np <= 1 || heur_.fully_replicated()) return;

  // Out-of-group peers only: in-group lookups resolve from the replicated
  // group tables and never reach the wire.
  std::vector<int> peers;
  for (int dst = 0; dst < np; ++dst) {
    if (dst != me && !owner_in_my_group(dst)) peers.push_back(dst);
  }
  if (peers.empty()) return;

  // Byte cap, decided the same way on every rank: the filters a rank holds
  // of one kind, one per peer, never outgrow its own owned table of that
  // kind. One reduction per kind gives the smallest share any holder allows
  // (owned-table bytes / its out-of-group peers) and the largest owned
  // entry count. Every owner builds at the rate that fits the largest table
  // into the smallest share (fp_rate_for_bytes is monotone in both), or at
  // filter_fp_rate if that is higher, so every filter fits every holder.
  // Where the rate reaches kMaxFilterFpRate, no rank sends a filter of that
  // kind and none expects one.
  //
  // Phase 1: every rank posts all its (buffered, non-blocking) sends before
  // any rank starts receiving, so the blocking collection below cannot
  // deadlock even without retry timeouts. Kinds resolved by allgather
  // replication never go remote, and their owned shards were cleared by
  // replicate() anyway — no filter to build.
  struct Cap {
    std::size_t share;
    std::size_t entries;
  };
  std::size_t kinds = 0;
  for (const LookupKind kind : kLookupKinds) {
    if (heur_.allgather(kind)) continue;
    const hash::CountTable<>& owned = tables(kind).owned;
    const Cap cap = comm_->allreduce(
        Cap{owned.memory_bytes() / peers.size(), owned.size()},
        [](const Cap& a, const Cap& b) {
          return Cap{std::min(a.share, b.share),
                     std::max(a.entries, b.entries)};
        });
    const double rate = std::max(
        heur_.filter_fp_rate,
        hash::OwnerFilter::fp_rate_for_bytes(cap.entries, cap.share));
    if (rate >= kMaxFilterFpRate) continue;
    ++kinds;
    const auto filter = hash::OwnerFilter::build_from(owned, rate);
    for (int dst : peers) {
      rtm::Payload payload = comm_->make_payload(filter_exchange_bytes(filter));
      encode_filter_exchange_into(payload.data(), kind, filter);
      comm_->send_payload(dst, kTagFilterExchange, std::move(payload));
    }
  }

  // Phase 2: collect one message per (peer, kind with filters). A filter
  // that cannot be decoded (chaos truncation) or never arrives within the
  // retry budget leaves its slot null — that owner keeps the unfiltered
  // wire path.
  const std::size_t expected = peers.size() * kinds;
  const auto accept = [&](const rtm::Message& m) {
    try {
      FilterExchange fx = decode_filter_exchange(m.payload);
      filter_bytes_ += fx.filter.memory_bytes();
      tables(fx.kind).peer_filters[static_cast<std::size_t>(m.source)] =
          std::make_unique<hash::OwnerFilter>(std::move(fx.filter));
    } catch (const std::exception&) {
      // Malformed: drop. Trusting garbled bits could fake false negatives.
    }
  };
  if (!retry.enabled()) {
    for (std::size_t i = 0; i < expected; ++i) {
      accept(comm_->recv(rtm::kAnySource, kTagFilterExchange));
    }
  } else {
    // One overall deadline shared by all expected messages: the exchange is
    // best effort, so there is nothing to retransmit — just stop waiting.
    auto budget = std::chrono::microseconds(
        retry.attempt_timeout_us(retry.max_retries));
    for (std::size_t i = 0; i < expected; ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::optional<rtm::Message> m =
          comm_->recv_for({rtm::kAnySource, kTagFilterExchange}, budget);
      if (!m.has_value()) break;  // budget exhausted: remaining slots stay null
      accept(*m);
      const auto spent = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start);
      budget = budget > spent ? budget - spent : std::chrono::microseconds(0);
    }
  }
}

const hash::OwnerFilter* DistSpectrum::peer_filter(LookupKind kind,
                                                   int owner) const {
  const auto& filters = tables(kind).peer_filters;
  if (owner < 0 || static_cast<std::size_t>(owner) >= filters.size()) {
    return nullptr;
  }
  return filters[static_cast<std::size_t>(owner)].get();
}

DistSpectrum::FilterAnswer DistSpectrum::filter(LookupKind kind,
                                                std::uint64_t id,
                                                int owner) const {
  const hash::OwnerFilter* f = peer_filter(kind, owner);
  if (f == nullptr) return FilterAnswer::kNoFilter;
  // build_from keyed the owner's IDs by owned_set_key: raw IDs, which all
  // share owner_of(id), would crowd into a fraction of the blocks.
  return f->possibly_contains(hash::owned_set_key(id))
             ? FilterAnswer::kMaybePresent
             : FilterAnswer::kDefinitelyAbsent;
}

void DistSpectrum::drop_reads_tables() {
  for (Tables& t : tables_) {
    t.pending.clear();
    t.reads.clear();
    t.remote_cache_order.clear();
  }
}

void DistSpectrum::cache_remote(LookupKind kind, std::uint64_t id,
                                std::uint32_t count) {
  Tables& t = tables(kind);
  if (t.reads.contains(id)) return;  // fetched or already cached
  while (t.remote_cache_order.size() >= params_.remote_cache_capacity) {
    t.reads.erase(t.remote_cache_order.front());
    t.remote_cache_order.pop_front();
  }
  t.reads.increment(id, count);
  t.remote_cache_order.push_back(id);
}

void DistSpectrum::reset_for_job() {
  // The order deques hold exactly the add_remote-cached reply IDs — never
  // the fetch_global_reads_tables base entries — so erasing them restores
  // the reads tables to their end-of-construction state bit for bit.
  for (Tables& t : tables_) {
    for (const std::uint64_t id : t.remote_cache_order) t.reads.erase(id);
    t.remote_cache_order.clear();
  }
}

std::size_t DistSpectrum::Tables::memory_bytes() const {
  std::size_t bytes = owned.memory_bytes() + pending.memory_bytes() +
                      reads.memory_bytes() + replica.memory_bytes() +
                      group.memory_bytes() +
                      remote_cache_order.size() * sizeof(std::uint64_t);
  if (bloom) bytes += bloom->memory_bytes();
  return bytes;
}

SpectrumFootprint DistSpectrum::footprint() const {
  const Tables& kmers = tables(LookupKind::kKmer);
  const Tables& tiles = tables(LookupKind::kTile);
  SpectrumFootprint f;
  f.hash_kmer_entries = kmers.owned.size();
  f.hash_tile_entries = tiles.owned.size();
  f.reads_kmer_entries = kmers.reads.size() + kmers.pending.size();
  f.reads_tile_entries = tiles.reads.size() + tiles.pending.size();
  f.replica_kmer_entries = kmers.replica.size() + kmers.group.size();
  f.replica_tile_entries = tiles.replica.size() + tiles.group.size();
  for (const Tables& t : tables_) f.bytes += t.memory_bytes();
  f.filter_bytes = filter_bytes_;
  f.bytes += filter_bytes_;
  return f;
}

}  // namespace reptile::parallel
