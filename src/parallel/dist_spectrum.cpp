#include "parallel/dist_spectrum.hpp"

#include <algorithm>
#include <chrono>

#include "parallel/wire.hpp"

namespace reptile::parallel {

DistSpectrum::DistSpectrum(const core::CorrectorParams& params,
                           const Heuristics& heur, rtm::Comm& comm)
    : params_(params), heur_(heur), comm_(&comm), extractor_(params) {
  params_.validate();
  heur_.validate();
}

void DistSpectrum::owner_add(hash::CountTable<>& owned_table,
                             std::unique_ptr<hash::OwnerFilter>& bloom,
                             std::uint64_t id, std::uint32_t count) {
  if (!heur_.bloom_construction) {
    owned_table.increment(id, count);
    return;
  }
  // Bloom-filter construction (paper Step III note): singletons stay in
  // the filter; the exact table only holds IDs sighted at least twice.
  if (owned_table.contains(id)) {
    owned_table.increment(id, count);
    return;
  }
  if (!bloom) {
    // Lazy sizing for 2^20 IDs: a 3% target buys ~9.5 bits per ID, the
    // 1.2 B/ID the performance model charges for this mode.
    bloom = std::make_unique<hash::OwnerFilter>(1 << 20, 0.03);
  }
  const std::uint64_t key = hash::owned_set_key(id);
  if (count >= 2) {
    owned_table.increment(id, count);
    bloom->insert(key);
    return;
  }
  if (bloom->insert(key)) {
    // Second sighting (or a rare false positive): admit, crediting the
    // first sighting parked in the filter.
    owned_table.increment(id, count + 1);
  }
}

void DistSpectrum::add_read(std::string_view bases) {
  kmer_scratch_.clear();
  tile_scratch_.clear();
  extractor_.extract(bases, kmer_scratch_, tile_scratch_);
  const int me = comm_->rank();
  const int np = comm_->size();
  for (seq::kmer_id_t id : kmer_scratch_) {
    if (hash::owner_of(id, np) == me) {
      owner_add(hash_kmer_, bloom_kmer_, id, 1);
    } else {
      pending_kmer_.increment(id);
      if (heur_.read_kmers) reads_kmer_.increment(id);
    }
  }
  for (seq::tile_id_t id : tile_scratch_) {
    if (hash::owner_of(id, np) == me) {
      owner_add(hash_tile_, bloom_tile_, id, 1);
    } else {
      pending_tile_.increment(id);
      if (heur_.read_kmers) reads_tile_.increment(id);
    }
  }
}

template <class Table>
std::vector<std::vector<IdCount>> DistSpectrum::bucket_by_owner(
    const Table& table) const {
  const int np = comm_->size();
  std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
  table.for_each([&](std::uint64_t id, std::uint32_t count) {
    buckets[static_cast<std::size_t>(hash::owner_of(id, np))].push_back(
        {id, count});
  });
  return buckets;
}

void DistSpectrum::exchange_one(hash::CountTable<>& pending_table,
                                hash::CountTable<>& owned_table,
                                std::unique_ptr<hash::OwnerFilter>& bloom) {
  const auto buckets = bucket_by_owner(pending_table);
  const auto received = comm_->alltoallv(buckets);
  for (const auto& part : received) {
    for (const IdCount& e : part) owner_add(owned_table, bloom, e.id, e.count);
  }
  pending_table.clear();
}

void DistSpectrum::exchange_to_owners() {
  exchange_one(pending_kmer_, hash_kmer_, bloom_kmer_);
  exchange_one(pending_tile_, hash_tile_, bloom_tile_);
}

void DistSpectrum::prune() {
  hash_kmer_.prune_below(params_.kmer_threshold);
  hash_tile_.prune_below(params_.tile_threshold);
}

void DistSpectrum::fetch_one(hash::CountTable<>& reads_table,
                             const hash::CountTable<>& owned_table) {
  const int np = comm_->size();
  // Round 1: send the IDs we want counted to their owners.
  std::vector<std::vector<std::uint64_t>> asks(static_cast<std::size_t>(np));
  reads_table.for_each([&](std::uint64_t id, std::uint32_t) {
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
      a.push_back(owned_table.find(id).value_or(0));
    }
  }
  const auto replies = comm_->alltoallv(answers);

  // Rebuild the reads table with global counts, in the same per-owner order
  // the asks were issued.
  hash::CountTable<> rebuilt(reads_table.size());
  for (int owner = 0; owner < np; ++owner) {
    const auto& sent = asks[static_cast<std::size_t>(owner)];
    const auto& got = replies[static_cast<std::size_t>(owner)];
    for (std::size_t i = 0; i < sent.size(); ++i) {
      rebuilt.increment(sent[i], got[i]);  // count 0 marks known-absent
    }
  }
  reads_table = std::move(rebuilt);
}

void DistSpectrum::fetch_global_reads_tables() {
  fetch_one(reads_kmer_, hash_kmer_);
  fetch_one(reads_tile_, hash_tile_);
}

void DistSpectrum::replicate_kmers() {
  const auto mine = hash_kmer_.entries();
  std::vector<IdCount> flat;
  flat.reserve(mine.size());
  for (const auto& [id, count] : mine) flat.push_back({id, count});
  const auto all =
      comm_->allgatherv(std::span<const IdCount>(flat.data(), flat.size()));
  replica_kmer_ = hash::CountTable<>(all.size());
  for (const IdCount& e : all) replica_kmer_.increment(e.id, e.count);
  kmers_replicated_ = true;
  // Every rank now resolves k-mers from the replica; the owned shard is
  // redundant (no rank will request k-mers remotely in this mode).
  hash_kmer_.clear();
}

void DistSpectrum::replicate_tiles() {
  const auto mine = hash_tile_.entries();
  std::vector<IdCount> flat;
  flat.reserve(mine.size());
  for (const auto& [id, count] : mine) flat.push_back({id, count});
  const auto all =
      comm_->allgatherv(std::span<const IdCount>(flat.data(), flat.size()));
  replica_tile_ = hash::CountTable<>(all.size());
  for (const IdCount& e : all) replica_tile_.increment(e.id, e.count);
  tiles_replicated_ = true;
  hash_tile_.clear();
}

void DistSpectrum::replicate_group() {
  const int g = heur_.partial_replication_group;
  if (g <= 1) return;
  const int np = comm_->size();
  const int me = comm_->rank();
  const int my_group = me / g;

  auto replicate_one = [&](const hash::CountTable<>& owned,
                           hash::CountTable<>& group_table) {
    // Send my owned shard to every other member of my group; everyone must
    // participate in the alltoallv regardless of group membership.
    const auto mine = owned.entries();
    std::vector<IdCount> flat;
    flat.reserve(mine.size());
    for (const auto& [id, count] : mine) flat.push_back({id, count});
    std::vector<std::vector<IdCount>> buckets(static_cast<std::size_t>(np));
    for (int dst = 0; dst < np; ++dst) {
      if (dst != me && dst / g == my_group) {
        buckets[static_cast<std::size_t>(dst)] = flat;
      }
    }
    const auto received = comm_->alltoallv(buckets);
    group_table = hash::CountTable<>(owned.size() * static_cast<std::size_t>(g));
    for (const auto& [id, count] : mine) group_table.increment(id, count);
    for (const auto& part : received) {
      for (const IdCount& e : part) group_table.increment(e.id, e.count);
    }
  };
  replicate_one(hash_kmer_, group_kmer_);
  replicate_one(hash_tile_, group_tile_);
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
  peer_filter_kmer_.clear();
  peer_filter_kmer_.resize(static_cast<std::size_t>(np));
  peer_filter_tile_.clear();
  peer_filter_tile_.resize(static_cast<std::size_t>(np));
  filter_bytes_ = 0;
  if (np <= 1 || heur_.fully_replicated()) return;

  // Kinds resolved by allgather replication never go remote, and their
  // owned shards were cleared by replicate_* anyway — no filter to build.
  std::vector<std::pair<LookupKind, const hash::CountTable<>*>> kinds;
  if (!heur_.allgather_kmers) kinds.emplace_back(LookupKind::kKmer, &hash_kmer_);
  if (!heur_.allgather_tiles) kinds.emplace_back(LookupKind::kTile, &hash_tile_);
  if (kinds.empty()) return;

  // Out-of-group peers only: in-group lookups resolve from the replicated
  // group tables and never reach the wire.
  std::vector<int> peers;
  for (int dst = 0; dst < np; ++dst) {
    if (dst != me && !owner_in_my_group(dst)) peers.push_back(dst);
  }
  if (peers.empty()) return;

  // Phase 1: every rank posts all its (buffered, non-blocking) sends before
  // any rank starts receiving, so the blocking collection below cannot
  // deadlock even without retry timeouts.
  for (const auto& [kind, table] : kinds) {
    const hash::OwnerFilter filter =
        hash::OwnerFilter::build_from(*table, heur_.filter_fp_rate);
    for (int dst : peers) {
      rtm::Payload payload = comm_->make_payload(filter_exchange_bytes(filter));
      encode_filter_exchange_into(payload.data(), kind, filter);
      comm_->send_payload(dst, kTagFilterExchange, std::move(payload));
    }
  }

  // Phase 2: collect one message per (peer, kind). A filter that cannot be
  // decoded (chaos truncation) or never arrives within the retry budget
  // leaves its slot null — that owner keeps the unfiltered wire path.
  const std::size_t expected = peers.size() * kinds.size();
  const auto accept = [&](const rtm::Message& m) {
    try {
      FilterExchange fx = decode_filter_exchange(m.payload);
      auto& slot = (fx.kind == LookupKind::kKmer ? peer_filter_kmer_
                                                 : peer_filter_tile_)
          [static_cast<std::size_t>(m.source)];
      filter_bytes_ += fx.filter.memory_bytes();
      slot = std::make_unique<hash::OwnerFilter>(std::move(fx.filter));
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
    const auto is_filter = [](const rtm::Message& m) {
      return m.tag == kTagFilterExchange;
    };
    for (std::size_t i = 0; i < expected; ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::optional<rtm::Message> m = comm_->recv_match_for(is_filter, budget);
      if (!m.has_value()) break;  // budget exhausted: remaining slots stay null
      accept(*m);
      const auto spent = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start);
      budget = budget > spent ? budget - spent : std::chrono::microseconds(0);
    }
  }
}

DistSpectrum::FilterAnswer DistSpectrum::filter_kmer(seq::kmer_id_t id,
                                                     int owner) const {
  if (owner < 0 || static_cast<std::size_t>(owner) >= peer_filter_kmer_.size()) {
    return FilterAnswer::kNoFilter;
  }
  const auto& filter = peer_filter_kmer_[static_cast<std::size_t>(owner)];
  if (!filter) return FilterAnswer::kNoFilter;
  return filter->possibly_contains(id) ? FilterAnswer::kMaybePresent
                                       : FilterAnswer::kDefinitelyAbsent;
}

DistSpectrum::FilterAnswer DistSpectrum::filter_tile(seq::tile_id_t id,
                                                     int owner) const {
  if (owner < 0 || static_cast<std::size_t>(owner) >= peer_filter_tile_.size()) {
    return FilterAnswer::kNoFilter;
  }
  const auto& filter = peer_filter_tile_[static_cast<std::size_t>(owner)];
  if (!filter) return FilterAnswer::kNoFilter;
  return filter->possibly_contains(id) ? FilterAnswer::kMaybePresent
                                       : FilterAnswer::kDefinitelyAbsent;
}

void DistSpectrum::drop_reads_tables() {
  pending_kmer_.clear();
  pending_tile_.clear();
  reads_kmer_.clear();
  reads_tile_.clear();
  remote_cache_order_kmer_.clear();
  remote_cache_order_tile_.clear();
}

std::optional<std::uint32_t> DistSpectrum::owned_kmer(seq::kmer_id_t id) const {
  return hash_kmer_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::owned_tile(seq::tile_id_t id) const {
  return hash_tile_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::reads_kmer(seq::kmer_id_t id) const {
  return reads_kmer_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::reads_tile(seq::tile_id_t id) const {
  return reads_tile_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::replica_kmer(
    seq::kmer_id_t id) const {
  return replica_kmer_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::replica_tile(
    seq::tile_id_t id) const {
  return replica_tile_.find(id);
}

std::optional<std::uint32_t> DistSpectrum::group_kmer(seq::kmer_id_t id) const {
  return group_kmer_.find(id);
}
std::optional<std::uint32_t> DistSpectrum::group_tile(seq::tile_id_t id) const {
  return group_tile_.find(id);
}

void DistSpectrum::cache_into(hash::CountTable<>& table,
                              std::deque<std::uint64_t>& order,
                              std::uint64_t id, std::uint32_t count) {
  if (table.contains(id)) return;  // fetched or already cached
  while (order.size() >= params_.remote_cache_capacity) {
    table.erase(order.front());
    order.pop_front();
  }
  table.increment(id, count);
  order.push_back(id);
}

void DistSpectrum::cache_remote_kmer(seq::kmer_id_t id, std::uint32_t count) {
  cache_into(reads_kmer_, remote_cache_order_kmer_, id, count);
}
void DistSpectrum::cache_remote_tile(seq::tile_id_t id, std::uint32_t count) {
  cache_into(reads_tile_, remote_cache_order_tile_, id, count);
}

void DistSpectrum::reset_for_job() {
  // The order deques hold exactly the add_remote-cached reply IDs — never
  // the fetch_global_reads_tables base entries — so erasing them restores
  // the reads tables to their end-of-construction state bit for bit.
  for (const std::uint64_t id : remote_cache_order_kmer_) {
    reads_kmer_.erase(id);
  }
  remote_cache_order_kmer_.clear();
  for (const std::uint64_t id : remote_cache_order_tile_) {
    reads_tile_.erase(id);
  }
  remote_cache_order_tile_.clear();
}

SpectrumFootprint DistSpectrum::footprint() const {
  SpectrumFootprint f;
  f.hash_kmer_entries = hash_kmer_.size();
  f.hash_tile_entries = hash_tile_.size();
  f.reads_kmer_entries = reads_kmer_.size() + pending_kmer_.size();
  f.reads_tile_entries = reads_tile_.size() + pending_tile_.size();
  f.replica_kmer_entries = replica_kmer_.size();
  f.replica_tile_entries = replica_tile_.size();
  f.replica_kmer_entries += group_kmer_.size();
  f.replica_tile_entries += group_tile_.size();
  f.bytes = hash_kmer_.memory_bytes() + hash_tile_.memory_bytes() +
            pending_kmer_.memory_bytes() + pending_tile_.memory_bytes() +
            reads_kmer_.memory_bytes() + reads_tile_.memory_bytes() +
            replica_kmer_.memory_bytes() + replica_tile_.memory_bytes() +
            group_kmer_.memory_bytes() + group_tile_.memory_bytes();
  f.bytes += (remote_cache_order_kmer_.size() +
              remote_cache_order_tile_.size()) *
             sizeof(std::uint64_t);
  if (bloom_kmer_) f.bytes += bloom_kmer_->memory_bytes();
  if (bloom_tile_) f.bytes += bloom_tile_->memory_bytes();
  f.filter_bytes = filter_bytes_;
  f.bytes += filter_bytes_;
  return f;
}

}  // namespace reptile::parallel
