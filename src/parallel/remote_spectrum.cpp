#include "parallel/remote_spectrum.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "hash/hashing.hpp"
#include "obs/trace.hpp"
#include "parallel/wire.hpp"

namespace reptile::parallel {

/// The wavefront's private view: answers from the local links of the
/// chain and the chunk cache, queues every ID only its owner knows, and
/// reports that lookup degraded, so the corrector holds the read on the
/// tile until the next round has fetched it. Counts nothing in the view's
/// stats: the real pass does that.
class RemoteSpectrumView::Probe final : public core::SpectrumView {
 public:
  explicit Probe(RemoteSpectrumView& view) : view_(&view) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    return lookup(view_->spectrum_->extractor().canon_kmer(id),
                  LookupKind::kKmer);
  }
  std::uint32_t tile_count(seq::tile_id_t id) override {
    return lookup(view_->spectrum_->extractor().canon_tile(id),
                  LookupKind::kTile);
  }
  const core::LookupStats& stats() const override { return stats_; }
  std::uint64_t degraded_lookups() const override { return queued_; }

  /// IDs queued since construction (repeats included).
  std::uint64_t queued() const noexcept { return queued_; }

 private:
  std::uint32_t lookup(std::uint64_t id, LookupKind kind) {
    const Resolution r = view_->resolve(id, kind);
    if (r.link != Link::kRemote) return r.count;
    view_->enqueue(r, id, kind);
    ++queued_;
    return 0;
  }

  RemoteSpectrumView* view_;
  core::LookupStats stats_;
  std::uint64_t queued_ = 0;
};

RemoteSpectrumView::RemoteSpectrumView(rtm::Comm& comm, DistSpectrum& spectrum,
                                       int worker_slot,
                                       bool cache_remote_locally,
                                       RetryPolicy retry,
                                       const Heuristics* heur_override,
                                       const core::CorrectorParams* params_override)
    : comm_(&comm),
      spectrum_(&spectrum),
      heur_(heur_override == nullptr ? spectrum.heuristics() : *heur_override),
      corrector_(params_override == nullptr ? spectrum.params()
                                            : *params_override),
      worker_slot_(worker_slot),
      cache_remote_locally_(cache_remote_locally),
      retry_(retry) {
  retry_.validate();
}

void RemoteSpectrumView::cache_local(std::uint64_t id, LookupKind kind,
                                     std::uint32_t count) {
  if (cache_.size() >= corrector_.params().prefetch_capacity) return;
  cache_.add(id, kind, count);
}

obs::Histogram* RemoteSpectrumView::latency_histogram(const char* name,
                                                      obs::Histogram*& slot,
                                                      bool& resolved) {
  if (!resolved) {
    resolved = true;
    slot = obs::Registry::global().histogram(name, comm_->rank());
  }
  return slot;
}

RemoteSpectrumView::Resolution RemoteSpectrumView::resolve(
    std::uint64_t id, LookupKind kind) const {
  const bool is_kmer = kind == LookupKind::kKmer;
  Resolution r;
  if (is_kmer ? heur_.allgather_kmers : heur_.allgather_tiles) {
    r.count = (is_kmer ? spectrum_->replica_kmer(id)
                       : spectrum_->replica_tile(id))
                  .value_or(0);
    return r;
  }

  r.owner = hash::owner_of(id, comm_->size());
  if (r.owner == comm_->rank()) {
    // We are the owner: a miss in our shard is a definitive global absence.
    r.count = (is_kmer ? spectrum_->owned_kmer(id)
                       : spectrum_->owned_tile(id))
                  .value_or(0);
    return r;
  }

  if (spectrum_->owner_in_my_group(r.owner)) {
    // Partial replication: we hold the owner's shard; a miss is definitive.
    r.link = Link::kGroup;
    r.count = (is_kmer ? spectrum_->group_kmer(id)
                       : spectrum_->group_tile(id))
                  .value_or(0);
    return r;
  }

  if (heur_.read_kmers) {
    const auto c = is_kmer ? spectrum_->reads_kmer(id)
                           : spectrum_->reads_tile(id);
    if (c) {
      r.link = Link::kReadsTable;
      r.count = *c;
      return r;
    }
  }

  if (heur_.filter_lookups) {
    // The owner's exchanged membership filter. "Definitely absent" is
    // exact: the owner's pruned shard cannot contain the ID, so the wire
    // reply would be -1 and the count 0 — answer locally.
    const auto fa = is_kmer ? spectrum_->filter_kmer(id, r.owner)
                            : spectrum_->filter_tile(id, r.owner);
    if (fa == DistSpectrum::FilterAnswer::kDefinitelyAbsent) {
      r.link = Link::kFilter;
      return r;
    }
    r.filter_said_maybe = fa == DistSpectrum::FilterAnswer::kMaybePresent;
  }

  if (heur_.batch_lookups || cache_remote_locally_) {
    // Chunk cache: counts are verbatim remote replies, so a hit is exactly
    // what the scalar round trip would have returned.
    if (const auto c = cache_.find(id, kind)) {
      r.link = Link::kCache;
      r.count = *c;
      return r;
    }
  }
  r.link = Link::kRemote;
  return r;
}

void RemoteSpectrumView::enqueue(const Resolution& r, std::uint64_t id,
                                 LookupKind kind) {
  bucket(r.owner, kind).push_back(id);
  if (kind == LookupKind::kKmer) {
    ++remote_.batch_kmer_ids_raw;
  } else {
    ++remote_.batch_tile_ids_raw;
  }
}

void RemoteSpectrumView::charge_wavefront() {
  std::size_t bytes = wave_bases_.capacity() * sizeof(std::string) +
                      cursors_.capacity() * sizeof(core::TileCorrector::Cursor) +
                      active_.capacity() * sizeof(std::uint32_t) +
                      tile_scratch_.capacity() * sizeof(seq::tile_id_t) +
                      buckets_.capacity() * sizeof(buckets_[0]);
  for (const auto& b : buckets_) bytes += b.capacity() * sizeof(std::uint64_t);
  for (const auto& b : wave_bases_) bytes += b.capacity();
  wave_charge_.set(bytes);
}

void RemoteSpectrumView::prefetch_chunk(const seq::ReadBatch& batch) {
  if (!heur_.batch_lookups) return;
  cache_.clear();
  // Nothing to fetch when every owner's tables are local: one rank, both
  // spectra replicated, or one replication group spanning the world.
  const int np = comm_->size();
  bool any_remote = false;
  for (int owner = 0; owner < np && !any_remote; ++owner) {
    any_remote =
        owner != comm_->rank() && !spectrum_->owner_in_my_group(owner);
  }
  if (!any_remote || heur_.fully_replicated()) return;

  obs::SpanScope span("lookup", "batch_prefetch");
  const std::int64_t start = obs::Tracer::instance().now_ns();
  buckets_.resize(2 * static_cast<std::size_t>(np));
  wave_bases_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    wave_bases_[i] = batch[i].bases;
  }
  cursors_.assign(batch.size(), {});
  active_.resize(batch.size());
  for (std::uint32_t i = 0; i < active_.size(); ++i) active_[i] = i;
  Probe probe(*this);

  // Round 0: every read's gate tiles, fetched before any read advances.
  for (const seq::Read& r : batch) {
    tile_scratch_.clear();
    spectrum_->extractor().tile_codec().extract(r.bases, tile_scratch_);
    for (const seq::tile_id_t id : tile_scratch_) probe.tile_count(id);
  }
  // Then rounds of: exchange what was queued, advance every unfinished
  // read until it finishes or blocks on an ID it had to queue.
  std::uint64_t rounds = 0;
  std::uint64_t exchanged = 0;  // probe.queued() at the last exchange
  while (true) {
    if (probe.queued() != exchanged) {
      exchanged = probe.queued();
      ++rounds;
      if (!exchange_round()) break;
    }
    std::size_t kept = 0;
    for (const std::uint32_t i : active_) {
      if (!corrector_.advance(wave_bases_[i], batch[i].quals, cursors_[i],
                              probe, /*hold_degraded=*/true)) {
        active_[kept++] = i;
      }
    }
    active_.resize(kept);
    if (probe.queued() == exchanged) break;  // every read finished
  }
  charge_wavefront();
  span.arg("rounds", rounds);
  span.arg("reads_left", active_.size());
  if (obs::Histogram* h = latency_histogram("reptile_batch_prefetch_us",
                                            batch_hist_,
                                            batch_hist_resolved_)) {
    h->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(obs::Tracer::instance().now_ns() - start, 0) /
        1000));
  }
}

bool RemoteSpectrumView::exchange_round() {
  const int np = comm_->size();
  // Sort and dedupe each bucket; cap the round so the cache stays within
  // prefetch_capacity (IDs beyond the cap stay unresolved and go scalar).
  const std::size_t cap = corrector_.params().prefetch_capacity;
  std::size_t room = cap > cache_.size() ? cap - cache_.size() : 0;
  bool full = false;
  std::size_t total = 0;
  for (auto& ids : buckets_) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.size() > room) {
      ids.resize(room);
      full = true;
    }
    room -= ids.size();
    total += ids.size();
  }
  charge_wavefront();

  // One vectored request per owner per kind, all sent before any reply is
  // awaited so the owners' communication threads overlap their work.
  struct Pending {
    int owner;
    LookupKind kind;
    const std::vector<std::uint64_t>* ids;
    std::uint64_t seq;
  };
  std::vector<Pending> pending;
  obs::SpanScope span("lookup", "batch_round");
  const auto send_batch = [&](const Pending& p) {
    // Zero-copy request: encode the header + ID vector straight into an
    // arena payload and transfer ownership — no scratch vector, no send
    // copy.
    rtm::Payload payload =
        comm_->make_payload(batch_request_bytes(p.ids->size()));
    encode_batch_request_into(payload.data(), p.kind,
                              batch_reply_tag(p.kind, worker_slot_),
                              std::span<const std::uint64_t>(p.ids->data(),
                                                             p.ids->size()),
                              p.seq);
    comm_->send_payload(p.owner, kTagBatchRequest, std::move(payload));
    // Links this request to its handling on p.owner's comm thread; the
    // service derives the same id from the wire fields alone.
    obs::Tracer::instance().flow_start(
        "flow", "batch",
        obs::flow_id(comm_->rank(), batch_reply_tag(p.kind, worker_slot_),
                     p.seq));
  };
  for (const LookupKind kind : {LookupKind::kKmer, LookupKind::kTile}) {
    for (int owner = 0; owner < np; ++owner) {
      const auto& ids = bucket(owner, kind);
      if (ids.empty()) continue;
      pending.push_back({owner, kind, &ids, next_seq_++});
      send_batch(pending.back());
      ++remote_.batch_requests;
      if (kind == LookupKind::kKmer) {
        remote_.batch_kmer_ids += ids.size();
      } else {
        remote_.batch_tile_ids += ids.size();
      }
    }
  }
  span.arg("requests", pending.size());
  span.arg("ids", total);

  bool abandoned = false;
  rtm::check::RunChecker* check = comm_->world().checker();
  comm_wait_.start();
  for (const Pending& p : pending) {
    const int tag = batch_reply_tag(p.kind, worker_slot_);
    // Validates and consumes one candidate reply; false = not ours (stale
    // retransmission leftovers, malformed bytes), keep waiting.
    const auto consume = [&](const rtm::Message& msg) {
      BatchReplyView reply;
      try {
        reply = view_batch_reply(msg.payload);
      } catch (const std::runtime_error&) {
        ++remote_.malformed_replies;
        return false;
      }
      if (reply.seq != p.seq) {
        ++remote_.stale_replies_suppressed;
        return false;
      }
      if (reply.count != p.ids->size()) {
        throw std::runtime_error(
            "batched lookup reply length does not match the request");
      }
      for (std::size_t i = 0; i < reply.count; ++i) {
        const std::uint64_t id = (*p.ids)[i];
        const std::int32_t count = reply.count_at(i);
        if (count > 0) {
          cache_.add(id, p.kind, static_cast<std::uint32_t>(count));
          continue;
        }
        cache_.add_absent(id, p.kind);
        if (heur_.filter_lookups && count < 0) {
          // Every batched ID the filter let through that the owner reports
          // absent was a wasted wire slot: a filter false positive. (IDs
          // with no usable filter don't count — there was nothing to ask.)
          const auto fa = p.kind == LookupKind::kKmer
                              ? spectrum_->filter_kmer(id, p.owner)
                              : spectrum_->filter_tile(id, p.owner);
          if (fa == DistSpectrum::FilterAnswer::kMaybePresent) {
            ++remote_.filter_false_positives;
          }
        }
      }
      return true;
    };

    if (!retry_.enabled()) {
      while (!consume(comm_->recv(p.owner, tag))) {
      }
      continue;
    }
    bool got = false;
    for (int attempt = 0; !got; ++attempt) {
      if (attempt > 0) {
        ++remote_.batch_retries;
        send_batch(p);
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(retry_.attempt_timeout_us(attempt));
      while (!got) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto msg = comm_->recv_match_for(
            [&](const rtm::Message& m) {
              return m.source == p.owner && m.tag == tag;
            },
            deadline - now);
        if (!msg) {
          if (check != nullptr && check->aborted()) {
            comm_wait_.stop();
            check->throw_abort();
          }
          continue;  // either the deadline passed or a spurious wake
        }
        got = consume(*msg);
      }
      if (got) break;
      ++remote_.lookup_timeouts;
      if (attempt >= retry_.max_retries) {
        // Abandon this batch: its IDs stay out of the cache, the wavefront
        // ends after this round, and the corrector's lookups of them take
        // the (individually retried) scalar path.
        ++remote_.batch_abandoned;
        abandoned = true;
        break;
      }
    }
  }
  comm_wait_.stop();
  cache_.seal();
  for (auto& ids : buckets_) ids.clear();
  return !abandoned && !full;
}

std::uint32_t RemoteSpectrumView::remote_lookup(int owner, std::uint64_t id,
                                                LookupKind kind,
                                                bool filter_said_maybe) {
  const int reply_to = reply_tag(kind, worker_slot_);
  const std::uint64_t seq = next_seq_++;
  // One scalar round trip = one span; retransmissions stay inside it.
  obs::SpanScope span("lookup", "lookup_rtt");
  span.arg("owner", static_cast<std::uint64_t>(owner));
  const std::int64_t rtt_start = obs::Tracer::instance().now_ns();
  const auto send_request = [&] {
    obs::Tracer::instance().flow_start("flow", "lookup",
                                       obs::flow_id(comm_->rank(), reply_to,
                                                    seq));
    if (heur_.universal) {
      UniversalLookupRequest req;
      req.kind = kind;
      req.id = id;
      req.reply_to = reply_to;
      req.seq = seq;
      comm_->send_value(owner, kTagUniversalRequest, req);
    } else {
      LookupRequest req;
      req.id = id;
      req.seq = seq;
      req.reply_to = reply_to;
      comm_->send_value(
          owner,
          kind == LookupKind::kKmer ? kTagKmerRequest : kTagTileRequest, req);
    }
  };
  // Validates one candidate reply; nullopt = not ours (duplicate or stale
  // retransmission leftovers, truncated bytes), keep waiting. Runs even
  // with retries disabled: a chaos-duplicated reply must never be read as
  // the answer to the NEXT lookup on this tag.
  const auto consume =
      [&](const rtm::Message& msg) -> std::optional<LookupReply> {
    if (msg.payload.size() != sizeof(LookupReply)) {
      ++remote_.malformed_replies;
      return std::nullopt;
    }
    const auto r = msg.as_value<LookupReply>();
    if (r.seq != seq) {
      ++remote_.stale_replies_suppressed;
      return std::nullopt;
    }
    return r;
  };

  comm_wait_.start();
  std::optional<LookupReply> reply;
  if (!retry_.enabled()) {
    send_request();
    while (!reply) reply = consume(comm_->recv(owner, reply_to));
  } else {
    rtm::check::RunChecker* check = comm_->world().checker();
    for (int attempt = 0; !reply; ++attempt) {
      if (attempt > 0) ++remote_.lookup_retries;
      send_request();  // idempotent: every attempt carries the same seq
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(retry_.attempt_timeout_us(attempt));
      while (!reply) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto msg = comm_->recv_match_for(
            [&](const rtm::Message& m) {
              return m.source == owner && m.tag == reply_to;
            },
            deadline - now);
        if (!msg) {
          if (check != nullptr && check->aborted()) {
            comm_wait_.stop();
            check->throw_abort();
          }
          continue;  // either the deadline passed or a spurious wake
        }
        reply = consume(*msg);
      }
      if (reply) break;
      ++remote_.lookup_timeouts;
      if (attempt >= retry_.max_retries) {
        // Graceful degradation: give up on this ID and report a
        // conservative 0 WITHOUT caching it anywhere. The bump of
        // degraded_lookups() tells the corrector the evidence is
        // incomplete, so it skips the position instead of acting on it.
        comm_wait_.stop();
        if (kind == LookupKind::kKmer) {
          ++remote_.remote_kmer_lookups;
        } else {
          ++remote_.remote_tile_lookups;
        }
        ++remote_.degraded_lookups;
        return 0;
      }
    }
  }
  comm_wait_.stop();
  if (obs::Histogram* h = latency_histogram("reptile_lookup_rtt_us",
                                            rtt_hist_, rtt_hist_resolved_)) {
    h->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(
            obs::Tracer::instance().now_ns() - rtt_start, 0) /
        1000));
  }

  if (kind == LookupKind::kKmer) {
    ++remote_.remote_kmer_lookups;
    if (reply->count < 0) ++remote_.remote_kmer_absent;
  } else {
    ++remote_.remote_tile_lookups;
    if (reply->count < 0) ++remote_.remote_tile_absent;
  }
  if (filter_said_maybe && reply->count < 0) {
    // The peer filter let this ID through and the owner reports it absent:
    // a false positive — the round trip the filter exists to avoid.
    ++remote_.filter_false_positives;
  }
  const std::uint32_t count =
      reply->count < 0 ? 0 : static_cast<std::uint32_t>(reply->count);
  if (heur_.add_remote) {
    // Cache the reply — absences included — so a future lookup of the same
    // ID stays local ("this mode will be useful if the k-mers or tiles
    // needed from remote ranks will be needed in the future"). With
    // concurrent workers the shared reads tables are off limits, so the
    // reply lands in this worker's chunk-local cache instead.
    if (cache_remote_locally_) {
      cache_local(id, kind, count);
    } else if (kind == LookupKind::kKmer) {
      spectrum_->cache_remote_kmer(id, count);
    } else {
      spectrum_->cache_remote_tile(id, count);
    }
  }
  return count;
}

std::uint32_t RemoteSpectrumView::lookup(std::uint64_t id, LookupKind kind) {
  const Resolution r = resolve(id, kind);
  switch (r.link) {
    case Link::kLocal:
      return r.count;
    case Link::kGroup:
      ++remote_.group_lookups;
      return r.count;
    case Link::kReadsTable:
      ++remote_.reads_table_hits;
      return r.count;
    case Link::kFilter:
      ++remote_.filter_neg_hits;
      return 0;
    case Link::kCache:
      ++remote_.prefetch_hits;
      return r.count;
    case Link::kRemote:
      break;
  }
  if (heur_.batch_lookups || cache_remote_locally_) ++remote_.prefetch_misses;
  return remote_lookup(r.owner, id, kind, r.filter_said_maybe);
}

std::uint32_t RemoteSpectrumView::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const std::uint32_t c =
      lookup(spectrum_->extractor().canon_kmer(id), LookupKind::kKmer);
  if (c == 0) ++stats_.kmer_misses;
  return c;
}

std::uint32_t RemoteSpectrumView::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const std::uint32_t c =
      lookup(spectrum_->extractor().canon_tile(id), LookupKind::kTile);
  if (c == 0) ++stats_.tile_misses;
  return c;
}

}  // namespace reptile::parallel
