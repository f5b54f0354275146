#pragma once
// Wire protocol of the correction-phase lookup messages.
//
// Non-universal mode (paper default): the requesting rank tags the message
// as a k-mer or a tile request; the owner's communication thread probes by
// tag to learn the request kind before receiving. Universal mode: one tag,
// and the kind travels inside the payload ("the message is itself a
// structure with the tag included as part of the message"), trading a
// slightly larger message for skipping the probe.
//
// Replies carry the count as int32, with -1 meaning the ID is not in the
// owner's (pruned) spectrum — the paper's "response like (-1) implying that
// the k-mer or tile does not exist ... at all in the entire spectrum".
//
// Sequence numbers (an extension beyond the paper, see DESIGN.md §4d):
// every request carries a per-worker-view sequence number which the owner
// echoes in the reply. Requesters use it to suppress duplicate/stale
// replies and to retransmit idempotently after a timeout (RetryPolicy), so
// the protocol survives the fault injector's drops, duplicates, truncations
// and stalls (rtm/chaos.hpp). seq == 0 is reserved for legacy unsequenced
// traffic (hand-rolled tests); the views allocate from 1.

#include <cstdint>
#include <stdexcept>

namespace reptile::parallel {

/// Message tags. Values are arbitrary but stable.
enum Tag : int {
  kTagKmerRequest = 11,
  kTagTileRequest = 12,
  kTagUniversalRequest = 13,
  kTagBatchRequest = 14,
  kTagFilterExchange = 15,
  kTagJobAnnounce = 16,
  kTagJobComplete = 17,
  /// Self-addressed control: ends this rank's LookupService::serve loop.
  kTagServiceStop = 18,
  kTagKmerReply = 21,
  kTagTileReply = 22,
};

/// Request kinds carried inside universal-mode payloads; also the index of
/// a kind's tables in DistSpectrum.
enum class LookupKind : std::uint32_t { kKmer = 0, kTile = 1 };

/// Both kinds, k-mers first: the order of every per-kind loop (Step III
/// exchanges, filter exchange, wavefront requests).
inline constexpr LookupKind kLookupKinds[] = {LookupKind::kKmer,
                                              LookupKind::kTile};

/// Non-universal request payload: the ID (the kind is the tag) plus the
/// tag the reply must carry. Multiple correction worker threads on one
/// rank (the paper's full-replication runs used 64 threads per rank) each
/// use a distinct reply tag so concurrent outstanding requests to the same
/// owner cannot steal each other's replies.
struct LookupRequest {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;  ///< echoed in the reply; 0 = unsequenced
  std::int32_t reply_to = kTagKmerReply;
  std::uint32_t reserved = 0;  // explicit padding for a stable layout
};

/// Universal request payload: kind + ID + reply tag in one self-describing
/// message.
struct UniversalLookupRequest {
  LookupKind kind = LookupKind::kKmer;
  std::int32_t reply_to = kTagKmerReply;
  std::uint64_t id = 0;
  std::uint64_t seq = 0;  ///< echoed in the reply; 0 = unsequenced
};

/// Reply payload: the global count, or -1 when absent from the spectrum.
/// The request's sequence number leads the struct so auditors (and the
/// requester) can match a reply without knowing anything else about it.
struct LookupReply {
  std::uint64_t seq = 0;  ///< echo of the request's seq
  std::int32_t count = -1;
  std::uint32_t reserved = 0;  // explicit padding for a stable layout
};

/// Reply tag for request kind `kind` issued by worker `slot` (slot 0 uses
/// the base tags).
constexpr int reply_tag(LookupKind kind, int slot = 0) noexcept {
  return (kind == LookupKind::kKmer ? kTagKmerReply : kTagTileReply) +
         2 * slot;
}

/// Header of a vectored (batched) lookup request: `count` packed 64-bit IDs
/// of one kind follow the header on the wire (see wire.hpp for the byte
/// layout). Batch requests are self-describing like universal mode — one
/// tag, kind in the payload — because the message is vectored anyway and a
/// per-kind probe would buy nothing.
struct BatchLookupHeader {
  std::uint32_t kind = 0;       ///< LookupKind as uint32
  std::int32_t reply_to = 0;    ///< tag the framed count vector must carry
  std::uint32_t count = 0;      ///< number of IDs following the header
  std::uint32_t reserved = 0;   ///< explicit padding for a stable layout
  std::uint64_t seq = 0;        ///< echoed in the reply; 0 = unsequenced
};

/// Header of a batched reply: `count` packed int32 counts (index-aligned
/// with the request's IDs, -1 = absent) follow on the wire. The echoed
/// sequence number leads the struct, like LookupReply.
struct BatchReplyHeader {
  std::uint64_t seq = 0;       ///< echo of the batch request's seq
  std::uint32_t count = 0;     ///< number of int32 counts following
  std::uint32_t reserved = 0;  ///< explicit padding for a stable layout
};

/// Header of a filter-exchange message (filter_lookups extension): after
/// Step III each rank broadcasts a serialized hash::OwnerFilter over its
/// owned table of `kind` to every out-of-group peer, exactly once, before
/// the correction phase starts. The filter bytes follow the header (see
/// wire.hpp). Every rank decides the same way whether a kind has filters at
/// all (DESIGN.md §9), so a kind either sends one frame per (owner, peer)
/// or none. Fire-and-forget best effort: a peer that never receives (or
/// cannot decode) a filter simply keeps the unfiltered wire path for that
/// owner — losing a filter can cost traffic, never correctness.
struct FilterExchangeHeader {
  std::uint32_t kind = 0;      ///< LookupKind as uint32
  std::uint32_t reserved = 0;  ///< explicit padding for a stable layout
};

/// Serve-mode control messages (DESIGN.md §13). Rank 0 owns the admission
/// queue; it announces each admitted job to every peer rank with one
/// kTagJobAnnounce message, the peers run the job's correction graph, and
/// each peer acknowledges with one kTagJobComplete back to rank 0. The job
/// payload itself (read source, overrides) travels out of band through the
/// server's shared job table — the wire only carries the id and control
/// word, so the announce can never stall behind a large dataset.
enum class JobOp : std::uint32_t {
  kRun = 0,       ///< run the announced job
  kShutdown = 1,  ///< no more jobs; leave the serve loop
};

/// Rank 0 -> peers: run job `job_id` (or shut down; job_id then 0).
struct JobAnnounce {
  std::uint64_t job_id = 0;
  std::uint32_t op = 0;        ///< JobOp as uint32
  std::uint32_t reserved = 0;  ///< explicit padding for a stable layout
};

/// Peer -> rank 0: job `job_id` finished on this rank. `degraded` is 1 when
/// the rank's correction involved degraded evidence (deadline skips,
/// degraded lookups, or degraded tiles) — the per-rank input to the job's
/// overall degraded flag.
struct JobComplete {
  std::uint64_t job_id = 0;
  std::uint32_t degraded = 0;
  std::uint32_t reserved = 0;  ///< explicit padding for a stable layout
};

/// Base of the batch-reply tag space. Scalar reply tags grow as 21 + 2*slot
/// / 22 + 2*slot, so the spaces stay disjoint for any worker slot < 501 —
/// far beyond the paper's 64 threads/rank.
inline constexpr int kTagBatchReplyBase = 1024;

/// Reply tag of a batched request of `kind` issued by worker `slot`.
constexpr int batch_reply_tag(LookupKind kind, int slot = 0) noexcept {
  return kTagBatchReplyBase + 2 * slot +
         (kind == LookupKind::kTile ? 1 : 0);
}

/// Length of one runtime tick for retry timeouts, in microseconds. Chosen
/// to match the runtime's internal poll cadence (chaos delivery thread,
/// service wait slices) so a one-tick timeout is already meaningful.
inline constexpr int kRetryTickUs = 100;

/// Requester-side timeout/retry policy for the lookup protocol. Disabled
/// by default (timeout_ticks == 0): requesters block forever, exactly the
/// paper's protocol. Enabling it arms, per lookup: a timeout of
/// `timeout_ticks` runtime ticks, doubled on every retransmission
/// (exponential backoff, capped at 64x), and at most `max_retries`
/// idempotent retransmissions before the lookup degrades (the corrector
/// then conservatively skips that position — it never miscorrects).
struct RetryPolicy {
  int timeout_ticks = 0;  ///< 0 = wait forever (retries off)
  int max_retries = 3;    ///< retransmissions after the first attempt

  bool enabled() const noexcept { return timeout_ticks > 0; }

  /// Timeout of attempt `attempt` (0 = first send) in microseconds.
  long long attempt_timeout_us(int attempt) const noexcept {
    const int shift = attempt < 6 ? attempt : 6;
    return static_cast<long long>(timeout_ticks) * kRetryTickUs * (1LL << shift);
  }

  /// Throws std::invalid_argument on out-of-range members.
  void validate() const {
    if (timeout_ticks < 0) {
      throw std::invalid_argument("lookup_timeout_ticks must be >= 0");
    }
    if (max_retries < 0) {
      throw std::invalid_argument("lookup_max_retries must be >= 0");
    }
  }
};

}  // namespace reptile::parallel
