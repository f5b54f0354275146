#pragma once
// Declarative rtm-check tag table for the correction-phase lookup protocol.
//
// One row per tag (or tag range) of protocol.hpp, giving the linter the
// message direction, payload size bounds, and — for requests — the reply
// envelope the receiver must answer with. Derived from the structs in
// protocol.hpp / wire.hpp: keep all three in sync when the protocol grows
// a message kind. run_distributed installs this table (with strict tags)
// whenever checking is on and no custom table was supplied, because the
// lookup protocol is the only point-to-point traffic the pipelines send.

#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "parallel/protocol.hpp"
#include "rtm/check/check.hpp"

namespace reptile::parallel {

namespace table_detail {

inline bool check_reply_to(std::int32_t reply_to, int first, int last,
                           std::string* err) {
  if (reply_to >= first && reply_to < last) return true;
  *err = "reply_to tag " + std::to_string(reply_to) +
         " outside the reply tag space [" + std::to_string(first) + ", " +
         std::to_string(last) + ")";
  return false;
}

inline bool pair_scalar(std::span<const std::byte> payload, int* reply_tag,
                        std::size_t* reply_bytes, std::uint64_t* seq,
                        std::string* err) {
  LookupRequest req;
  std::memcpy(&req, payload.data(), sizeof(req));  // size bound pre-checked
  if (!check_reply_to(req.reply_to, kTagKmerReply, kTagBatchReplyBase, err)) {
    return false;
  }
  *reply_tag = req.reply_to;
  *reply_bytes = sizeof(LookupReply);
  *seq = req.seq;
  return true;
}

inline bool pair_universal(std::span<const std::byte> payload, int* reply_tag,
                           std::size_t* reply_bytes, std::uint64_t* seq,
                           std::string* err) {
  UniversalLookupRequest req;
  std::memcpy(&req, payload.data(), sizeof(req));
  if (static_cast<std::uint32_t>(req.kind) >
      static_cast<std::uint32_t>(LookupKind::kTile)) {
    *err = "unknown lookup kind " +
           std::to_string(static_cast<std::uint32_t>(req.kind));
    return false;
  }
  if (!check_reply_to(req.reply_to, kTagKmerReply, kTagBatchReplyBase, err)) {
    return false;
  }
  *reply_tag = req.reply_to;
  *reply_bytes = sizeof(LookupReply);
  *seq = req.seq;
  return true;
}

inline bool pair_batch(std::span<const std::byte> payload, int* reply_tag,
                       std::size_t* reply_bytes, std::uint64_t* seq,
                       std::string* err) {
  BatchLookupHeader h;
  std::memcpy(&h, payload.data(), sizeof(h));  // min_bytes covers the header
  if (h.kind > static_cast<std::uint32_t>(LookupKind::kTile)) {
    *err = "unknown lookup kind " + std::to_string(h.kind);
    return false;
  }
  const std::size_t body = payload.size() - sizeof(h);
  if (body != static_cast<std::size_t>(h.count) * 8) {
    *err = "header declares " + std::to_string(h.count) +
           " ids but the body carries " + std::to_string(body) + " bytes";
    return false;
  }
  if (h.reply_to < kTagBatchReplyBase) {
    *err = "batch reply_to tag " + std::to_string(h.reply_to) +
           " below kTagBatchReplyBase";
    return false;
  }
  *reply_tag = h.reply_to;
  *reply_bytes =
      sizeof(BatchReplyHeader) +
      static_cast<std::size_t>(h.count) * sizeof(std::int32_t);
  *seq = h.seq;
  return true;
}

/// Both reply layouts (LookupReply, BatchReplyHeader) lead with the echoed
/// u64 sequence number, so one extractor serves every reply rule.
inline bool reply_seq(std::span<const std::byte> payload, std::uint64_t* seq) {
  if (payload.size() < sizeof(std::uint64_t)) return false;
  std::memcpy(seq, payload.data(), sizeof(std::uint64_t));
  return true;
}

}  // namespace table_detail

/// The linter table covering everything the distributed pipelines send
/// point to point. Scalar reply tags grow as 21/22 + 2*slot and batch reply
/// tags as kTagBatchReplyBase + 2*slot (+1 for tiles), so both reply
/// directions are ranges rather than single tags.
inline rtm::check::TagTable lookup_tag_table() {
  using rtm::check::TagDir;
  using rtm::check::TagRule;
  constexpr std::size_t kNoMax = std::numeric_limits<std::size_t>::max();
  return rtm::check::TagTable{
      TagRule{kTagKmerRequest, kTagKmerRequest, "kmer-request",
              TagDir::kRequest, sizeof(LookupRequest), sizeof(LookupRequest),
              &table_detail::pair_scalar, nullptr},
      TagRule{kTagTileRequest, kTagTileRequest, "tile-request",
              TagDir::kRequest, sizeof(LookupRequest), sizeof(LookupRequest),
              &table_detail::pair_scalar, nullptr},
      TagRule{kTagUniversalRequest, kTagUniversalRequest, "universal-request",
              TagDir::kRequest, sizeof(UniversalLookupRequest),
              sizeof(UniversalLookupRequest), &table_detail::pair_universal,
              nullptr},
      TagRule{kTagBatchRequest, kTagBatchRequest, "batch-request",
              TagDir::kRequest, sizeof(BatchLookupHeader), kNoMax,
              &table_detail::pair_batch, nullptr},
      // Fire-and-forget broadcast, no reply envelope (pair == nullptr keeps
      // it out of the unanswered-request ledger); best_effort because chaos
      // may deliver a stall-delayed copy after the receivers stopped
      // listening — a leftover is stale, not a leak.
      TagRule{kTagFilterExchange, kTagFilterExchange, "filter-exchange",
              TagDir::kRequest, sizeof(FilterExchangeHeader), kNoMax, nullptr,
              nullptr, /*best_effort=*/true},
      // Serve-mode control plane (DESIGN.md §13): rank 0 announces each job
      // to every peer and each peer acknowledges completion. Fixed-size,
      // always consumed (the serve loop blocks on them), and answered out
      // of band through the shared job table — no reply envelope to pair.
      TagRule{kTagJobAnnounce, kTagJobAnnounce, "job-announce",
              TagDir::kRequest, sizeof(JobAnnounce), sizeof(JobAnnounce),
              nullptr, nullptr},
      TagRule{kTagJobComplete, kTagJobComplete, "job-complete",
              TagDir::kRequest, sizeof(JobComplete), sizeof(JobComplete),
              nullptr, nullptr},
      // Termination plane (DESIGN.md §4d): once the phase-ending barrier
      // has passed, each rank posts this empty stop to its own mailbox
      // (Comm::post_self) to wake its communication thread. Never wire
      // traffic, never faulted, and always consumed by serve().
      TagRule{kTagServiceStop, kTagServiceStop, "service-stop", TagDir::kSelf,
              0, 0, nullptr, nullptr},
      TagRule{kTagKmerReply, kTagBatchReplyBase - 1, "scalar-reply",
              TagDir::kReply, sizeof(LookupReply), sizeof(LookupReply),
              nullptr, &table_detail::reply_seq},
      TagRule{kTagBatchReplyBase, std::numeric_limits<int>::max(),
              "batch-reply", TagDir::kReply, sizeof(BatchReplyHeader), kNoMax,
              nullptr, &table_detail::reply_seq},
  };
}

}  // namespace reptile::parallel
