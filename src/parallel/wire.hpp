#pragma once
// Flat serialization of the variable-length wire payloads.
//
// 1. Reads for the load-balancing alltoallv: the static load balancer
//    (paper Section III-A) moves whole reads — bases and quality scores —
//    between ranks. Layout per read, little-endian host order:
//
//      u64 sequence_number | u32 length | length x base char | length x qual
//
// 2. Batched lookup requests (batch_lookups extension): one vectored
//    request carries every ID a chunk needs from one owner. Layout:
//
//      BatchLookupHeader | count x u64 id
//
//    The reply frames its packed i32 count vector (index-aligned with the
//    request, -1 = absent) behind a BatchReplyHeader carrying the echoed
//    sequence number, so requesters can match replies to (re)transmissions
//    under fault injection:
//
//      BatchReplyHeader | count x i32 count
//
// 3. Filter-exchange messages (filter_lookups extension): one message per
//    (owner, kind) carrying the owner's serialized membership filter:
//
//      FilterExchangeHeader | OwnerFilter wire encoding (header + blocks)

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "hash/owner_filter.hpp"
#include "parallel/protocol.hpp"
#include "seq/read.hpp"

namespace reptile::parallel {

/// Appends the wire encoding of `read` to `out`.
inline void encode_read(const seq::Read& read, std::vector<std::uint8_t>& out) {
  const auto len = static_cast<std::uint32_t>(read.bases.size());
  if (read.quals.size() != read.bases.size()) {
    throw std::invalid_argument("encode_read: quals/bases length mismatch");
  }
  const std::size_t start = out.size();
  out.resize(start + 8 + 4 + 2 * static_cast<std::size_t>(len));
  std::uint8_t* p = out.data() + start;
  std::memcpy(p, &read.number, 8);
  p += 8;
  std::memcpy(p, &len, 4);
  p += 4;
  std::memcpy(p, read.bases.data(), len);
  p += len;
  std::memcpy(p, read.quals.data(), len);
}

/// Decodes every read of a wire buffer, appending to `out`. Throws on a
/// truncated buffer.
inline void decode_reads(const std::uint8_t* data, std::size_t size,
                         std::vector<seq::Read>& out) {
  std::size_t pos = 0;
  while (pos < size) {
    if (size - pos < 12) throw std::runtime_error("decode_reads: truncated header");
    seq::Read r;
    std::memcpy(&r.number, data + pos, 8);
    pos += 8;
    std::uint32_t len = 0;
    std::memcpy(&len, data + pos, 4);
    pos += 4;
    if (size - pos < 2 * static_cast<std::size_t>(len)) {
      throw std::runtime_error("decode_reads: truncated body");
    }
    r.bases.assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    r.quals.assign(data + pos, data + pos + len);
    pos += len;
    out.push_back(std::move(r));
  }
}

inline void decode_reads(const std::vector<std::uint8_t>& buffer,
                         std::vector<seq::Read>& out) {
  decode_reads(buffer.data(), buffer.size(), out);
}

/// Wire size of a batched request carrying `count` IDs.
inline std::size_t batch_request_bytes(std::size_t count) {
  return sizeof(BatchLookupHeader) + count * 8;
}

/// Writes one batched request into a caller-sized buffer of exactly
/// batch_request_bytes(ids.size()) — the zero-copy path: requesters encode
/// straight into an arena payload (rtm::Comm::make_payload).
inline void encode_batch_request_into(std::byte* out, LookupKind kind,
                                      int reply_to,
                                      std::span<const std::uint64_t> ids,
                                      std::uint64_t seq = 0) {
  BatchLookupHeader h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.reply_to = static_cast<std::int32_t>(reply_to);
  h.count = static_cast<std::uint32_t>(ids.size());
  h.seq = seq;
  std::memcpy(out, &h, sizeof(h));
  if (!ids.empty()) {
    std::memcpy(out + sizeof(h), ids.data(), ids.size_bytes());
  }
}

/// A validated batched request read in place: the header fields, and the
/// IDs left in the message buffer. The lookup service answers from it
/// without copying the IDs out.
struct BatchRequestView {
  LookupKind kind = LookupKind::kKmer;
  std::int32_t reply_to = 0;
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* ids = nullptr;

  std::uint64_t id(std::size_t i) const {
    std::uint64_t v = 0;
    std::memcpy(&v, ids + i * 8, 8);
    return v;
  }
};

/// Validates one batched request. Throws on a truncated or over-long
/// buffer and on an unknown kind — a malformed message must never be
/// answered. The view borrows `data`.
inline BatchRequestView view_batch_request(const std::uint8_t* data,
                                           std::size_t size) {
  BatchLookupHeader h;
  if (size < sizeof(h)) {
    throw std::runtime_error("view_batch_request: truncated header");
  }
  std::memcpy(&h, data, sizeof(h));
  if (h.kind > static_cast<std::uint32_t>(LookupKind::kTile)) {
    throw std::runtime_error("view_batch_request: unknown lookup kind");
  }
  if (size - sizeof(h) != static_cast<std::size_t>(h.count) * 8) {
    throw std::runtime_error("view_batch_request: body/count mismatch");
  }
  return {static_cast<LookupKind>(h.kind), h.reply_to, h.seq, h.count,
          data + sizeof(h)};
}

inline BatchRequestView view_batch_request(
    std::span<const std::byte> payload) {
  return view_batch_request(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
}

/// Wire size of a batched reply carrying `count` counts.
inline std::size_t batch_reply_bytes(std::size_t count) {
  return sizeof(BatchReplyHeader) + count * 4;
}

/// Writes the reply header into a caller-sized buffer of exactly
/// batch_reply_bytes(count); the i32 count vector follows at
/// batch_reply_counts_at(out) and may be filled in place by the service
/// as it performs the lookups — no intermediate vector at all.
inline void encode_batch_reply_header_into(std::byte* out, std::uint64_t seq,
                                           std::uint32_t count) {
  BatchReplyHeader h;
  h.seq = seq;
  h.count = count;
  std::memcpy(out, &h, sizeof(h));
}

/// Start of the count vector inside an encode_batch_reply_header_into
/// buffer.
inline std::byte* batch_reply_counts_at(std::byte* out) {
  return out + sizeof(BatchReplyHeader);
}

/// A validated batched reply read in place: the echoed sequence number,
/// and the i32 counts left in the message buffer.
struct BatchReplyView {
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* counts = nullptr;

  std::int32_t count_at(std::size_t i) const {
    std::int32_t v = 0;
    std::memcpy(&v, counts + i * 4, 4);
    return v;
  }
};

/// Validates one batched reply. Throws on a truncated or over-long buffer
/// — a requester must treat a malformed reply as lost, never as counts.
/// The view borrows `data`.
inline BatchReplyView view_batch_reply(const std::uint8_t* data,
                                       std::size_t size) {
  BatchReplyHeader h;
  if (size < sizeof(h)) {
    throw std::runtime_error("view_batch_reply: truncated header");
  }
  std::memcpy(&h, data, sizeof(h));
  if (size - sizeof(h) != static_cast<std::size_t>(h.count) * 4) {
    throw std::runtime_error("view_batch_reply: body/count mismatch");
  }
  return {h.seq, h.count, data + sizeof(h)};
}

inline BatchReplyView view_batch_reply(std::span<const std::byte> payload) {
  return view_batch_reply(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
}

/// Decoded form of a filter-exchange message. Not default-constructible:
/// an OwnerFilter only exists sized (constructor) or decoded (deserialize),
/// never empty-but-queryable.
struct FilterExchange {
  LookupKind kind;
  hash::OwnerFilter filter;
};

/// Wire size of a filter-exchange message carrying `filter`.
inline std::size_t filter_exchange_bytes(const hash::OwnerFilter& filter) {
  return sizeof(FilterExchangeHeader) + filter.wire_bytes();
}

/// Writes one filter-exchange message into a caller-sized buffer of exactly
/// filter_exchange_bytes(filter) — the zero-copy path into an arena payload.
inline void encode_filter_exchange_into(std::byte* out, LookupKind kind,
                                        const hash::OwnerFilter& filter) {
  FilterExchangeHeader h;
  h.kind = static_cast<std::uint32_t>(kind);
  std::memcpy(out, &h, sizeof(h));
  filter.serialize_into(out + sizeof(h));
}

/// Decodes one filter-exchange message. Throws on a truncated or over-long
/// buffer and on an unknown kind — receivers drop malformed filters and
/// keep the unfiltered wire path for that owner (never trust garbage bits:
/// they could manufacture false negatives).
inline FilterExchange decode_filter_exchange(std::span<const std::byte> payload) {
  FilterExchangeHeader h;
  if (payload.size() < sizeof(h)) {
    throw std::runtime_error("decode_filter_exchange: truncated header");
  }
  std::memcpy(&h, payload.data(), sizeof(h));
  if (h.kind > static_cast<std::uint32_t>(LookupKind::kTile)) {
    throw std::runtime_error("decode_filter_exchange: unknown lookup kind");
  }
  return FilterExchange{
      static_cast<LookupKind>(h.kind),
      hash::OwnerFilter::deserialize(payload.subspan(sizeof(h)))};
}

}  // namespace reptile::parallel
