// Property-based round-trip tests for every wire struct the lookup protocol
// and the load balancer put on the wire (parallel/protocol.hpp +
// parallel/wire.hpp): encode -> decode identity over seeded random inputs,
// layout/size pins, and rejection of every truncated form. The fault
// injector truncates payloads to arbitrary prefixes, so "every strict prefix
// is rejected" is a load-bearing property, not an edge case.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "parallel/protocol.hpp"
#include "parallel/wire.hpp"
#include "seq/read.hpp"
#include "seq/rng.hpp"

namespace reptile::parallel {
namespace {

// Layout pins: these structs ARE the wire format (memcpy'd), so their sizes
// and field offsets are protocol constants. A drifting size silently breaks
// the size-validation the service and the views rely on under truncation.
static_assert(sizeof(LookupRequest) == 24);
static_assert(sizeof(UniversalLookupRequest) == 24);
static_assert(sizeof(LookupReply) == 16);
static_assert(sizeof(BatchLookupHeader) == 24);
static_assert(sizeof(BatchReplyHeader) == 16);
static_assert(sizeof(FilterExchangeHeader) == 8);
static_assert(sizeof(hash::OwnerFilter::Header) == 32);
static_assert(offsetof(LookupReply, seq) == 0,
              "reply_seq() reads the leading 8 bytes");
static_assert(offsetof(BatchReplyHeader, seq) == 0,
              "reply_seq() reads the leading 8 bytes");

template <class T>
T byte_roundtrip(const T& value) {
  std::vector<std::uint8_t> buf(sizeof(T));
  std::memcpy(buf.data(), &value, sizeof(T));
  T out{};
  std::memcpy(&out, buf.data(), sizeof(T));
  return out;
}

/// The first `len` bytes of `buf`: a truncated message.
std::span<const std::byte> prefix(const std::vector<std::byte>& buf,
                                  std::size_t len) {
  return std::span<const std::byte>(buf.data(), len);
}

/// Frames `counts` as a batch reply into `buf` (sized batch_reply_bytes),
/// the way the lookup service fills its reply payload in place.
void encode_reply(std::vector<std::byte>& buf, std::uint64_t seq,
                  const std::vector<std::int32_t>& counts) {
  encode_batch_reply_header_into(buf.data(), seq,
                                 static_cast<std::uint32_t>(counts.size()));
  if (!counts.empty()) {
    std::memcpy(batch_reply_counts_at(buf.data()), counts.data(),
                counts.size() * sizeof(std::int32_t));
  }
}

TEST(WireRoundTrip, ScalarRequestStructs) {
  seq::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    LookupRequest req;
    req.id = rng.next();
    req.seq = rng.next();
    req.reply_to = static_cast<std::int32_t>(rng.below(1 << 16));
    const LookupRequest back = byte_roundtrip(req);
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.seq, req.seq);
    EXPECT_EQ(back.reply_to, req.reply_to);

    UniversalLookupRequest uni;
    uni.kind = rng.chance(0.5) ? LookupKind::kKmer : LookupKind::kTile;
    uni.reply_to = static_cast<std::int32_t>(rng.below(1 << 16));
    uni.id = rng.next();
    uni.seq = rng.next();
    const UniversalLookupRequest uback = byte_roundtrip(uni);
    EXPECT_EQ(uback.kind, uni.kind);
    EXPECT_EQ(uback.reply_to, uni.reply_to);
    EXPECT_EQ(uback.id, uni.id);
    EXPECT_EQ(uback.seq, uni.seq);

    LookupReply rep;
    rep.seq = rng.next();
    rep.count = static_cast<std::int32_t>(rng.below(1u << 31)) - 1;
    const LookupReply rback = byte_roundtrip(rep);
    EXPECT_EQ(rback.seq, rep.seq);
    EXPECT_EQ(rback.count, rep.count);
  }
}

TEST(WireRoundTrip, AggregateInitKeepsLegacyFieldOrder) {
  // Call sites (and the microbenchmarks) build requests as
  // `LookupRequest{id}`: the id must stay the first member and every later
  // member must default to the unsequenced/base-tag values.
  const LookupRequest req{0xabcdeful};
  EXPECT_EQ(req.id, 0xabcdeful);
  EXPECT_EQ(req.seq, 0u);
  EXPECT_EQ(req.reply_to, kTagKmerReply);
}

TEST(WireRoundTrip, BatchRequestIdentity) {
  seq::Rng rng(2);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = rng.below(300);
    std::vector<std::uint64_t> ids(n);
    for (auto& id : ids) id = rng.next();
    const auto kind = rng.chance(0.5) ? LookupKind::kKmer : LookupKind::kTile;
    const int reply_to =
        batch_reply_tag(kind, static_cast<int>(rng.below(8)));
    const std::uint64_t seq = rng.next();

    // Size bound: header + 8 bytes per ID, nothing else.
    std::vector<std::byte> buf(batch_request_bytes(n));
    ASSERT_EQ(buf.size(), sizeof(BatchLookupHeader) + 8 * n);
    encode_batch_request_into(
        buf.data(), kind, reply_to,
        std::span<const std::uint64_t>(ids.data(), ids.size()), seq);

    const BatchRequestView req = view_batch_request(buf);
    EXPECT_EQ(req.kind, kind);
    EXPECT_EQ(req.reply_to, reply_to);
    EXPECT_EQ(req.seq, seq);
    ASSERT_EQ(req.count, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(req.id(i), ids[i]);
  }
}

TEST(WireRoundTrip, BatchReplyIdentity) {
  seq::Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = rng.below(300);
    std::vector<std::int32_t> counts(n);
    for (auto& c : counts) {
      c = rng.chance(0.2) ? -1 : static_cast<std::int32_t>(rng.below(1000));
    }
    const std::uint64_t seq = rng.next();

    std::vector<std::byte> buf(batch_reply_bytes(n));
    ASSERT_EQ(buf.size(), sizeof(BatchReplyHeader) + 4 * n);
    encode_reply(buf, seq, counts);

    const BatchReplyView reply = view_batch_reply(buf);
    EXPECT_EQ(reply.seq, seq);
    ASSERT_EQ(reply.count, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(reply.count_at(i), counts[i]);
  }
}

TEST(WireRoundTrip, BatchRequestRejectsEveryTruncation) {
  seq::Rng rng(4);
  std::vector<std::uint64_t> ids(17);
  for (auto& id : ids) id = rng.next();
  std::vector<std::byte> buf(batch_request_bytes(ids.size()));
  encode_batch_request_into(
      buf.data(), LookupKind::kTile, kTagBatchReplyBase + 1,
      std::span<const std::uint64_t>(ids.data(), ids.size()), 42);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(view_batch_request(prefix(buf, len)), std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
  // Over-long buffers are rejected too (count must match exactly).
  buf.push_back(std::byte{0});
  EXPECT_THROW(view_batch_request(buf), std::runtime_error);
}

TEST(WireRoundTrip, BatchReplyRejectsEveryTruncation) {
  std::vector<std::int32_t> counts(23, -1);
  std::vector<std::byte> buf(batch_reply_bytes(counts.size()));
  encode_reply(buf, 7, counts);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(view_batch_reply(prefix(buf, len)), std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
  buf.push_back(std::byte{0});
  EXPECT_THROW(view_batch_reply(buf), std::runtime_error);
}

TEST(WireRoundTrip, FilterExchangeIdentity) {
  seq::Rng rng(6);
  for (const std::size_t n : {0u, 1u, 512u, 9000u}) {
    hash::OwnerFilter filter(n, 0.01);
    for (std::size_t i = 0; i < n; ++i) filter.insert(rng.next());
    const auto kind = rng.chance(0.5) ? LookupKind::kKmer : LookupKind::kTile;

    std::vector<std::byte> buf(filter_exchange_bytes(filter));
    ASSERT_EQ(buf.size(), sizeof(FilterExchangeHeader) + filter.wire_bytes());
    encode_filter_exchange_into(buf.data(), kind, filter);

    const FilterExchange back = decode_filter_exchange(buf);
    EXPECT_EQ(back.kind, kind);
    // The carried filter round-trips byte-for-byte, so it answers exactly
    // like the one the owner built.
    EXPECT_EQ(back.filter.serialize(), filter.serialize());
    EXPECT_EQ(back.filter.key_count(), filter.key_count());
  }
}

TEST(WireRoundTrip, FilterExchangeRejectsEveryTruncation) {
  seq::Rng rng(7);
  hash::OwnerFilter filter(600, 0.01);
  for (int i = 0; i < 600; ++i) filter.insert(rng.next());
  std::vector<std::byte> buf(filter_exchange_bytes(filter));
  encode_filter_exchange_into(buf.data(), LookupKind::kTile, filter);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(decode_filter_exchange(prefix(buf, len)), std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
  buf.push_back(std::byte{0});
  EXPECT_THROW(decode_filter_exchange(buf), std::runtime_error);
  buf.pop_back();
  // Unknown lookup kind in the frame header.
  buf[0] = std::byte{9};
  EXPECT_THROW(decode_filter_exchange(buf), std::runtime_error);
}

TEST(WireRoundTrip, ReadRecordsIdentity) {
  seq::Rng rng(5);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<seq::Read> reads(1 + rng.below(8));
    for (auto& r : reads) {
      r.number = rng.next();
      const std::size_t len = rng.below(200);
      r.bases.resize(len);
      r.quals.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        r.bases[i] = bases[rng.below(4)];
        r.quals[i] = static_cast<seq::qual_t>(rng.below(42));
      }
    }
    std::vector<std::uint8_t> buf;
    for (const auto& r : reads) encode_read(r, buf);
    std::vector<seq::Read> back;
    decode_reads(buf, back);
    EXPECT_EQ(back, reads);
  }
}

TEST(WireRoundTrip, ReadRecordsRejectTruncation) {
  seq::Read r;
  r.number = 9;
  r.bases = "ACGTACGT";
  r.quals.assign(8, 30);
  std::vector<std::uint8_t> buf;
  encode_read(r, buf);
  for (std::size_t len = 1; len < buf.size(); ++len) {
    std::vector<seq::Read> out;
    EXPECT_THROW(decode_reads(buf.data(), len, out), std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
}

}  // namespace
}  // namespace reptile::parallel
