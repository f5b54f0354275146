#pragma once
// Serializable blocked Bloom filter over packed k-mer/tile IDs.
//
// The filter-exchange extension (DESIGN.md §9): after Step III every rank
// owns a pruned, immutable spectrum shard, and most remote lookups against
// it come back "definitively absent" (-1) — a full round trip to learn
// nothing. An OwnerFilter is a compact membership summary of one shard that
// the owner broadcasts once; peers then answer definite absences locally
// and only pay the wire for probable hits. A Bloom false positive costs one
// redundant round trip; a false negative would silently miscorrect reads,
// which is why possibly_contains never errs on that side (property-tested).
//
// The filter is *blocked*: every key's probes land in one 512-bit
// (cache-line) block, so a lookup touches exactly one line — it sits on the
// correction hot path — and the layout serializes to a stable wire format:
// a fixed header followed by the block words.
//
// The same filter serves the paper's Step III note (bloom_construction):
// DistSpectrum parks first sightings in one (keyed by owned_set_key) and
// admits an ID to the exact table once insert() reports it was already
// present.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "hash/count_table.hpp"
#include "hash/hashing.hpp"

namespace reptile::hash {

/// Key under which a filter holding one rank's owned IDs stores `id`.
/// owner_of() and the block index both reduce mix64(id), so the IDs a rank
/// owns share mix64(id) % np; whenever np divides the block count they land
/// in 1/np of the blocks and the filter answers as if it held np times its
/// keys. Re-mixing the salted ID (a bijection: no new collisions) makes the
/// block independent of the owner. bloom_construction and the exchanged
/// filters of filter_lookups (build_from) key their filters this way.
constexpr std::uint64_t owned_set_key(std::uint64_t id) noexcept {
  return mix64(id ^ 0xD6E8FEB86659FD93ull);
}

class OwnerFilter {
 public:
  /// 8 x u64 = 512 bits: one cache line per key.
  static constexpr std::size_t kBlockWords = 8;
  static constexpr std::size_t kBlockBits = kBlockWords * 64;
  static constexpr std::size_t kBlockBytes = kBlockWords * 8;

  /// Sizes the filter for `expected` distinct keys at roughly `fp_rate`.
  /// The standard m = -n ln p / (ln 2)^2 sizing is inflated by a small
  /// factor because confining probes to one block costs accuracy (the
  /// blocked-Bloom FP inflation); the property tests pin the measured rate
  /// within 2x of the configured one.
  explicit OwnerFilter(std::size_t expected, double fp_rate = 0.01) {
    if (fp_rate <= 0.0 || fp_rate >= 1.0) {
      throw std::invalid_argument("OwnerFilter: fp_rate must be in (0, 1)");
    }
    expected = expected == 0 ? 1 : expected;
    const double m = static_cast<double>(expected) * bits_per_key(fp_rate);
    const std::size_t nbits =
        std::max(kBlockBits, static_cast<std::size_t>(m));
    nblocks_ = (nbits + kBlockBits - 1) / kBlockBits;
    blocks_.assign(nblocks_ * kBlockWords, 0);
    charge_.set(blocks_.size() * sizeof(std::uint64_t));
    const int k = static_cast<int>(std::lround(
        m / static_cast<double>(expected) * std::numbers::ln2));
    nhashes_ = k < 1 ? 1 : (k > kMaxHashes ? kMaxHashes : k);
  }

  /// Bits per key the sizing rule spends at `fp_rate`: -ln p / (ln 2)^2,
  /// times the blocked inflation.
  static double bits_per_key(double fp_rate) noexcept {
    return -std::log(fp_rate) / kLn2Squared * kBlockedInflation;
  }

  /// The sizing rule inverted: the rate `bits` bits per key buy.
  static double fp_rate_at(double bits) noexcept {
    return std::exp(-bits * kLn2Squared / kBlockedInflation);
  }

  /// Sizing by bytes: the lowest rate at which a filter over `expected`
  /// keys takes at most `max_bytes` (whole blocks). A filter built at this
  /// rate or above fits. 1 when not even one block fits.
  static double fp_rate_for_bytes(std::size_t expected,
                                  std::size_t max_bytes) noexcept {
    const std::size_t blocks = max_bytes / kBlockBytes;
    if (blocks == 0) return 1.0;
    return fp_rate_at(static_cast<double>(blocks * kBlockBits) /
                      static_cast<double>(expected == 0 ? 1 : expected));
  }

  /// Builds a filter over every ID of a pruned owned table, keyed by
  /// owned_set_key: probe it with possibly_contains(owned_set_key(id)).
  template <class Count, class Hash>
  static OwnerFilter build_from(const CountTable<Count, Hash>& table,
                                double fp_rate = 0.01) {
    OwnerFilter f(table.size(), fp_rate);
    table.for_each(
        [&f](std::uint64_t id, Count) { f.insert(owned_set_key(id)); });
    return f;
  }

  /// Inserts `key`; returns true when every probed bit was already set,
  /// i.e. the key was *possibly present* before — the "seen before" signal
  /// of singleton suppression.
  bool insert(std::uint64_t key) {
    std::uint64_t* block = block_of(key);
    std::uint64_t h = probe_seed(key);
    const std::uint64_t step = probe_step(key);
    bool all_set = true;
    for (int i = 0; i < nhashes_; ++i, h += step) {
      const std::size_t bit = static_cast<std::size_t>(h % kBlockBits);
      const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
      all_set = all_set && (block[bit >> 6] & mask) != 0;
      block[bit >> 6] |= mask;
    }
    ++key_count_;
    return all_set;
  }

  /// True when `key` may be in the set the filter was built over. False
  /// positives happen at ~fp_rate; false negatives are structurally
  /// impossible (insert sets exactly the bits this probes).
  bool possibly_contains(std::uint64_t key) const {
    const std::uint64_t* block = block_of(key);
    std::uint64_t h = probe_seed(key);
    const std::uint64_t step = probe_step(key);
    for (int i = 0; i < nhashes_; ++i, h += step) {
      const std::size_t bit = static_cast<std::size_t>(h % kBlockBits);
      if (!(block[bit >> 6] & (std::uint64_t{1} << (bit & 63)))) return false;
    }
    return true;
  }

  std::size_t block_count() const noexcept { return nblocks_; }
  std::size_t bit_count() const noexcept { return nblocks_ * kBlockBits; }
  int hash_count() const noexcept { return nhashes_; }
  std::uint64_t key_count() const noexcept { return key_count_; }

  /// Exact heap footprint of the bit array (the object header is
  /// negligible); feeds the per-rank memory accounting the paper tracks.
  std::size_t memory_bytes() const noexcept {
    return blocks_.size() * sizeof(std::uint64_t);
  }

  /// Fraction of bits set; a sizing-health metric for the property tests.
  double fill_ratio() const noexcept {
    std::size_t set = 0;
    for (std::uint64_t w : blocks_) {
      set += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return static_cast<double>(set) / static_cast<double>(bit_count());
  }

  // --- wire format --------------------------------------------------------
  // Header | nblocks x kBlockWords x u64, little-endian host order (the
  // in-process runtime never crosses endianness). deserialize() rejects
  // every truncated prefix and any over-long buffer, like the lookup wire
  // structs in parallel/wire.hpp.

  struct Header {
    std::uint32_t magic = kMagic;
    std::uint32_t version = kVersion;
    std::uint32_t nhashes = 0;
    std::uint32_t reserved = 0;  // explicit padding for a stable layout
    std::uint64_t nblocks = 0;
    std::uint64_t key_count = 0;
  };
  static_assert(sizeof(Header) == 32);

  static constexpr std::uint32_t kMagic = 0x544C4652;  // "RFLT"
  static constexpr std::uint32_t kVersion = 1;

  /// Serialized size in bytes.
  std::size_t wire_bytes() const noexcept {
    return sizeof(Header) + blocks_.size() * sizeof(std::uint64_t);
  }

  /// Writes the wire encoding into a caller-sized buffer of exactly
  /// wire_bytes() — the zero-copy path into an arena payload.
  void serialize_into(std::byte* out) const {
    Header h;
    h.nhashes = static_cast<std::uint32_t>(nhashes_);
    h.nblocks = nblocks_;
    h.key_count = key_count_;
    std::memcpy(out, &h, sizeof(h));
    std::memcpy(out + sizeof(h), blocks_.data(),
                blocks_.size() * sizeof(std::uint64_t));
  }

  std::vector<std::uint8_t> serialize() const {
    std::vector<std::uint8_t> out(wire_bytes());
    serialize_into(reinterpret_cast<std::byte*>(out.data()));
    return out;
  }

  /// Decodes one filter. Throws on a truncated or over-long buffer, a bad
  /// magic/version, or out-of-range parameters — a garbled filter must be
  /// discarded (the peer then takes the unfiltered wire path), never
  /// trusted: trusting garbage could manufacture false negatives.
  static OwnerFilter deserialize(std::span<const std::byte> buffer) {
    Header h;
    if (buffer.size() < sizeof(h)) {
      throw std::runtime_error("OwnerFilter: truncated header");
    }
    std::memcpy(&h, buffer.data(), sizeof(h));
    if (h.magic != kMagic) {
      throw std::runtime_error("OwnerFilter: bad magic");
    }
    if (h.version != kVersion) {
      throw std::runtime_error("OwnerFilter: unknown version");
    }
    if (h.nhashes < 1 || h.nhashes > static_cast<std::uint32_t>(kMaxHashes)) {
      throw std::runtime_error("OwnerFilter: hash count out of range");
    }
    if (h.nblocks == 0 ||
        h.nblocks > buffer.size() / (kBlockWords * sizeof(std::uint64_t))) {
      throw std::runtime_error("OwnerFilter: block count out of range");
    }
    const std::size_t body =
        static_cast<std::size_t>(h.nblocks) * kBlockWords *
        sizeof(std::uint64_t);
    if (buffer.size() - sizeof(h) != body) {
      throw std::runtime_error("OwnerFilter: body/header size mismatch");
    }
    OwnerFilter f;
    f.nblocks_ = h.nblocks;
    f.nhashes_ = static_cast<int>(h.nhashes);
    f.key_count_ = h.key_count;
    f.blocks_.resize(static_cast<std::size_t>(h.nblocks) * kBlockWords);
    std::memcpy(f.blocks_.data(), buffer.data() + sizeof(h), body);
    f.charge_.set(f.blocks_.size() * sizeof(std::uint64_t));
    return f;
  }

 private:
  /// Blocked-Bloom FP inflation compensation: probes confined to 512 bits
  /// lose ~15% accuracy vs a flat filter at 1% target rates (Putze et al.),
  /// so the bit budget is padded to keep the measured rate near the
  /// configured one.
  static constexpr double kBlockedInflation = 1.3;
  static constexpr int kMaxHashes = 16;
  static constexpr double kLn2Squared = std::numbers::ln2 * std::numbers::ln2;

  OwnerFilter() = default;

  std::uint64_t* block_of(std::uint64_t key) noexcept {
    return blocks_.data() + (mix64(key) % nblocks_) * kBlockWords;
  }
  const std::uint64_t* block_of(std::uint64_t key) const noexcept {
    return blocks_.data() + (mix64(key) % nblocks_) * kBlockWords;
  }

  /// Intra-block double hashing; derived from a second independent mix so
  /// keys colliding on the block index still probe different bits.
  static std::uint64_t probe_seed(std::uint64_t key) noexcept {
    return mix64(key ^ 0x9E3779B97F4A7C15ull);
  }
  static std::uint64_t probe_step(std::uint64_t key) noexcept {
    return mix64(key ^ 0xC2B2AE3D27D4EB4Full) | 1;  // odd: full cycle mod 512
  }

  std::vector<std::uint64_t> blocks_;
  // Charged when the block array is sized (construction or deserialize);
  // filters are move-only so the balance follows the blocks.
  obs::LedgerCharge charge_{obs::LedgerAccount::kOwnerFilters};
  std::size_t nblocks_ = 0;
  int nhashes_ = 1;
  std::uint64_t key_count_ = 0;
};

}  // namespace reptile::hash
