#pragma once
// Packed k-mer representation and manipulation.
//
// A k-mer (k <= 32) is packed into a 64-bit integer, two bits per base, with
// the FIRST base of the k-mer occupying the MOST significant occupied bits.
// This big-endian layout means packed IDs compare in the same order as their
// string spellings, and that appending a base is a shift-left-and-or.
//
// The k-mer ID is exactly what the paper calls "a number constructed from the
// characters of the sequence" (Section III, Step II); it is the key of the
// distributed k-mer spectrum.

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"

namespace reptile::seq {

/// Packed k-mer identity. Only the low 2*k bits are occupied.
using kmer_id_t = std::uint64_t;

/// Maximum supported k-mer length (bases) for 64-bit packing.
inline constexpr int kMaxK = 32;

/// Stateless codec for k-mers of a fixed length `k`.
///
/// All positional arguments are 0-based from the beginning (left end) of the
/// k-mer, i.e. position 0 is the most significant base.
class KmerCodec {
 public:
  /// Constructs a codec for k-mers of `k` bases. Precondition: 1 <= k <= 32.
  explicit KmerCodec(int k);

  int k() const noexcept { return k_; }

  /// Bit-mask covering the 2*k occupied bits.
  kmer_id_t mask() const noexcept { return mask_; }

  // pack, base_at, substitute and roll are the corrector's inner-loop
  // calls, so they are defined inline here.

  /// Packs the first k bases of `s`. Precondition: s.size() >= k and all
  /// characters are valid bases.
  kmer_id_t pack(std::string_view s) const {
    assert(static_cast<int>(s.size()) >= k_);
    kmer_id_t id = 0;
    for (int i = 0; i < k_; ++i) {
      const base_t b = base_from_char(s[static_cast<std::size_t>(i)]);
      assert(b != kInvalidBase);
      id = (id << 2) | b;
    }
    return id;
  }

  /// Unpacks an ID back into its character spelling.
  std::string unpack(kmer_id_t id) const;

  /// Base code at `pos` (0-based from the left). Precondition: pos < k.
  base_t base_at(kmer_id_t id, int pos) const {
    assert(pos >= 0 && pos < k_);
    const int shift = 2 * (k_ - 1 - pos);
    return static_cast<base_t>((id >> shift) & 0x3);
  }

  /// Returns `id` with the base at `pos` replaced by `b`.
  kmer_id_t substitute(kmer_id_t id, int pos, base_t b) const {
    assert(pos >= 0 && pos < k_);
    assert(b < kAlphabetSize);
    const int shift = 2 * (k_ - 1 - pos);
    const kmer_id_t cleared = id & ~(kmer_id_t{0x3} << shift);
    return cleared | (kmer_id_t{b} << shift);
  }

  /// Slides the k-mer window one base to the right: drops the leftmost base
  /// and appends `incoming` at the right end.
  kmer_id_t roll(kmer_id_t id, base_t incoming) const {
    assert(incoming < kAlphabetSize);
    return ((id << 2) | incoming) & mask_;
  }

  /// Reverse complement of the packed k-mer.
  kmer_id_t reverse_complement(kmer_id_t id) const;

  /// Canonical form: min(id, reverse_complement(id)). Reptile's spectrum is
  /// built over canonical k-mers so a k-mer and its reverse complement share
  /// one count.
  kmer_id_t canonical(kmer_id_t id) const;

  /// Hamming distance between two k-mer IDs (number of differing bases).
  int hamming_distance(kmer_id_t a, kmer_id_t b) const;

  /// Appends to `out` every ID at Hamming distance exactly 1 from `id`
  /// (3*k neighbors).
  void neighbors1(kmer_id_t id, std::vector<kmer_id_t>& out) const;

  /// Extracts all k-mers of a read into `out` (positions 0..n-k). Returns
  /// the number of k-mers extracted. Characters must be valid bases.
  std::size_t extract(std::string_view read, std::vector<kmer_id_t>& out) const;

 private:
  int k_;
  kmer_id_t mask_;
};

/// Parses a k-mer spelling of length `s.size()` (<= 32) into an ID using a
/// temporary codec; convenience for tests and tools.
kmer_id_t pack_kmer(std::string_view s);

/// Unpacks `id` as a `k`-base spelling; convenience for tests and tools.
std::string unpack_kmer(kmer_id_t id, int k);

}  // namespace reptile::seq
