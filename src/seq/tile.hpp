#pragma once
// Packed tile representation.
//
// A *tile* (paper Section II-A) is "a sequence of two or more k-mers with a
// fixed overlap length between the k-mers". We implement the two-k-mer form
// used by Reptile: a tile of `2k - o` bases formed by a k-mer at offset 0 and
// a second k-mer at offset `k - o`, the two sharing `o` bases. Because a tile
// has almost twice the characters of a k-mer, correcting at tile level has
// far fewer Hamming-neighbor candidates, which is Reptile's key accuracy
// idea.
//
// Tile IDs are packed exactly like k-mer IDs (2 bits/base, big-endian), in a
// 64-bit word; this caps the tile length at 32 bases (2k - o <= 32), which is
// the "long integer ... up to 2k characters" of Step II in the paper.
//
// Within a read, tiles are laid out with stride `k - o`, so the second k-mer
// of tile i is the first k-mer of tile i+1. A final tail tile anchored at
// `read_len - tile_len` is added when the strided tiling does not reach the
// end of the read.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "seq/kmer.hpp"

namespace reptile::seq {

/// Packed tile identity. Only the low 2*tile_len bits are occupied.
using tile_id_t = std::uint64_t;

/// Codec for tiles built from two k-mers with `overlap` shared bases.
class TileCodec {
 public:
  /// Preconditions: 1 <= k <= 32, 0 <= overlap < k, 2*k - overlap <= 32.
  TileCodec(int k, int overlap);

  int k() const noexcept { return k_; }
  int overlap() const noexcept { return overlap_; }
  /// Number of bases spanned by one tile (2k - overlap).
  int tile_len() const noexcept { return tile_len_; }
  /// Offset of the second k-mer within the tile (k - overlap); also the
  /// stride between consecutive tiles of a read.
  int step() const noexcept { return step_; }
  tile_id_t mask() const noexcept { return tile_codec_.mask(); }

  /// Codec for the tile treated as one long k-mer of tile_len() bases.
  const KmerCodec& as_kmer_codec() const noexcept { return tile_codec_; }
  /// Codec for the constituent k-mers.
  const KmerCodec& kmer_codec() const noexcept { return kmer_codec_; }

  /// Packs the first tile_len() bases of `s`.
  tile_id_t pack(std::string_view s) const { return tile_codec_.pack(s); }

  /// Unpacks a tile ID into its character spelling.
  std::string unpack(tile_id_t id) const { return tile_codec_.unpack(id); }

  /// Combines the k-mer at tile offset 0 and the k-mer at tile offset
  /// step() into a tile ID. The overlapping bases are taken from `first`;
  /// callers must ensure the two k-mers actually agree on the overlap.
  tile_id_t combine(kmer_id_t first, kmer_id_t second) const;

  /// First constituent k-mer (tile offsets [0, k)).
  kmer_id_t first_kmer(tile_id_t id) const { return id >> (2 * step_); }

  /// Second constituent k-mer (tile offsets [step, tile_len)).
  kmer_id_t second_kmer(tile_id_t id) const {
    return id & kmer_codec_.mask();
  }

  /// Base code at tile offset `pos`.
  base_t base_at(tile_id_t id, int pos) const {
    return tile_codec_.base_at(id, pos);
  }

  /// Tile with the base at offset `pos` replaced by `b`.
  tile_id_t substitute(tile_id_t id, int pos, base_t b) const {
    return tile_codec_.substitute(id, pos, b);
  }

  /// Hamming distance in bases between two tiles.
  int hamming_distance(tile_id_t a, tile_id_t b) const {
    return tile_codec_.hamming_distance(a, b);
  }

  /// Start offsets of the tiles of a read of `read_len` bases: the strided
  /// positions 0, step, 2*step, ... plus a tail tile at read_len - tile_len
  /// when needed. Empty when read_len < tile_len.
  std::vector<int> tile_positions(int read_len) const;

  /// tile_positions(read_len).size(), without building the vector.
  std::size_t tile_count(int read_len) const;

  /// Entry `index` of tile_positions(read_len), or -1 past the last tile;
  /// computed without building the vector.
  int tile_position(int read_len, std::size_t index) const;

  /// Extracts all tile IDs of a read (at tile_positions()) into `out`;
  /// returns the number appended. Allocates nothing beyond `out`.
  std::size_t extract(std::string_view read, std::vector<tile_id_t>& out) const;

 private:
  int k_;
  int overlap_;
  int tile_len_;
  int step_;
  KmerCodec kmer_codec_;
  KmerCodec tile_codec_;
};

}  // namespace reptile::seq
