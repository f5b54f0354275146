#include "seq/tile.hpp"

#include <cassert>
#include <stdexcept>

namespace reptile::seq {

TileCodec::TileCodec(int k, int overlap)
    : k_(k),
      overlap_(overlap),
      tile_len_(2 * k - overlap),
      step_(k - overlap),
      kmer_codec_(k),
      tile_codec_(tile_len_) {
  if (overlap < 0 || overlap >= k) {
    throw std::invalid_argument("TileCodec: overlap must be in [0, k)");
  }
  if (tile_len_ > kMaxK) {
    throw std::invalid_argument("TileCodec: 2k - overlap must be <= 32");
  }
}

tile_id_t TileCodec::combine(kmer_id_t first, kmer_id_t second) const {
  const int tail_bases = step_;  // bases contributed by the second k-mer
  const kmer_id_t tail_mask =
      (kmer_id_t{1} << (2 * tail_bases)) - 1;  // step < k <= 32 so no UB
  return (first << (2 * tail_bases)) | (second & tail_mask);
}

kmer_id_t TileCodec::first_kmer(tile_id_t id) const {
  return id >> (2 * step_);
}

kmer_id_t TileCodec::second_kmer(tile_id_t id) const {
  return id & kmer_codec_.mask();
}

std::vector<int> TileCodec::tile_positions(int read_len) const {
  std::vector<int> out;
  for (int pos = 0; (pos = tile_position(read_len, out.size())) >= 0;) {
    out.push_back(pos);
  }
  return out;
}

int TileCodec::tile_position(int read_len, std::size_t index) const {
  if (read_len < tile_len_) return -1;
  const auto strided =
      static_cast<std::size_t>((read_len - tile_len_) / step_) + 1;
  if (index < strided) return static_cast<int>(index) * step_;
  // A tail tile anchored at the read's end when the strided tiling stops
  // short of it.
  const int last = static_cast<int>(strided - 1) * step_;
  if (index == strided && last + tile_len_ < read_len) {
    return read_len - tile_len_;
  }
  return -1;
}

std::size_t TileCodec::extract(std::string_view read,
                               std::vector<tile_id_t>& out) const {
  const auto positions = tile_positions(static_cast<int>(read.size()));
  for (int pos : positions) {
    out.push_back(pack(read.substr(static_cast<std::size_t>(pos))));
  }
  return positions.size();
}

}  // namespace reptile::seq
