// Unit tests: tile codec (two overlapping k-mers packed as one ID).
#include "seq/tile.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace reptile::seq {
namespace {

TEST(TileCodec, GeometryDerivedFromKAndOverlap) {
  const TileCodec codec(12, 4);
  EXPECT_EQ(codec.tile_len(), 20);
  EXPECT_EQ(codec.step(), 8);
  EXPECT_EQ(codec.k(), 12);
}

TEST(TileCodec, RejectsBadGeometry) {
  EXPECT_THROW(TileCodec(12, 12), std::invalid_argument);  // overlap == k
  EXPECT_THROW(TileCodec(12, -1), std::invalid_argument);
  EXPECT_THROW(TileCodec(20, 4), std::invalid_argument);   // 2k-o = 36 > 32
  EXPECT_NO_THROW(TileCodec(16, 0));                        // exactly 32
}

TEST(TileCodec, PackUnpackRoundTrip) {
  const TileCodec codec(6, 2);  // tile_len 10
  const std::string s = "ACGTACGTAC";
  EXPECT_EQ(codec.unpack(codec.pack(s)), s);
}

TEST(TileCodec, CombineSplitsBackIntoKmers) {
  const TileCodec codec(6, 2);
  const std::string tile = "ACGTACGTAC";
  const tile_id_t id = codec.pack(tile);
  const KmerCodec& kc = codec.kmer_codec();
  // First k-mer covers [0, 6); second covers [4, 10).
  EXPECT_EQ(kc.unpack(codec.first_kmer(id)), "ACGTAC");
  EXPECT_EQ(kc.unpack(codec.second_kmer(id)), "ACGTAC");
  EXPECT_EQ(codec.combine(codec.first_kmer(id), codec.second_kmer(id)), id);
}

TEST(TileCodec, CombineWithDistinctKmers) {
  const TileCodec codec(5, 1);  // tile_len 9, step 4
  const std::string tile = "AACCGGTTA";
  const tile_id_t id = codec.pack(tile);
  EXPECT_EQ(codec.kmer_codec().unpack(codec.first_kmer(id)), "AACCG");
  EXPECT_EQ(codec.kmer_codec().unpack(codec.second_kmer(id)), "GGTTA");
  EXPECT_EQ(codec.combine(codec.first_kmer(id), codec.second_kmer(id)), id);
}

TEST(TileCodec, TilePositionsCoverRead) {
  const TileCodec codec(6, 2);  // tile_len 10, step 4
  const auto pos = codec.tile_positions(22);
  // Strided: 0, 4, 8, 12 (12+10=22 fits); no tail needed.
  EXPECT_EQ(pos, (std::vector<int>{0, 4, 8, 12}));
}

TEST(TileCodec, TilePositionsAddTailTile) {
  const TileCodec codec(6, 2);  // tile_len 10, step 4
  const auto pos = codec.tile_positions(21);
  // Strided 0,4,8 (8+10=18 <= 21); 12+10=22 > 21, tail at 21-10=11.
  EXPECT_EQ(pos, (std::vector<int>{0, 4, 8, 11}));
}

TEST(TileCodec, TilePositionsEmptyForShortReads) {
  const TileCodec codec(6, 2);
  EXPECT_TRUE(codec.tile_positions(9).empty());
  EXPECT_EQ(codec.tile_positions(10), (std::vector<int>{0}));
}

TEST(TileCodec, ExtractMatchesPositions) {
  const TileCodec codec(4, 1);  // tile_len 7, step 3
  const std::string read = "ACGTACGTACGT";  // len 12
  std::vector<tile_id_t> out;
  const auto n = codec.extract(read, out);
  const auto pos = codec.tile_positions(12);
  ASSERT_EQ(n, pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(codec.unpack(out[i]),
              read.substr(static_cast<std::size_t>(pos[i]), 7));
  }
}

TEST(TileCodec, ExtractAndCountMatchPositionsAtEveryLength) {
  // Short reads (no tile), an exact strided fit (no tail) and every tail
  // offset: extract() and tile_count() walk tile_position() without
  // building the vector, and must agree with tile_positions().
  const std::string bases = "ACGGTTAACCGGATCGGATTACGTTAGCATGCAAGTC";
  for (const auto& [k, overlap] : {std::pair{4, 1}, std::pair{6, 2}}) {
    const TileCodec codec(k, overlap);
    for (int len = 0; len <= static_cast<int>(bases.size()); ++len) {
      const std::string read = bases.substr(0, static_cast<std::size_t>(len));
      const auto pos = codec.tile_positions(len);
      EXPECT_EQ(codec.tile_count(len), pos.size()) << "len " << len;
      std::vector<tile_id_t> out{42};  // extract appends
      ASSERT_EQ(codec.extract(read, out), pos.size()) << "len " << len;
      ASSERT_EQ(out.size(), pos.size() + 1);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        EXPECT_EQ(codec.unpack(out[i + 1]),
                  read.substr(static_cast<std::size_t>(pos[i]),
                              static_cast<std::size_t>(codec.tile_len())))
            << "len " << len << " tile " << i;
      }
    }
  }
}

TEST(TileCodec, ConsecutiveTilesShareAKmer) {
  // The second k-mer of tile i must equal the first k-mer of tile i+1 for
  // strided (non-tail) tiles — the chaining property the corrector uses.
  const TileCodec codec(6, 2);
  const std::string read = "ACGGTTAACCGGATCGGATTAC";  // len 22
  std::vector<tile_id_t> tiles;
  codec.extract(read, tiles);
  ASSERT_GE(tiles.size(), 2u);
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    EXPECT_EQ(codec.second_kmer(tiles[i]), codec.first_kmer(tiles[i + 1]));
  }
}

TEST(TileCodec, SubstituteMatchesStringEdit) {
  const TileCodec codec(6, 2);
  std::string tile = "ACGTACGTAC";
  const tile_id_t id = codec.pack(tile);
  const tile_id_t sub = codec.substitute(id, 7, kBaseC);
  tile[7] = 'C';
  EXPECT_EQ(codec.unpack(sub), tile);
}

}  // namespace
}  // namespace reptile::seq
