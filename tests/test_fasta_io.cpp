// Unit tests: FASTA + quality IO and Step I partitioned reading.
#include "seq/fasta_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include "seq/dataset.hpp"

namespace reptile::seq {
namespace {

namespace fs = std::filesystem;

class FastaIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "reptile_fasta_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<Read> make_reads(std::size_t n, int len = 30) {
    DatasetSpec spec{"t", n, len, n * 10};
    auto ds = SyntheticDataset::generate(spec, {}, 77);
    return std::move(ds.reads);
  }

  /// Writes `reads` as a FASTA + quality pair with each body wrapped at
  /// `width` bases (or values) a line, lines ended by `eol`, and the last
  /// line ended only when `final_newline`.
  void write_wrapped(const std::vector<Read>& reads, std::size_t width,
                     const std::string& eol, bool final_newline = true) {
    std::string fa, qual;
    for (const Read& r : reads) {
      fa += ">" + std::to_string(r.number) + eol;
      qual += ">" + std::to_string(r.number) + eol;
      for (std::size_t i = 0; i < r.bases.size(); i += width) {
        fa += r.bases.substr(i, width) + eol;
        for (std::size_t j = i; j < std::min(i + width, r.quals.size()); ++j) {
          qual += std::to_string(r.quals[j]) + (j + 1 == i + width ? "" : " ");
        }
        qual += eol;
      }
    }
    if (!final_newline) {
      fa.resize(fa.size() - eol.size());
      qual.resize(qual.size() - eol.size());
    }
    write_text("r.fa", fa);
    write_text("r.qual", qual);
  }

  void write_text(const std::string& name, const std::string& text) {
    std::ofstream(dir_ / name, std::ios::binary) << text;
  }

  /// Every read of every rank's partition, in rank order; checks that the
  /// ranks' sequence numbers are contiguous.
  std::vector<Read> read_partitions(int np, std::size_t chunk) {
    std::vector<Read> got;
    seq_num_t expected_first = 1;
    for (int rank = 0; rank < np; ++rank) {
      PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", rank, np);
      if (src.size() == 0) continue;
      EXPECT_EQ(src.first_sequence(), expected_first) << "rank " << rank;
      expected_first = src.end_sequence();
      ReadBatch batch;
      std::size_t delivered = 0;
      while (src.next_chunk(chunk, batch)) {
        delivered += batch.size();
        got.insert(got.end(), batch.begin(), batch.end());
      }
      EXPECT_EQ(delivered, src.size()) << "rank " << rank;
    }
    return got;
  }

  /// Expects read_all to throw an error naming the quality file and
  /// sequence `number`.
  void expect_quality_error(seq_num_t number) {
    try {
      read_all(dir_ / "r.fa", dir_ / "r.qual");
      ADD_FAILURE() << "read_all accepted a malformed quality token";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sequence " + std::to_string(number)),
                std::string::npos) << what;
      EXPECT_NE(what.find("r.qual"), std::string::npos) << what;
    }
  }

  fs::path dir_;
};

TEST_F(FastaIoTest, WriteReadRoundTrip) {
  const auto reads = make_reads(25);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  const auto back = read_all(dir_ / "r.fa", dir_ / "r.qual");
  EXPECT_EQ(back, reads);
}

TEST_F(FastaIoTest, ParseHeaderAcceptsOnlyNumericHeaders) {
  EXPECT_EQ(detail::parse_header(">12"), 12u);
  EXPECT_EQ(detail::parse_header(">1"), 1u);
  EXPECT_FALSE(detail::parse_header("ACGT"));
  EXPECT_FALSE(detail::parse_header(">abc"));
  EXPECT_FALSE(detail::parse_header(">"));
  EXPECT_FALSE(detail::parse_header(""));
  EXPECT_EQ(detail::parse_header(">7\r"), 7u);  // CRLF tolerance
}

TEST_F(FastaIoTest, SinglePartitionSeesEverything) {
  const auto reads = make_reads(40);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", 0, 1);
  EXPECT_EQ(src.size(), 40u);
  ReadBatch batch;
  std::vector<Read> got;
  while (src.next_chunk(7, batch)) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(got, reads);
}

TEST_F(FastaIoTest, PartitionsAreDisjointAndComplete) {
  const auto reads = make_reads(101);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  for (int np : {2, 3, 5, 8}) {
    std::vector<Read> got;
    std::size_t total = 0;
    for (int rank = 0; rank < np; ++rank) {
      PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", rank, np);
      total += src.size();
      ReadBatch batch;
      while (src.next_chunk(13, batch)) {
        got.insert(got.end(), batch.begin(), batch.end());
      }
    }
    EXPECT_EQ(total, reads.size()) << "np=" << np;
    ASSERT_EQ(got.size(), reads.size()) << "np=" << np;
    // Ranks cover ascending, contiguous, disjoint subsets.
    EXPECT_EQ(got, reads) << "np=" << np;
  }
}

TEST_F(FastaIoTest, PartitionBoundariesAreContiguous) {
  const auto reads = make_reads(64);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  const int np = 4;
  seq_num_t expected_first = 1;
  for (int rank = 0; rank < np; ++rank) {
    PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", rank, np);
    EXPECT_EQ(src.first_sequence(), expected_first);
    expected_first = src.end_sequence();
  }
  EXPECT_EQ(expected_first, 65u);
}

TEST_F(FastaIoTest, MorePartitionsThanReads) {
  const auto reads = make_reads(3);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  std::size_t total = 0;
  for (int rank = 0; rank < 8; ++rank) {
    PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", rank, 8);
    total += src.size();
  }
  EXPECT_EQ(total, 3u);
}

TEST_F(FastaIoTest, ResetReplaysTheSameReads) {
  const auto reads = make_reads(30);
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", 1, 3);
  ReadBatch batch;
  std::vector<Read> first_pass, second_pass;
  while (src.next_chunk(4, batch)) {
    first_pass.insert(first_pass.end(), batch.begin(), batch.end());
  }
  src.reset();
  while (src.next_chunk(9, batch)) {
    second_pass.insert(second_pass.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(first_pass, second_pass);
  EXPECT_FALSE(first_pass.empty());
}

TEST_F(FastaIoTest, SeekToRecordFindsTargets) {
  const auto reads = make_reads(200);
  write_qual(dir_ / "r.qual", reads);
  std::ifstream in(dir_ / "r.qual", std::ios::binary);
  for (seq_num_t target : {1u, 2u, 57u, 100u, 199u, 200u}) {
    const auto pos = detail::seek_to_record(in, target, 200);
    in.clear();
    in.seekg(pos);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(detail::parse_header(line), target);
  }
}

TEST_F(FastaIoTest, SeekToMissingRecordThrows) {
  const auto reads = make_reads(10);
  write_qual(dir_ / "r.qual", reads);
  std::ifstream in(dir_ / "r.qual", std::ios::binary);
  EXPECT_THROW(detail::seek_to_record(in, 11, 10), std::runtime_error);
}

TEST_F(FastaIoTest, MismatchedQualityLengthThrows) {
  auto reads = make_reads(5);
  write_fasta(dir_ / "r.fa", reads);
  reads[2].quals.pop_back();
  write_qual(dir_ / "r.qual", reads);
  EXPECT_THROW(read_all(dir_ / "r.fa", dir_ / "r.qual"), std::runtime_error);
}

TEST_F(FastaIoTest, MissingFileThrows) {
  EXPECT_THROW(read_all(dir_ / "nope.fa", dir_ / "nope.qual"),
               std::runtime_error);
}

TEST_F(FastaIoTest, WrappedBodiesAreConcatenated) {
  const auto reads = make_reads(20, 50);
  write_wrapped(reads, 7, "\n");
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
}

TEST_F(FastaIoTest, CrlfLineEndingsAreStripped) {
  const auto reads = make_reads(20, 50);
  write_wrapped(reads, 16, "\r\n");
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
}

TEST_F(FastaIoTest, LastLineWithoutNewlineIsRead) {
  const auto reads = make_reads(6);
  write_wrapped(reads, 30, "\n", /*final_newline=*/false);
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
  write_wrapped(reads, 11, "\r\n", /*final_newline=*/false);
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
}

TEST_F(FastaIoTest, BlankLinesAndSpacesInBodiesAreIgnored) {
  write_text("r.fa", ">1\nAC GT\n\n\tAC\r\n>2 \nGG\n\n");
  write_text("r.qual", ">1\n40  38\t37\n\n 36 35\n20\n>2\r\n1\n2\n\n");
  const auto back = read_all(dir_ / "r.fa", dir_ / "r.qual");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].bases, "ACGTAC");
  EXPECT_EQ(back[0].quals, (std::vector<qual_t>{40, 38, 37, 36, 35, 20}));
  EXPECT_EQ(back[1].number, 2u);
  EXPECT_EQ(back[1].bases, "GG");
  EXPECT_EQ(back[1].quals, (std::vector<qual_t>{1, 2}));
}

TEST_F(FastaIoTest, ReadsLongerThanTheBufferStraddleRefills) {
  // Three reads whose one-line FASTA and quality bodies are each longer than
  // the reader's buffer, between short reads.
  auto reads = make_reads(6, 40);
  for (std::size_t i : {1u, 2u, 4u}) {
    const std::size_t len = detail::kReadBufferBytes + 1000 * i + 17;
    std::string bases;
    std::vector<qual_t> quals;
    for (std::size_t j = 0; j < len; ++j) {
      bases += "ACGT"[(j * 7 + i) % 4];
      quals.push_back(static_cast<qual_t>((j * 13 + i) % 42));
    }
    reads[i].bases = bases;
    reads[i].quals = quals;
  }
  write_read_files(dir_ / "r.fa", dir_ / "r.qual", reads);
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
  for (int np : {1, 2, 3}) {
    EXPECT_EQ(read_partitions(np, 2), reads) << "np=" << np;
  }
  write_wrapped(reads, 61, "\r\n", /*final_newline=*/false);
  EXPECT_EQ(read_all(dir_ / "r.fa", dir_ / "r.qual"), reads);
}

TEST_F(FastaIoTest, ResetReplaysByteIdenticalBatches) {
  const auto reads = make_reads(500, 60);
  write_wrapped(reads, 13, "\r\n");
  PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", 1, 3);
  ASSERT_GT(src.size(), 0u);
  std::vector<ReadBatch> first_pass;
  ReadBatch batch;
  while (src.next_chunk(37, batch)) first_pass.push_back(batch);
  src.reset();
  std::size_t i = 0;
  while (src.next_chunk(37, batch)) {
    ASSERT_LT(i, first_pass.size());
    EXPECT_EQ(batch, first_pass[i]) << "batch " << i;
    ++i;
  }
  EXPECT_EQ(i, first_pass.size());
}

TEST_F(FastaIoTest, WrappedCrlfPartitionsAreDisjointAndComplete) {
  const auto reads = make_reads(97, 45);
  write_wrapped(reads, 10, "\r\n", /*final_newline=*/false);
  for (int np = 1; np <= 7; ++np) {
    EXPECT_EQ(read_partitions(np, 5), reads) << "np=" << np;
  }
}

TEST_F(FastaIoTest, ReadAllEqualsConcatenatedPartitions) {
  const auto reads = make_reads(120, 33);
  write_wrapped(reads, 9, "\n");
  const auto all = read_all(dir_ / "r.fa", dir_ / "r.qual");
  for (int np : {1, 2, 4, 7}) {
    EXPECT_EQ(read_partitions(np, 16), all) << "np=" << np;
  }
}

TEST_F(FastaIoTest, NonNumericQualityTokenThrows) {
  write_text("r.fa", ">1\nACGT\n>2\nACG\n");
  write_text("r.qual", ">1\n1 2 3 4\n>2\n40 38 37 x\n");
  expect_quality_error(2);
}

TEST_F(FastaIoTest, QualityAboveRangeThrows) {
  write_text("r.fa", ">1\nACG\n");
  write_text("r.qual", ">1\n40 300 37\n");
  expect_quality_error(1);
}

TEST_F(FastaIoTest, NegativeQualityThrows) {
  write_text("r.fa", ">1\nACG\n");
  write_text("r.qual", ">1\n40 -5 37\n");
  expect_quality_error(1);
}

TEST_F(FastaIoTest, FractionalQualityThrows) {
  write_text("r.fa", ">1\nACG\n");
  write_text("r.qual", ">1\n3.5 40 37\n");
  expect_quality_error(1);
}

TEST_F(FastaIoTest, MalformedQualityThrowsInPartitionsToo) {
  write_text("r.fa", ">1\nACG\n>2\nACG\n");
  write_text("r.qual", ">1\n1 2 3\n>2\n1 256 3\n");
  PartitionedReadSource src(dir_ / "r.fa", dir_ / "r.qual", 0, 1);
  ReadBatch batch;
  EXPECT_THROW(src.next_chunk(8, batch), std::runtime_error);
}

}  // namespace
}  // namespace reptile::seq
