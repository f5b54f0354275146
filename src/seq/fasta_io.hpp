#pragma once
// FASTA + quality-score file IO, including the paper's Step I partitioned
// parallel read.
//
// Input format (paper Section III, Step I): a FASTA file whose sequence
// names are ascending sequence numbers starting at 1, plus a quality-score
// file carrying the same sequence numbers with whitespace-separated Phred
// integers:
//
//   reads.fa            reads.qual
//   >1                  >1
//   ACGTACGT...         40 38 37 12 ...
//   >2                  >2
//   ...                 ...
//
// Each rank computes its byte range as file_size/np, scans forward to the
// first record boundary, records the starting sequence number, and looks up
// the same number in the quality file so both streams cover the same reads.
//
// Records are parsed by one buffered reader (detail::RecordReader) per file,
// shared by read_all and the partitioned source. It fills a fixed
// kReadBufferBytes buffer with block reads, finds lines with memchr and
// carries a line that straddles a refill over to the next fill; the stream is
// only repositioned when a partition starts or restarts. Accepted input:
// headers ">N" with an optional trailing '\r' or space; sequence and quality
// bodies wrapped over any number of lines (blank lines ignored); spaces, tabs
// and '\r' stripped from bases; a last line without a newline. A quality
// token that is not a decimal integer in 0-255 is an error.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "seq/read.hpp"

namespace reptile::seq {

/// Writes `reads` as the pre-processed FASTA file Reptile consumes
/// (headers ">1", ">2", ... in read order). Throws std::runtime_error on IO
/// failure.
void write_fasta(const std::filesystem::path& path,
                 const std::vector<Read>& reads);

/// Writes the parallel quality-score file (same headers, space-separated
/// Phred integers).
void write_qual(const std::filesystem::path& path,
                const std::vector<Read>& reads);

/// Writes both files next to each other; convenience used by dataset
/// generation.
void write_read_files(const std::filesystem::path& fasta,
                      const std::filesystem::path& qual,
                      const std::vector<Read>& reads);

/// Reads an entire FASTA + quality pair back into memory (tests and the
/// sequential baseline). Throws on malformed input or mismatched numbering.
std::vector<Read> read_all(const std::filesystem::path& fasta,
                           const std::filesystem::path& qual);

namespace detail {

/// Parses a header line ">N" into N; returns std::nullopt when the line is
/// not a header.
std::optional<seq_num_t> parse_header(std::string_view line);

/// Positions `in` at the start of the first header line at byte offset
/// >= `offset`, returning that header's sequence number, or std::nullopt
/// when no header follows. Leaves the stream positioned at the header line.
std::optional<seq_num_t> first_header_at_or_after(std::ifstream& in,
                                                  std::streamoff offset,
                                                  std::streamoff* header_pos);

/// Positions `in` at the header line of record `target`, searching around a
/// proportional guess (backing off in growing blocks when the guess
/// overshoots). Returns the byte offset of the header line. Throws when the
/// record does not exist.
std::streamoff seek_to_record(std::ifstream& in, seq_num_t target,
                              seq_num_t total_hint);

/// Size of the block buffer each RecordReader fills; lines longer than this
/// are assembled in a side buffer.
inline constexpr std::size_t kReadBufferBytes = 64 * 1024;

/// Buffered record reader over one FASTA or quality file: header lines
/// ">N", each followed by its body lines up to the next header or EOF.
/// Errors throw std::runtime_error naming the file (and the sequence number
/// once a header has been read).
class RecordReader {
 public:
  /// Opens `path`; throws when it cannot be opened.
  explicit RecordReader(std::filesystem::path path);

  const std::filesystem::path& path() const noexcept { return path_; }
  /// The underlying stream, for the Step I boundary search. Call seek()
  /// before reading records after using it.
  std::ifstream& stream() noexcept { return in_; }

  /// Positions the reader at byte `offset` (a header line), dropping any
  /// buffered data.
  void seek(std::streamoff offset);

  /// Reads the next header line; std::nullopt at EOF. Throws when the line
  /// is not a header.
  std::optional<seq_num_t> next_header();

  /// Reads the body of the record whose header was just read, leaving the
  /// reader at the next header. `out` receives the bases (spaces, tabs and
  /// '\r' removed) or the quality values, sized exactly.
  void read_bases(std::string& out);
  void read_quals(std::vector<qual_t>& out);

 private:
  /// Next line without its '\n'; the view is valid until the next call.
  /// Returns false at EOF.
  bool next_line(std::string_view& line);
  /// Next body line; false at EOF or when the line is a header, which then
  /// becomes the pending next_header() result.
  bool next_body_line(std::string_view& line);

  std::filesystem::path path_;
  std::ifstream in_;
  std::unique_ptr<char[]> buf_;
  std::size_t pos_ = 0;        ///< first unread byte in buf_
  std::size_t end_ = 0;        ///< one past the last filled byte in buf_
  bool eof_ = false;           ///< the stream has no more bytes
  std::string long_line_;      ///< a line longer than the buffer
  bool has_header_ = false;    ///< a body scan stopped at a header line
  std::optional<seq_num_t> header_;  ///< that line, parsed
  seq_num_t number_ = 0;       ///< sequence number of the current record
  std::string base_scratch_;   ///< body assembled before exact-size copy
  std::vector<qual_t> qual_scratch_;
};

/// Reads the next FASTA record and its quality record into `r`; returns
/// false at the end of the FASTA file. Throws when the quality record is
/// missing, numbered differently, or of a different length.
bool read_record(RecordReader& fasta, RecordReader& qual, Read& r);

}  // namespace detail

/// One rank's byte-partitioned view of a FASTA + quality pair: the rank's
/// subset is the records whose headers start in
/// [file_size*rank/np, file_size*(rank+1)/np) of the FASTA file, exactly the
/// paper's Step I. Implements ReadSource for chunked streaming.
class PartitionedReadSource final : public ReadSource {
 public:
  /// Opens both files and locates this rank's first/last sequence numbers.
  /// Preconditions: 0 <= rank < nranks.
  PartitionedReadSource(std::filesystem::path fasta, std::filesystem::path qual,
                        int rank, int nranks);

  bool next_chunk(std::size_t max_reads, ReadBatch& out) override;
  void reset() override;
  std::size_t size() const override { return count_; }

  /// First sequence number of the rank's subset; 0 when the subset is empty.
  seq_num_t first_sequence() const noexcept { return first_; }
  /// One past the last sequence number of the subset.
  seq_num_t end_sequence() const noexcept { return end_; }

 private:
  detail::RecordReader fasta_;
  detail::RecordReader qual_;
  seq_num_t first_ = 0;  ///< first owned sequence number (1-based)
  seq_num_t end_ = 0;    ///< one past the last owned sequence number
  seq_num_t next_ = 0;   ///< next sequence number to deliver
  std::size_t count_ = 0;
  std::streamoff fasta_start_ = 0;  ///< byte offset of the first owned record
  std::streamoff qual_start_ = 0;
};

}  // namespace reptile::seq
