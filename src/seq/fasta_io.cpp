#include "seq/fasta_io.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace reptile::seq {

namespace {

[[noreturn]] void io_fail(const std::filesystem::path& p, const char* what) {
  throw std::runtime_error("fasta_io: " + std::string(what) + ": " +
                           p.string());
}

/// io_fail for an error inside record `number`.
[[noreturn]] void record_fail(const std::filesystem::path& p, seq_num_t number,
                              const std::string& what) {
  throw std::runtime_error("fasta_io: " + what + " (sequence " +
                           std::to_string(number) + "): " + p.string());
}

/// Characters stripped from sequence lines.
bool is_base_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Separators between quality values: the C locale's whitespace.
bool is_qual_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

void write_fasta(const std::filesystem::path& path,
                 const std::vector<Read>& reads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail(path, "cannot open for writing");
  for (const Read& r : reads) {
    out << '>' << r.number << '\n' << r.bases << '\n';
  }
  if (!out) io_fail(path, "write failed");
}

void write_qual(const std::filesystem::path& path,
                const std::vector<Read>& reads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail(path, "cannot open for writing");
  for (const Read& r : reads) {
    out << '>' << r.number << '\n';
    for (std::size_t i = 0; i < r.quals.size(); ++i) {
      if (i) out << ' ';
      out << static_cast<int>(r.quals[i]);
    }
    out << '\n';
  }
  if (!out) io_fail(path, "write failed");
}

void write_read_files(const std::filesystem::path& fasta,
                      const std::filesystem::path& qual,
                      const std::vector<Read>& reads) {
  write_fasta(fasta, reads);
  write_qual(qual, reads);
}

std::vector<Read> read_all(const std::filesystem::path& fasta,
                           const std::filesystem::path& qual) {
  detail::RecordReader fa(fasta);
  detail::RecordReader qf(qual);
  std::vector<Read> reads;
  while (true) {
    Read r;
    if (!detail::read_record(fa, qf, r)) break;
    reads.push_back(std::move(r));
  }
  if (qf.next_header()) {
    io_fail(qual, "quality numbering does not match FASTA");
  }
  return reads;
}

namespace detail {

std::optional<seq_num_t> parse_header(std::string_view line) {
  if (line.empty() || line[0] != '>') return std::nullopt;
  seq_num_t value = 0;
  const char* begin = line.data() + 1;
  const char* end = line.data() + line.size();
  while (end > begin && (end[-1] == '\r' || end[-1] == ' ')) --end;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<seq_num_t> first_header_at_or_after(std::ifstream& in,
                                                  std::streamoff offset,
                                                  std::streamoff* header_pos) {
  in.clear();
  in.seekg(offset);
  if (offset != 0) {
    // We may be mid-line; discard the partial line so the next getline
    // starts at a line boundary.
    std::string partial;
    if (!std::getline(in, partial)) return std::nullopt;
  }
  std::string line;
  while (true) {
    const std::streamoff pos = in.tellg();
    if (!std::getline(in, line)) return std::nullopt;
    if (const auto num = parse_header(line)) {
      if (header_pos) *header_pos = pos;
      in.clear();
      in.seekg(pos);
      return num;
    }
  }
}

std::streamoff seek_to_record(std::ifstream& in, seq_num_t target,
                              seq_num_t total_hint) {
  in.clear();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();

  // Proportional first guess, then exponential back-off while the first
  // header we land on is past the target.
  std::streamoff guess = 0;
  if (total_hint > 1) {
    guess = static_cast<std::streamoff>(
        static_cast<double>(size) *
        (static_cast<double>(target - 1) / static_cast<double>(total_hint)));
  }
  std::streamoff back = 4096;
  while (true) {
    std::streamoff pos = 0;
    const auto num = first_header_at_or_after(in, guess, &pos);
    if (num && *num <= target) {
      // Scan forward record by record to the target.
      std::string line;
      while (true) {
        const std::streamoff here = in.tellg();
        if (!std::getline(in, line)) break;
        const auto n = parse_header(line);
        if (n && *n == target) {
          in.clear();
          in.seekg(here);
          return here;
        }
        if (n && *n > target) break;  // numbering gap: target missing
      }
      throw std::runtime_error("fasta_io: record " + std::to_string(target) +
                               " not found");
    }
    if (guess == 0) {
      throw std::runtime_error("fasta_io: record " + std::to_string(target) +
                               " not found (file starts past it)");
    }
    guess = guess > back ? guess - back : 0;
    back *= 2;
  }
}

RecordReader::RecordReader(std::filesystem::path path)
    : path_(std::move(path)),
      in_(path_, std::ios::binary),
      buf_(std::make_unique_for_overwrite<char[]>(kReadBufferBytes)) {
  if (!in_) io_fail(path_, "cannot open");
}

void RecordReader::seek(std::streamoff offset) {
  in_.clear();
  in_.seekg(offset);
  pos_ = end_ = 0;
  eof_ = false;
  has_header_ = false;
}

bool RecordReader::next_line(std::string_view& line) {
  long_line_.clear();
  while (true) {
    const char* begin = buf_.get() + pos_;
    const std::size_t avail = end_ - pos_;
    if (const void* nl = std::memchr(begin, '\n', avail)) {
      const auto len =
          static_cast<std::size_t>(static_cast<const char*>(nl) - begin);
      pos_ += len + 1;
      if (long_line_.empty()) {
        line = {begin, len};
      } else {
        line = long_line_.append(begin, len);
      }
      return true;
    }
    if (eof_) {  // a last line without a newline, or nothing left
      pos_ = end_;
      if (avail == 0 && long_line_.empty()) return false;
      line = long_line_.empty() ? std::string_view(begin, avail)
                                : long_line_.append(begin, avail);
      return true;
    }
    // Refill. The partial line moves to the front of the buffer; a partial
    // line that already fills the buffer moves to long_line_ instead.
    if (avail == kReadBufferBytes) {
      long_line_.append(begin, avail);
      end_ = 0;
    } else {
      std::memmove(buf_.get(), begin, avail);
      end_ = avail;
    }
    pos_ = 0;
    const auto room = static_cast<std::streamsize>(kReadBufferBytes - end_);
    const std::streamsize got = in_.rdbuf()->sgetn(buf_.get() + end_, room);
    end_ += static_cast<std::size_t>(got);
    eof_ = got <= 0;
  }
}

bool RecordReader::next_body_line(std::string_view& line) {
  if (has_header_ || !next_line(line)) return false;
  if (!line.empty() && line[0] == '>') {
    has_header_ = true;
    header_ = parse_header(line);
    return false;
  }
  return true;
}

std::optional<seq_num_t> RecordReader::next_header() {
  std::optional<seq_num_t> num;
  if (has_header_) {
    has_header_ = false;
    num = header_;
  } else {
    std::string_view line;
    if (!next_line(line)) return std::nullopt;
    num = parse_header(line);
  }
  if (!num) io_fail(path_, "expected header line");
  number_ = *num;
  return num;
}

void RecordReader::read_bases(std::string& out) {
  base_scratch_.clear();
  std::string_view line;
  while (next_body_line(line)) {
    const char* p = line.data();
    const char* const end = p + line.size();
    while (p != end) {
      const char* stop = p;
      while (stop != end && !is_base_space(*stop)) ++stop;
      base_scratch_.append(p, stop);
      p = stop;
      while (p != end && is_base_space(*p)) ++p;
    }
  }
  out = std::string(base_scratch_);  // exact size
}

void RecordReader::read_quals(std::vector<qual_t>& out) {
  qual_scratch_.clear();
  std::string_view line;
  while (next_body_line(line)) {
    const char* const end = line.data() + line.size();
    for (const char* p = line.data(); p != end;) {
      if (is_qual_space(*p)) {
        ++p;
        continue;
      }
      qual_t value = 0;
      const auto [next, ec] = std::from_chars(p, end, value);
      if (ec != std::errc{} || (next != end && !is_qual_space(*next))) {
        const std::string token(p, std::find_if(p, end, is_qual_space));
        record_fail(path_, number_,
                    "quality value '" + token +
                        "' is not a decimal integer in 0-255");
      }
      qual_scratch_.push_back(value);
      p = next;
    }
  }
  out = std::vector<qual_t>(qual_scratch_);  // exact size
}

bool read_record(RecordReader& fasta, RecordReader& qual, Read& r) {
  const auto num = fasta.next_header();
  if (!num) return false;
  r.number = *num;
  fasta.read_bases(r.bases);
  const auto qnum = qual.next_header();
  if (!qnum) record_fail(qual.path(), *num, "fewer quality records than reads");
  if (*qnum != *num) {
    record_fail(qual.path(), *num, "quality numbering does not match FASTA");
  }
  qual.read_quals(r.quals);
  if (r.quals.size() != r.bases.size()) {
    record_fail(qual.path(), *num,
                "quality length does not match read length");
  }
  return true;
}

}  // namespace detail

PartitionedReadSource::PartitionedReadSource(std::filesystem::path fasta,
                                             std::filesystem::path qual,
                                             int rank, int nranks)
    : fasta_(std::move(fasta)), qual_(std::move(qual)) {
  assert(rank >= 0 && rank < nranks);
  std::ifstream& in = fasta_.stream();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();

  const auto range_start = static_cast<std::streamoff>(
      static_cast<double>(size) * rank / nranks);
  const auto range_end = static_cast<std::streamoff>(
      static_cast<double>(size) * (rank + 1) / nranks);

  // First owned record: first header at or after range_start. Rank 0 always
  // starts at byte 0 (there is no partial line to skip).
  std::streamoff start_pos = 0;
  const auto first = detail::first_header_at_or_after(
      in, rank == 0 ? 0 : range_start, &start_pos);
  // First record of the NEXT rank bounds our subset.
  std::optional<seq_num_t> next_first;
  if (rank + 1 < nranks) {
    std::streamoff dummy = 0;
    next_first = detail::first_header_at_or_after(in, range_end, &dummy);
  }

  if (!first || (next_first && *first >= *next_first)) {
    // Empty subset (more ranks than records in this byte range).
    first_ = end_ = next_ = 0;
    count_ = 0;
    return;
  }
  first_ = *first;
  fasta_start_ = start_pos;

  if (next_first) {
    end_ = *next_first;
  } else {
    // Count the remaining records to find the end sequence number.
    in.clear();
    in.seekg(start_pos);
    seq_num_t last = first_;
    std::string line;
    while (std::getline(in, line)) {
      if (const auto n = detail::parse_header(line)) last = *n;
    }
    end_ = last + 1;
  }
  count_ = static_cast<std::size_t>(end_ - first_);

  // Look up the same starting sequence number in the quality file so both
  // streams cover the same reads (paper Step I).
  qual_start_ = detail::seek_to_record(qual_.stream(), first_, end_);
  reset();
}

void PartitionedReadSource::reset() {
  if (count_ == 0) return;
  fasta_.seek(fasta_start_);
  qual_.seek(qual_start_);
  next_ = first_;
}

bool PartitionedReadSource::next_chunk(std::size_t max_reads, ReadBatch& out) {
  out.clear();
  while (next_ < end_ && out.size() < max_reads) {
    Read r;
    if (!detail::read_record(fasta_, qual_, r)) break;
    if (r.number != next_) {
      record_fail(fasta_.path(), r.number, "non-contiguous sequence numbers");
    }
    out.push_back(std::move(r));
    ++next_;
  }
  return !out.empty();
}

}  // namespace reptile::seq
