#include "core/spectrum_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace reptile::core {

namespace {

constexpr char kMagic[4] = {'R', 'P', 'T', 'L'};
constexpr std::uint32_t kVersion = 1;

void write_bytes(std::ofstream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

template <class T>
void write_value(std::ofstream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_bytes(out, &v, sizeof(T));
}

template <class T>
T read_value(std::ifstream& in, const char* what) {
  T v;
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) {
    throw std::runtime_error(std::string("spectrum file truncated at ") +
                             what);
  }
  return v;
}

void write_table(std::ofstream& out, const hash::CountTable<>& table) {
  write_value<std::uint64_t>(out, table.size());
  table.for_each([&out](std::uint64_t id, std::uint32_t count) {
    write_value(out, id);
    write_value(out, count);
  });
}

/// Reads one table written by write_table into a frozen table. `file_bytes`
/// is the file's size: an entry count the rest of the file cannot hold is a
/// corrupt or truncated file, and must be refused before it sizes a table.
hash::CountTable<> read_table(std::ifstream& in, std::uintmax_t file_bytes,
                              const std::string& kind) {
  const auto entries =
      read_value<std::uint64_t>(in, (kind + " count").c_str());
  constexpr std::uintmax_t kEntryBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const auto at = static_cast<std::uintmax_t>(in.tellg());
  if (entries > (file_bytes - at) / kEntryBytes) {
    throw std::runtime_error("spectrum file truncated: " +
                             std::to_string(entries) + " " + kind +
                             " entries do not fit");
  }
  const std::string id_what = kind + " id";
  const std::string value_what = kind + " value";
  auto table = hash::CountTable<>::frozen(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    const auto id = read_value<std::uint64_t>(in, id_what.c_str());
    const auto count = read_value<std::uint32_t>(in, value_what.c_str());
    table.increment(id, count);
  }
  return table;
}

}  // namespace

void save_spectrum(const std::filesystem::path& path,
                   const LocalSpectrum& spectrum,
                   const CorrectorParams& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("spectrum: cannot open for writing " +
                             path.string());
  }
  write_bytes(out, kMagic, 4);
  write_value(out, kVersion);
  write_value(out, static_cast<std::uint32_t>(params.k));
  write_value(out, static_cast<std::uint32_t>(params.tile_overlap));
  write_value(out, static_cast<std::uint8_t>(params.canonical ? 1 : 0));
  write_value(out, static_cast<std::uint32_t>(params.kmer_threshold));
  write_value(out, static_cast<std::uint32_t>(params.tile_threshold));
  write_table(out, spectrum.kmers());
  write_table(out, spectrum.tiles());
  if (!out) {
    throw std::runtime_error("spectrum: write failed: " + path.string());
  }
}

LocalSpectrum load_spectrum(const std::filesystem::path& path,
                            const CorrectorParams& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("spectrum: cannot open " + path.string());
  }
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("spectrum: bad magic in " + path.string());
  }
  const auto version = read_value<std::uint32_t>(in, "version");
  if (version != kVersion) {
    throw std::runtime_error("spectrum: unsupported version " +
                             std::to_string(version));
  }
  const auto k = read_value<std::uint32_t>(in, "k");
  const auto overlap = read_value<std::uint32_t>(in, "tile_overlap");
  const auto canonical = read_value<std::uint8_t>(in, "canonical");
  const auto kmer_thr = read_value<std::uint32_t>(in, "kmer_threshold");
  const auto tile_thr = read_value<std::uint32_t>(in, "tile_threshold");
  if (static_cast<int>(k) != params.k ||
      static_cast<int>(overlap) != params.tile_overlap ||
      (canonical != 0) != params.canonical ||
      kmer_thr != params.kmer_threshold ||
      tile_thr != params.tile_threshold) {
    throw std::invalid_argument(
        "spectrum: file was built with incompatible parameters (k=" +
        std::to_string(k) + ", overlap=" + std::to_string(overlap) + ")");
  }

  const std::uintmax_t file_bytes = std::filesystem::file_size(path);
  auto kmers = read_table(in, file_bytes, "kmer");
  auto tiles = read_table(in, file_bytes, "tile");
  return LocalSpectrum(params, std::move(kmers), std::move(tiles));
}

}  // namespace reptile::core
