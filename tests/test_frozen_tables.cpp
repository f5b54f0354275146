// Integration tests: every spectrum table that is only read after
// construction is built at the frozen sizing (hash::CountTable::frozen,
// load <= 1/2), in every distributed mode, in the replicated baseline and for
// a loaded checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/spectrum.hpp"
#include "core/spectrum_io.hpp"
#include "parallel/dist_spectrum.hpp"
#include "pipeline/dist_model.hpp"
#include "pipeline/replicated_model.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile {
namespace {

using Table = hash::CountTable<>;
using parallel::LookupKind;

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 2;
  p.tile_threshold = 2;
  return p;
}

seq::SyntheticDataset make_dataset() {
  seq::DatasetSpec spec{"frozen", 600, 60, 2000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.01;
  return seq::SyntheticDataset::generate(spec, errors, 20);
}

/// Adds rank r's contiguous share of the reads, then runs the construction
/// tail the BuildSpectrum stage runs (one exchange, then finalize).
template <class Model>
void construct(Model& model, const std::vector<seq::Read>& reads,
               const rtm::Comm& comm) {
  const std::size_t np = static_cast<std::size_t>(comm.size());
  const std::size_t r = static_cast<std::size_t>(comm.rank());
  for (std::size_t i = reads.size() * r / np; i < reads.size() * (r + 1) / np;
       ++i) {
    model.add_read(reads[i].bases);
  }
  model.exchange_chunk();
  model.finalize_construction();
}

std::string_view kind_name(LookupKind kind) {
  return kind == LookupKind::kKmer ? "kmer" : "tile";
}

/// A frozen table holds at most capacity / 2 entries; one that holds any is
/// at exactly the frozen capacity for them. A table the mode released
/// (capacity 0) is empty.
void expect_frozen(const Table& t, const std::string& what) {
  EXPECT_LE(2 * t.size(), t.capacity()) << what;
  if (t.size() > 0) {
    EXPECT_EQ(t.capacity(), Table::frozen_capacity(t.size())) << what;
  }
}

enum class Mode { kDefault, kAllgatherBoth, kGroupOfTwo, kReadKmers };

parallel::Heuristics heuristics_for(Mode mode) {
  parallel::Heuristics heur;
  switch (mode) {
    case Mode::kDefault:
      break;
    case Mode::kAllgatherBoth:
      heur.allgather_kmers = true;
      heur.allgather_tiles = true;
      break;
    case Mode::kGroupOfTwo:
      heur.partial_replication_group = 2;
      break;
    case Mode::kReadKmers:
      heur.read_kmers = true;
      break;
  }
  return heur;
}

/// The table each mode adds next to the owned tables; it must be non-empty
/// so the check reaches it.
std::string_view mode_table(Mode mode) {
  switch (mode) {
    case Mode::kDefault:
      return "owned";
    case Mode::kAllgatherBoth:
      return "replica";
    case Mode::kGroupOfTwo:
      return "group";
    case Mode::kReadKmers:
      return "reads";
  }
  return "";
}

class FrozenAfterConstruction
    : public ::testing::TestWithParam<std::tuple<int, Mode>> {};

TEST_P(FrozenAfterConstruction, EveryLookupTableIsAtMostHalfFull) {
  const auto [np, mode] = GetParam();
  const auto ds = make_dataset();
  const auto params = small_params();
  const auto heur = heuristics_for(mode);
  rtm::run_world({np, 1}, [&](rtm::Comm& comm) {
    pipeline::DistSpectrumModel model(params, heur, comm);
    construct(model, ds.reads, comm);
    std::map<std::string_view, std::size_t> entries;
    model.spectrum().for_each_lookup_table(
        [&](LookupKind kind, std::string_view name, const Table& t) {
          expect_frozen(t, "rank " + std::to_string(comm.rank()) + " " +
                               std::string(kind_name(kind)) + " " +
                               std::string(name));
          entries[name] += t.size();
        });
    EXPECT_GT(entries[mode_table(mode)], 0u) << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, FrozenAfterConstruction,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(Mode::kDefault, Mode::kAllgatherBoth,
                                         Mode::kGroupOfTwo, Mode::kReadKmers)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "ranks_" +
             std::string(mode_table(std::get<1>(info.param)));
    });

TEST(FrozenAfterConstruction, ReplicatedBaselineIsAtMostHalfFull) {
  const auto ds = make_dataset();
  const auto params = small_params();
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    pipeline::ReplicatedSpectrumModel model(params, comm);
    construct(model, ds.reads, comm);
    stats::PhaseTimeline report;
    model.record_construction_footprint(report);
    const stats::SpectrumFootprint& fp = report.footprint_after_construction;
    ASSERT_GT(fp.hash_tile_entries, 0u);
    EXPECT_EQ(fp.bytes, (Table::frozen_capacity(fp.hash_kmer_entries) +
                         Table::frozen_capacity(fp.hash_tile_entries)) *
                            Table::kSlotBytes);
  });
}

TEST(FrozenAfterConstruction, AddRemoteGrowsTheReadsTablePastSevenEighths) {
  // add_remote caches replies into a reads table frozen at load <= 1/2.
  // Enough of them take it past 7/8, where it rehashes by the growing rule;
  // every fetched and cached count must survive, and reset_for_job must
  // still restore the end-of-construction entries.
  const auto ds = make_dataset();
  const auto params = small_params();
  parallel::Heuristics heur;
  heur.read_kmers = true;
  heur.add_remote = true;
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    pipeline::DistSpectrumModel model(params, heur, comm);
    construct(model, ds.reads, comm);
    parallel::DistSpectrum& spectrum = model.spectrum();
    const auto reads_table = [&spectrum](LookupKind want) {
      const Table* found = nullptr;
      spectrum.for_each_lookup_table(
          [&](LookupKind kind, std::string_view name, const Table& t) {
            if (kind == want && name == "reads") found = &t;
          });
      return found;
    };
    for (const LookupKind kind : parallel::kLookupKinds) {
      const Table& reads = *reads_table(kind);
      ASSERT_GT(reads.size(), 0u);
      const auto fetched = reads.entries();
      const std::size_t frozen_cap = reads.capacity();
      // The top bit is beyond every k-mer and tile ID at k = 10, so these
      // IDs are new to the table.
      std::uint64_t cached = 0;
      while (reads.size() * 8 <= frozen_cap * 7) {
        spectrum.cache_remote(kind, (1ull << 63) | cached,
                              static_cast<std::uint32_t>(cached % 5));
        ++cached;
      }
      EXPECT_GT(reads.capacity(), frozen_cap);
      for (const auto& [id, count] : fetched) ASSERT_EQ(reads.find(id), count);
      for (std::uint64_t i = 0; i < cached; ++i) {
        ASSERT_EQ(reads.find((1ull << 63) | i), i % 5) << i;
      }
      spectrum.reset_for_job();
      EXPECT_EQ(reads.size(), fetched.size());
      for (const auto& [id, count] : fetched) ASSERT_EQ(reads.find(id), count);
      EXPECT_FALSE(reads.contains(1ull << 63));
    }
  });
}

class FrozenLocalSpectrum : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove_all(dir_); }

  core::LocalSpectrum build() const {
    core::LocalSpectrum s(params_);
    for (const auto& r : ds_.reads) s.add_read(r.bases);
    s.prune();
    return s;
  }

  std::filesystem::path dir_ =
      std::filesystem::temp_directory_path() / "reptile_frozen_tables";
  core::CorrectorParams params_ = small_params();
  seq::SyntheticDataset ds_ = make_dataset();
};

TEST_F(FrozenLocalSpectrum, PrunedAndLoadedSpectraAreAtMostHalfFull) {
  const core::LocalSpectrum original = build();
  ASSERT_GT(original.tile_entries(), 0u);
  expect_frozen(original.kmers(), "pruned kmers");
  expect_frozen(original.tiles(), "pruned tiles");

  std::filesystem::create_directories(dir_);
  core::save_spectrum(dir_ / "s.rptl", original, params_);
  const core::LocalSpectrum loaded =
      core::load_spectrum(dir_ / "s.rptl", params_);
  EXPECT_EQ(loaded.kmer_entries(), original.kmer_entries());
  EXPECT_EQ(loaded.tile_entries(), original.tile_entries());
  expect_frozen(loaded.kmers(), "loaded kmers");
  expect_frozen(loaded.tiles(), "loaded tiles");
  EXPECT_EQ(loaded.memory_bytes(), original.memory_bytes());
}

TEST(FrozenTableSizing, FrozenTablesAreAtMostHalfFull) {
  // 3,000 k-mers grown entry by entry sit in 4,096 slots (load 0.73); a
  // table built by CountTable::frozen holds them in 8,192, and 100 tiles in
  // 256.
  Table grown;
  for (std::uint64_t k = 0; k < 3000; ++k) grown.increment(k, 5);
  ASSERT_EQ(grown.capacity(), 4096u);
  Table kmers = Table::frozen(grown.size());
  grown.for_each(
      [&](std::uint64_t id, std::uint32_t c) { kmers.increment(id, c); });
  Table tiles = Table::frozen(100);
  for (std::uint64_t k = 0; k < 100; ++k) tiles.increment(k, 5);
  expect_frozen(kmers, "frozen kmers");
  expect_frozen(tiles, "frozen tiles");
  EXPECT_EQ(kmers.memory_bytes() + tiles.memory_bytes(),
            (8192u + 256u) * Table::kSlotBytes);
}

TEST_F(FrozenLocalSpectrum, OversizedEntryCountIsRefusedBeforeSizing) {
  // A checkpoint whose entry count the file cannot hold is corrupt; it is
  // refused before a table is sized for it.
  std::filesystem::create_directories(dir_);
  core::save_spectrum(dir_ / "s.rptl", build(), params_);
  {
    std::fstream f(dir_ / "s.rptl",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4 + 4 * 3 + 1 + 4 * 2);  // header, then the k-mer entry count
    const std::uint64_t huge = std::uint64_t{1} << 40;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(core::load_spectrum(dir_ / "s.rptl", params_),
               std::runtime_error);
}

}  // namespace
}  // namespace reptile
