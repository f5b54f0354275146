// Integration tests: the paper's Section V future-work feature (partial
// replication) and the Step III Bloom-filter construction alternative.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"
#include "stats/accuracy.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"ext", 1200, 70, 2000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.004;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 88);
  }();
  return ds;
}

// --- partial replication (Section V) ----------------------------------------

TEST(PartialReplication, OutputIdenticalToSequential) {
  const auto ref = core::run_sequential(dataset().reads, test_params());
  // Includes a group size that does not divide the rank count (the last
  // group is smaller: {0..3}, {4, 5}).
  const std::pair<int, int> cases[] = {{8, 2}, {8, 4}, {8, 8}, {6, 4}};
  for (const auto [ranks, group] : cases) {
    DistConfig config;
    config.params = test_params();
    config.ranks = ranks;
    config.ranks_per_node = 4;
    config.heuristics.partial_replication_group = group;
    const auto result = run_distributed(dataset().reads, config);
    ASSERT_EQ(result.corrected.size(), ref.corrected.size());
    for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
      ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
          << "ranks=" << ranks << " group=" << group << " read "
          << ref.corrected[i].number;
    }
  }
}

TEST(PartialReplication, ReducesRemoteLookupsMonotonically) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 8;
  config.ranks_per_node = 4;
  config.heuristics.batch_lookups = false;  // counts scalar round trips
  std::uint64_t previous = ~0ull;
  for (int group : {1, 2, 4, 8}) {
    config.heuristics.partial_replication_group = group;
    const auto result = run_distributed(dataset().reads, config);
    std::uint64_t remote = 0, group_hits = 0;
    for (const auto& r : result.ranks) {
      remote += r.remote.remote_lookups();
      group_hits += r.remote.group_lookups;
    }
    EXPECT_LT(remote, previous) << "group=" << group;
    previous = remote;
    if (group > 1) EXPECT_GT(group_hits, 0u) << "group=" << group;
    if (group == 8) EXPECT_EQ(remote, 0u);  // whole world in one group
  }
}

TEST(PartialReplication, TradesMemoryForLocality) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 8;
  config.ranks_per_node = 4;
  auto peak_memory = [&](int group) {
    config.heuristics.partial_replication_group = group;
    const auto result = run_distributed(dataset().reads, config);
    std::size_t peak = 0;
    for (const auto& r : result.ranks) {
      peak = std::max(peak, r.footprint_after_correction.bytes);
    }
    return peak;
  };
  const auto none = peak_memory(1);
  const auto pairs = peak_memory(2);
  const auto full = peak_memory(8);
  EXPECT_GT(pairs, none);
  EXPECT_GT(full, pairs);
}

TEST(PartialReplication, RejectsInvalidGroup) {
  Heuristics h;
  h.partial_replication_group = 0;
  EXPECT_THROW(h.validate(), std::invalid_argument);
  h.partial_replication_group = 4;
  EXPECT_NO_THROW(h.validate());
  EXPECT_NE(h.label().find("partial_repl(4)"), std::string::npos);
}

// --- Bloom-filter construction (Step III note) -------------------------------

TEST(BloomConstruction, AccuracyEssentiallyUnchanged) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto exact = run_distributed(dataset().reads, config);
  config.heuristics.bloom_construction = true;
  const auto bloomed = run_distributed(dataset().reads, config);

  const auto acc_exact =
      stats::score_correction(dataset().reads, exact.corrected, dataset().truth);
  const auto acc_bloom = stats::score_correction(dataset().reads,
                                                 bloomed.corrected,
                                                 dataset().truth);
  // The mode is approximate (counts can be off by one near the threshold),
  // but correction quality must stay within a few percent of exact.
  EXPECT_NEAR(acc_bloom.sensitivity(), acc_exact.sensitivity(), 0.05);
  EXPECT_NEAR(acc_bloom.gain(), acc_exact.gain(), 0.05);
}

TEST(BloomConstruction, SuppressesSingletonEntries) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.params.kmer_threshold = 1;  // keep everything -> census visible
  config.params.tile_threshold = 1;

  const auto count_entries = [&](bool bloom) {
    config.heuristics.bloom_construction = bloom;
    const auto result = run_distributed(dataset().reads, config);
    std::size_t entries = 0;
    for (const auto& r : result.ranks) {
      entries += r.footprint_after_construction.hash_kmer_entries +
                 r.footprint_after_construction.hash_tile_entries;
    }
    return entries;
  };
  const auto exact = count_entries(false);
  const auto bloomed = count_entries(true);
  // Error-noise singletons dominate the unpruned spectrum; the filter must
  // keep a large share of them out of the exact tables.
  EXPECT_LT(bloomed, exact * 3 / 4);
}

TEST(BloomConstruction, AboveThresholdEntriesSurvive) {
  // Entries comfortably above the threshold must all be admitted (their
  // counts may be off by one, never missing).
  const auto params = test_params();
  DistConfig config;
  config.params = params;
  config.ranks = 4;
  config.heuristics.bloom_construction = true;
  const auto bloomed = run_distributed(dataset().reads, config);
  const auto exact_run = core::run_sequential(dataset().reads, params);
  // Compare total corrected substitutions: bloom mode must do essentially
  // the same work (solid spectrum preserved).
  const double exact_subs = static_cast<double>(exact_run.substitutions);
  const double bloom_subs =
      static_cast<double>(bloomed.total_substitutions());
  EXPECT_NEAR(bloom_subs, exact_subs, exact_subs * 0.05 + 5);
}

TEST(BloomConstruction, ComposesWithBatchReads) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.bloom_construction = true;
  config.heuristics.batch_reads = true;
  const auto result = run_distributed(dataset().reads, config);
  const auto acc = stats::score_correction(dataset().reads, result.corrected,
                                           dataset().truth);
  EXPECT_GT(acc.sensitivity(), 0.5);
  EXPECT_EQ(result.corrected.size(), dataset().reads.size());
}

}  // namespace
}  // namespace reptile::parallel
