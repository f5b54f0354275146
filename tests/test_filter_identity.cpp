// End-to-end identity for the filter exchange (filter_lookups heuristic):
// consulting a peer's Bloom filter before the wire may only change WHERE a
// definitive absence is discovered, never a single corrected byte. The
// sweep runs filtered corrections across dataset seeds x scalar/batched x
// 1-4 ranks against the sequential oracle (which the unfiltered runs
// already match, so agreement here IS filtered==unfiltered byte-identity),
// then pins the counters: definite absences answered locally, fewer remote
// requests, on by default, zero cost when the flag is off.
#include <gtest/gtest.h>

#include <map>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

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

const seq::SyntheticDataset& dataset(std::uint64_t seed) {
  static std::map<std::uint64_t, seq::SyntheticDataset> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    seq::DatasetSpec spec{"filter", 1000, 70, 1800};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    it = cache
             .emplace(seed,
                      seq::SyntheticDataset::generate(spec, errors, seed))
             .first;
  }
  return it->second;
}

const core::SequentialResult& sequential_reference(std::uint64_t seed) {
  static std::map<std::uint64_t, core::SequentialResult> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    it = cache
             .emplace(seed, core::run_sequential(dataset(seed).reads,
                                                 test_params()))
             .first;
  }
  return it->second;
}

void expect_identical_to_sequential(const DistResult& result,
                                    std::uint64_t seed) {
  const auto& ref = sequential_reference(seed);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

// ---- the identity sweep ----------------------------------------------------

struct FilterCase {
  const char* name;
  std::uint64_t seed;
  int ranks;
  bool batched;
};

class FilteredIdentity : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilteredIdentity, MatchesSequential) {
  const FilterCase& c = GetParam();
  DistConfig config;
  config.params = test_params();
  config.ranks = c.ranks;
  config.ranks_per_node = 2;
  config.heuristics.batch_lookups = c.batched;
  config.heuristics.filter_lookups = true;
  const auto result = run_distributed(dataset(c.seed).reads, config);
  expect_identical_to_sequential(result, c.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FilteredIdentity,
    ::testing::Values(
        FilterCase{"s1_r1_scalar", 4242, 1, false},
        FilterCase{"s1_r2_scalar", 4242, 2, false},
        FilterCase{"s1_r4_scalar", 4242, 4, false},
        FilterCase{"s1_r2_batched", 4242, 2, true},
        FilterCase{"s1_r4_batched", 4242, 4, true},
        FilterCase{"s2_r2_scalar", 97, 2, false},
        FilterCase{"s2_r4_scalar", 97, 4, false},
        FilterCase{"s2_r4_batched", 97, 4, true},
        FilterCase{"s3_r3_scalar", 12345, 3, false},
        FilterCase{"s3_r3_batched", 12345, 3, true}),
    [](const ::testing::TestParamInfo<FilterCase>& info) {
      return info.param.name;
    });

// The filter must also compose with every lookup heuristic it can meet.
TEST(FilteredIdentity, ComposesWithLookupHeuristics) {
  struct Combo {
    const char* name;
    Heuristics heur;
  };
  std::vector<Combo> combos;
  {
    Heuristics h;
    h.read_kmers = true;
    combos.push_back({"read_kmers", h});
  }
  {
    Heuristics h;
    h.universal = true;
    combos.push_back({"universal", h});
  }
  {
    Heuristics h;
    h.read_kmers = true;
    h.add_remote = true;
    combos.push_back({"add_remote", h});
  }
  {
    Heuristics h;
    h.partial_replication_group = 2;
    combos.push_back({"partial_repl", h});
  }
  {
    // Fully replicated k-mers: only the tile filter is exchanged.
    Heuristics h;
    h.allgather_kmers = true;
    combos.push_back({"allgather_kmers", h});
  }
  for (const auto& combo : combos) {
    DistConfig config;
    config.params = test_params();
    config.ranks = 4;
    config.ranks_per_node = 2;
    config.heuristics = combo.heur;
    config.heuristics.filter_lookups = true;
    const auto result = run_distributed(dataset(4242).reads, config);
    expect_identical_to_sequential(result, 4242);
  }
}

// ---- counters --------------------------------------------------------------

TEST(FilterCounters, AbsencesAnsweredLocallyAndTrafficDrops) {
  for (const bool batched : {false, true}) {
    DistConfig config;
    config.params = test_params();
    config.ranks = 4;
    config.heuristics.batch_lookups = batched;
    config.heuristics.filter_lookups = false;
    const auto plain = run_distributed(dataset(4242).reads, config);
    config.heuristics.filter_lookups = true;
    const auto filtered = run_distributed(dataset(4242).reads, config);

    std::uint64_t plain_remote = 0, filtered_remote = 0;
    std::uint64_t neg_hits = 0, false_positives = 0;
    std::uint64_t plain_ids = 0, filtered_ids = 0;
    std::size_t filter_bytes = 0;
    for (const auto& r : plain.ranks) {
      plain_remote += r.remote.remote_lookups();
      plain_ids += r.remote.batch_ids();
      EXPECT_EQ(r.remote.filter_neg_hits, 0u);
      EXPECT_EQ(r.remote.filter_false_positives, 0u);
      EXPECT_EQ(r.footprint_after_correction.filter_bytes, 0u);
    }
    for (const auto& r : filtered.ranks) {
      filtered_remote += r.remote.remote_lookups();
      filtered_ids += r.remote.batch_ids();
      neg_hits += r.remote.filter_neg_hits;
      false_positives += r.remote.filter_false_positives;
      filter_bytes += r.footprint_after_correction.filter_bytes;
    }
    // Definite absences are caught locally...
    EXPECT_GT(neg_hits, 0u) << (batched ? "batched" : "scalar");
    // ...so remote traffic shrinks: scalar round trips in scalar mode, the
    // vectored ID streams in batched mode, where the wavefront leaves no
    // scalar round trip at all.
    if (batched) {
      EXPECT_EQ(plain_remote, 0u);
      EXPECT_EQ(filtered_remote, 0u);
      EXPECT_LT(filtered_ids, plain_ids);
    } else {
      EXPECT_LT(filtered_remote, plain_remote);
    }
    // A false positive is a wasted round trip, never an absence answered
    // wrongly — there must be far fewer of them than local absences.
    EXPECT_LT(false_positives, neg_hits);
    // Peer filters occupy accounted memory on at least one rank.
    EXPECT_GT(filter_bytes, 0u);
  }
}

TEST(FilterCounters, OnByDefaultAndIdentical) {
  // The default mode filters: definite absences are answered locally, the
  // filters are accounted, and the output still equals the sequential run.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  EXPECT_TRUE(config.heuristics.filter_lookups);
  const auto result = run_distributed(dataset(97).reads, config);
  expect_identical_to_sequential(result, 97);
  for (const auto& r : result.ranks) {
    EXPECT_GT(r.remote.filter_neg_hits, 0u);
    EXPECT_GT(r.footprint_after_correction.filter_bytes, 0u);
  }
}

TEST(FilterCounters, OffByDefaultCostsNothing) {
  // Filters are on by default now; this pins that switching them off
  // (the paper's protocol) leaves no trace.
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  config.heuristics.filter_lookups = false;
  const auto result = run_distributed(dataset(97).reads, config);
  expect_identical_to_sequential(result, 97);
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.remote.filter_neg_hits, 0u);
    EXPECT_EQ(r.remote.filter_false_positives, 0u);
    EXPECT_EQ(r.footprint_after_correction.filter_bytes, 0u);
    EXPECT_EQ(r.service.filter_stragglers, 0u);
  }
}

TEST(FilterCounters, SingleRankExchangesNothing) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 1;
  config.heuristics.filter_lookups = true;
  const auto result = run_distributed(dataset(4242).reads, config);
  expect_identical_to_sequential(result, 4242);
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.remote.filter_neg_hits, 0u);
    EXPECT_EQ(r.footprint_after_correction.filter_bytes, 0u);
  }
}

// ---- configuration surface -------------------------------------------------

TEST(FilterConfig, FpRateValidatedAndLabelled) {
  Heuristics h;
  h.filter_lookups = true;
  EXPECT_NO_THROW(h.validate());
  EXPECT_NE(h.label().find("filter"), std::string::npos);
  h.filter_lookups = false;
  EXPECT_EQ(h.label().find("filter"), std::string::npos);

  h.filter_fp_rate = 0.0;
  EXPECT_THROW(h.validate(), std::invalid_argument);
  h.filter_fp_rate = 0.5;
  EXPECT_THROW(h.validate(), std::invalid_argument);
  h.filter_fp_rate = 0.25;
  EXPECT_NO_THROW(h.validate());
}

}  // namespace
}  // namespace reptile::parallel
