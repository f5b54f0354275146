// The central integration property: every distributed configuration —
// any rank count, any heuristic combination — produces corrected reads
// bit-identical to the sequential baseline, and sensible per-rank stats.
#include "parallel/dist_pipeline.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "seq/dataset.hpp"
#include "stats/accuracy.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;  // tile length 16
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& shared_dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"mini", 1500, 70, 2500};  // 42X coverage
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.004;
    errors.error_rate_end = 0.012;
    errors.burst_fraction = 0.15;
    errors.burst_regions = 2;
    errors.burst_multiplier = 6.0;
    return seq::SyntheticDataset::generate(spec, errors, 77);
  }();
  return ds;
}

const core::SequentialResult& sequential_reference() {
  static const core::SequentialResult ref =
      core::run_sequential(shared_dataset().reads, test_params());
  return ref;
}

void expect_identical_to_sequential(const DistResult& result) {
  const auto& ref = sequential_reference();
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

// ---- rank-count sweep (base heuristics) -----------------------------------

class DistIdentityRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistIdentityRanks, MatchesSequential) {
  DistConfig config;
  config.params = test_params();
  config.ranks = GetParam();
  config.ranks_per_node = 2;
  config.heuristics.load_balance = true;
  const auto result = run_distributed(shared_dataset().reads, config);
  expect_identical_to_sequential(result);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistIdentityRanks,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

// ---- heuristics sweep ------------------------------------------------------

struct HeuristicsCase {
  const char* name;
  Heuristics heur;
};

class DistIdentityHeuristics
    : public ::testing::TestWithParam<HeuristicsCase> {};

TEST_P(DistIdentityHeuristics, MatchesSequential) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.ranks_per_node = 2;
  config.heuristics = GetParam().heur;
  const auto result = run_distributed(shared_dataset().reads, config);
  expect_identical_to_sequential(result);
}

Heuristics make(bool universal, bool read_kmers, bool ag_k, bool ag_t,
                bool add_remote, bool batch, bool balance) {
  Heuristics h;
  h.universal = universal;
  h.read_kmers = read_kmers;
  h.allgather_kmers = ag_k;
  h.allgather_tiles = ag_t;
  h.add_remote = add_remote;
  h.batch_reads = batch;
  h.load_balance = balance;
  return h;
}

Heuristics batched(Heuristics h) {
  h.batch_lookups = true;
  return h;
}

INSTANTIATE_TEST_SUITE_P(
    Heuristics, DistIdentityHeuristics,
    ::testing::Values(
        HeuristicsCase{"base_imbalanced",
                       make(false, false, false, false, false, false, false)},
        HeuristicsCase{"base_balanced",
                       make(false, false, false, false, false, false, true)},
        HeuristicsCase{"universal",
                       make(true, false, false, false, false, false, true)},
        HeuristicsCase{"read_kmers",
                       make(false, true, false, false, false, false, true)},
        HeuristicsCase{"add_remote",
                       make(false, true, false, false, true, false, true)},
        HeuristicsCase{"allgather_kmers",
                       make(false, false, true, false, false, false, true)},
        HeuristicsCase{"allgather_tiles",
                       make(false, false, false, true, false, false, true)},
        HeuristicsCase{"allgather_both",
                       make(false, false, true, true, false, false, true)},
        HeuristicsCase{"batch_reads",
                       make(false, false, false, false, false, true, true)},
        HeuristicsCase{"paper_production",
                       make(true, false, false, false, false, true, true)},
        HeuristicsCase{"everything_cacheable",
                       make(true, true, false, false, true, true, true)},
        HeuristicsCase{"batched_lookups",
                       batched(make(false, false, false, false, false, false,
                                    true))},
        HeuristicsCase{"batched_read_kmers",
                       batched(make(false, true, false, false, false, false,
                                    true))},
        HeuristicsCase{"batched_universal",
                       batched(make(true, false, false, false, false, false,
                                    true))},
        HeuristicsCase{"batched_add_remote",
                       batched(make(false, true, false, false, true, false,
                                    true))},
        HeuristicsCase{"batched_everything",
                       batched(make(true, true, false, false, true, true,
                                    true))}),
    [](const ::testing::TestParamInfo<HeuristicsCase>& info) {
      return info.param.name;
    });

// ---- behavioural assertions beyond identity --------------------------------

TEST(DistPipeline, CorrectionAccuracyMatchesSequential) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto result = run_distributed(shared_dataset().reads, config);
  const auto acc = stats::score_correction(
      shared_dataset().reads, result.corrected, shared_dataset().truth);
  // The shared dataset is deliberately bursty (multi-error reads that are
  // hard to correct) to exercise load balancing; the cleaner accuracy bar
  // lives in test_sequential_pipeline. Here we only require useful net
  // correction, identical to the sequential baseline.
  EXPECT_GT(acc.sensitivity(), 0.5);
  EXPECT_GT(acc.gain(), 0.45);
}

TEST(DistPipeline, LoadBalanceEvensErrorsPerRank) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 8;
  config.heuristics.load_balance = false;
  const auto imbalanced = run_distributed(shared_dataset().reads, config);
  config.heuristics.load_balance = true;
  const auto balanced = run_distributed(shared_dataset().reads, config);

  // Work per rank is what the paper's Fig. 4 measures (slowest vs fastest
  // rank, remote tile lookups per rank); untrusted tiles is the direct
  // work driver here.
  auto spread = [](const DistResult& r) {
    std::uint64_t lo = ~0ull, hi = 0;
    for (const auto& rank : r.ranks) {
      lo = std::min(lo, rank.tiles_untrusted);
      hi = std::max(hi, rank.tiles_untrusted);
    }
    return std::pair(lo, hi);
  };
  const auto [ilo, ihi] = spread(imbalanced);
  const auto [blo, bhi] = spread(balanced);
  // The bursty dataset must produce a visible gap without balancing, and
  // balancing must shrink it (paper Fig. 4: 33886..47927 -> 39127..39997).
  EXPECT_GT(ihi - ilo, 2 * (bhi - blo));
}

TEST(DistPipeline, RemoteLookupsVanishWhenFullyReplicated) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.allgather_kmers = true;
  config.heuristics.allgather_tiles = true;
  const auto result = run_distributed(shared_dataset().reads, config);
  for (const auto& rank : result.ranks) {
    EXPECT_EQ(rank.remote.remote_lookups(), 0u);
    EXPECT_EQ(rank.service.requests_served, 0u);
  }
}

TEST(DistPipeline, TileRequestsDominateRemoteTraffic) {
  // Paper: "the majority of the communication time is spent in
  // communication of tiles especially tiles which are not part of the tile
  // spectrum". The subject is the paper's scalar protocol.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = false;
  const auto result = run_distributed(shared_dataset().reads, config);
  std::uint64_t kmer_remote = 0, tile_remote = 0, tile_absent = 0;
  for (const auto& rank : result.ranks) {
    kmer_remote += rank.remote.remote_kmer_lookups;
    tile_remote += rank.remote.remote_tile_lookups;
    tile_absent += rank.remote.remote_tile_absent;
  }
  EXPECT_GT(tile_remote, kmer_remote);
  EXPECT_GT(tile_absent, tile_remote / 2);
}

TEST(DistPipeline, ReadKmersReducesRemoteLookups) {
  // Scalar protocol: under the wavefront remote lookups are 0 either way.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = false;
  const auto base = run_distributed(shared_dataset().reads, config);
  config.heuristics.read_kmers = true;
  const auto cached = run_distributed(shared_dataset().reads, config);
  std::uint64_t base_remote = 0, cached_remote = 0, hits = 0;
  for (const auto& r : base.ranks) base_remote += r.remote.remote_lookups();
  for (const auto& r : cached.ranks) {
    cached_remote += r.remote.remote_lookups();
    hits += r.remote.reads_table_hits;
  }
  EXPECT_LT(cached_remote, base_remote);
  EXPECT_GT(hits, 0u);
}

TEST(DistPipeline, AddRemoteCachesRepeatLookups) {
  // Scalar protocol: add_remote caches scalar replies, and the wavefront
  // leaves none to cache.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = false;
  config.heuristics.read_kmers = true;
  const auto without = run_distributed(shared_dataset().reads, config);
  config.heuristics.add_remote = true;
  const auto with = run_distributed(shared_dataset().reads, config);
  std::uint64_t remote_without = 0, remote_with = 0;
  std::size_t mem_without = 0, mem_with = 0;
  for (const auto& r : without.ranks) {
    remote_without += r.remote.remote_lookups();
    mem_without = std::max(mem_without, r.footprint_after_correction.bytes);
  }
  for (const auto& r : with.ranks) {
    remote_with += r.remote.remote_lookups();
    mem_with = std::max(mem_with, r.footprint_after_correction.bytes);
  }
  EXPECT_LE(remote_with, remote_without);
  // Caching absences costs memory — the paper's 119 MB -> 199 MB effect.
  EXPECT_GT(mem_with, mem_without);
}

TEST(DistPipeline, BatchReadsCapsConstructionMemory) {
  DistConfig config;
  config.params = test_params();
  config.params.chunk_size = 50;
  config.ranks = 4;
  const auto unbatched = run_distributed(shared_dataset().reads, config);
  config.heuristics.batch_reads = true;
  const auto batched = run_distributed(shared_dataset().reads, config);
  std::size_t peak_unbatched = 0, peak_batched = 0;
  for (const auto& r : unbatched.ranks) {
    peak_unbatched = std::max(peak_unbatched, r.construction_peak_bytes);
  }
  for (const auto& r : batched.ranks) {
    peak_batched = std::max(peak_batched, r.construction_peak_bytes);
  }
  EXPECT_LT(peak_batched, peak_unbatched);
}

TEST(DistPipeline, UniversalModeSkipsProbes) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto tagged = run_distributed(shared_dataset().reads, config);
  config.heuristics.universal = true;
  const auto universal = run_distributed(shared_dataset().reads, config);
  std::uint64_t probes_tagged = 0, probes_universal = 0, served = 0;
  for (const auto& r : tagged.ranks) probes_tagged += r.service.probe_calls;
  for (const auto& r : universal.ranks) {
    probes_universal += r.service.probe_calls;
    served += r.service.requests_served;
  }
  EXPECT_GT(probes_tagged, 0u);
  EXPECT_EQ(probes_universal, 0u);
  EXPECT_GT(served, 0u);
}

TEST(DistPipeline, RanksReportConsistentTotals) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  const auto result = run_distributed(shared_dataset().reads, config);
  std::uint64_t reads_total = 0;
  for (const auto& r : result.ranks) {
    reads_total += r.reads_processed;
    EXPECT_GE(r.correct_seconds, 0.0);
    EXPECT_GE(r.comm_seconds, 0.0);
    EXPECT_LE(r.comm_seconds, r.correct_seconds + 1.0);
  }
  EXPECT_EQ(reads_total, shared_dataset().reads.size());
}

}  // namespace
}  // namespace reptile::parallel
