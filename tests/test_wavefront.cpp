// The chunk wavefront (batch_lookups): byte identity with run_sequential and
// lookup-for-lookup agreement with the paper's scalar protocol, across the
// heuristics that shape the lookup chain, rank and worker counts, search
// depths, serve-mode per-job overrides and a bounded chunk cache.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/serve.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params(int max_hamming = 2) {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  p.max_hamming = max_hamming;
  return p;
}

const std::vector<seq::Read>& reads() {
  static const std::vector<seq::Read> r = [] {
    seq::DatasetSpec spec{"wavefront", 400, 60, 1200};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.015;
    return seq::SyntheticDataset::generate(spec, errors, 1313).reads;
  }();
  return r;
}

void expect_same_bases(const std::vector<seq::Read>& got,
                       const std::vector<seq::Read>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].number, want[i].number);
    ASSERT_EQ(got[i].bases, want[i].bases) << "read " << want[i].number;
  }
}

struct Chain {
  const char* name;
  Heuristics heur;
};

std::vector<Chain> chains() {
  Heuristics base;
  Heuristics universal;
  universal.universal = true;
  Heuristics read_kmers;
  read_kmers.read_kmers = true;
  Heuristics add_remote = read_kmers;
  add_remote.add_remote = true;
  Heuristics filter;
  filter.filter_lookups = true;
  Heuristics partial;
  partial.partial_replication_group = 2;
  return {{"base", base},
          {"universal", universal},
          {"read_kmers", read_kmers},
          {"add_remote", add_remote},
          {"filter", filter},
          {"partial_repl2", partial}};
}

using SweepCase = std::tuple<int, std::size_t, int>;  // ranks, chain, hamming

class WavefrontSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WavefrontSweep, MatchesSequentialAndTheScalarLookups) {
  const auto [ranks, chain_index, hamming] = GetParam();
  const Chain chain = chains()[chain_index];
  const core::SequentialResult ref =
      core::run_sequential(reads(), test_params(hamming));

  DistConfig config;
  config.params = test_params(hamming);
  config.ranks = ranks;
  config.ranks_per_node = 2;
  config.heuristics = chain.heur;
  config.heuristics.batch_lookups = false;
  const DistResult scalar = run_distributed(reads(), config);
  expect_same_bases(scalar.corrected, ref.corrected);

  config.heuristics.batch_lookups = true;
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    config.worker_threads = workers;
    const DistResult wave = run_distributed(reads(), config);
    expect_same_bases(wave.corrected, ref.corrected);
    ASSERT_EQ(wave.ranks.size(), scalar.ranks.size());
    for (std::size_t r = 0; r < wave.ranks.size(); ++r) {
      const RankReport& w = wave.ranks[r];
      const RankReport& s = scalar.ranks[r];
      // Fault-free, the wavefront resolves every remote lookup ahead of
      // the corrector, which then makes exactly the scalar run's lookups.
      EXPECT_EQ(w.remote.remote_lookups(), 0u) << "rank " << r;
      EXPECT_EQ(w.remote.prefetch_misses, 0u) << "rank " << r;
      // Lookups past the owned, group and filter links: the scalar run
      // sends them (or, with add_remote, finds its own cached replies), the
      // wavefront run finds them in the chunk cache.
      EXPECT_EQ(w.remote.prefetch_hits + w.remote.reads_table_hits,
                s.remote.remote_lookups() + s.remote.reads_table_hits)
          << "rank " << r;
      EXPECT_EQ(w.remote.group_lookups, s.remote.group_lookups) << "rank " << r;
      EXPECT_EQ(w.remote.filter_neg_hits, s.remote.filter_neg_hits)
          << "rank " << r;
      EXPECT_EQ(w.lookups.kmer_lookups, s.lookups.kmer_lookups) << "rank " << r;
      EXPECT_EQ(w.lookups.kmer_misses, s.lookups.kmer_misses) << "rank " << r;
      EXPECT_EQ(w.lookups.tile_lookups, s.lookups.tile_lookups) << "rank " << r;
      EXPECT_EQ(w.lookups.tile_misses, s.lookups.tile_misses) << "rank " << r;
      EXPECT_EQ(w.substitutions, s.substitutions) << "rank " << r;
      EXPECT_EQ(w.tiles_degraded, 0u) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chains, WavefrontSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_" +
             chains()[std::get<1>(info.param)].name + "_hd" +
             std::to_string(std::get<2>(info.param));
    });

TEST(WavefrontCapacity, SmallCachesFallBackToScalarAndStayIdentical) {
  // A cache that cannot hold the chunk's IDs stops the wavefront early;
  // whatever it could not fetch goes scalar. Output never changes.
  const core::SequentialResult ref =
      core::run_sequential(reads(), test_params());
  for (const std::size_t capacity : {std::size_t{8}, std::size_t{400}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    DistConfig config;
    config.params = test_params();
    config.params.prefetch_capacity = capacity;
    config.ranks = 4;
    const DistResult result = run_distributed(reads(), config);
    expect_same_bases(result.corrected, ref.corrected);
    std::uint64_t remote = 0, batch_ids = 0;
    for (const RankReport& r : result.ranks) {
      remote += r.remote.remote_lookups();
      batch_ids += r.remote.batch_ids();
      EXPECT_EQ(r.remote.batch_abandoned, 0u);
    }
    EXPECT_GT(remote, 0u);
    EXPECT_GT(batch_ids, 0u);
  }
}

TEST(WavefrontServe, JobSearchOverridesStayIdentical) {
  // The view corrects the wavefront with the job's parameters, so per-job
  // search overrides must still leave no lookup for the wire.
  DistConfig config;
  config.params = test_params();
  config.ranks = 3;
  CorrectionServer server(reads(), config);
  struct Override {
    int positions;
    int hamming;
  };
  for (const Override o : {Override{3, 1}, Override{6, 2}, Override{2, 2}}) {
    SCOPED_TRACE("positions " + std::to_string(o.positions) + " hamming " +
                 std::to_string(o.hamming));
    core::CorrectorParams effective = test_params(o.hamming);
    effective.max_positions_per_tile = o.positions;
    const core::SequentialResult ref =
        core::run_sequential(reads(), effective);
    JobRequest request;
    request.reads = reads();
    request.overrides.max_positions_per_tile = o.positions;
    request.overrides.max_hamming = o.hamming;
    const JobReport report = server.submit(std::move(request)).get();
    EXPECT_FALSE(report.degraded);
    expect_same_bases(report.corrected, ref.corrected);
    for (const RankReport& r : report.ranks) {
      EXPECT_EQ(r.remote.remote_lookups(), 0u) << "rank " << r.rank;
      EXPECT_GT(r.remote.batch_requests, 0u) << "rank " << r.rank;
    }
  }
  server.shutdown();
}

}  // namespace
}  // namespace reptile::parallel
