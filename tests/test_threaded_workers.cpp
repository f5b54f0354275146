// Integration tests: multi-threaded correction workers per rank.
//
// The paper's ranks run one correction thread plus one communication
// thread; the fully-replicated Fig. 5 run used 64 threads per rank. With
// multiple workers, concurrent remote lookups from one rank are routed by
// per-worker reply tags — these tests pin that no replies are ever crossed
// (which would silently corrupt counts and with them correction decisions).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 32;  // small chunks -> plenty of worker interleaving
  return p;
}

const seq::SyntheticDataset& dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"mt", 1200, 70, 2000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 333);
  }();
  return ds;
}

class ThreadedWorkers : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ThreadedWorkers, OutputIdenticalToSequential) {
  const auto [ranks, workers] = GetParam();
  const auto ref = core::run_sequential(dataset().reads, params());
  DistConfig config;
  config.params = params();
  config.ranks = ranks;
  config.ranks_per_node = 2;
  config.worker_threads = workers;
  const auto result = run_distributed(dataset().reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "ranks=" << ranks << " workers=" << workers << " read "
        << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ThreadedWorkers,
    ::testing::Values(std::pair{1, 2}, std::pair{2, 2}, std::pair{2, 4},
                      std::pair{4, 2}, std::pair{4, 4}),
    [](const auto& info) {
      return "r" + std::to_string(info.param.first) + "_w" +
             std::to_string(info.param.second);
    });

TEST(ThreadedWorkersChecks, LookupTotalsMatchSingleThreaded) {
  DistConfig config;
  config.params = params();
  config.ranks = 2;
  const auto single = run_distributed(dataset().reads, config);
  config.worker_threads = 4;
  const auto threaded = run_distributed(dataset().reads, config);
  // Per-read decisions are deterministic, so the aggregate lookup volume
  // must be identical no matter how reads are spread over workers.
  auto totals = [](const DistResult& r) {
    std::uint64_t lookups = 0, remote = 0;
    for (const auto& rank : r.ranks) {
      lookups += rank.lookups.kmer_lookups + rank.lookups.tile_lookups;
      remote += rank.remote.remote_lookups();
    }
    return std::pair(lookups, remote);
  };
  EXPECT_EQ(totals(single), totals(threaded));
}

TEST(ThreadedWorkersChecks, UniversalModeAlsoSafe) {
  const auto ref = core::run_sequential(dataset().reads, params());
  DistConfig config;
  config.params = params();
  config.ranks = 3;
  config.worker_threads = 3;
  config.heuristics.universal = true;
  config.heuristics.batch_reads = true;
  const auto result = run_distributed(dataset().reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases);
  }
}

TEST(ThreadedWorkersChecks, InvalidConfigsRejected) {
  DistConfig config;
  config.params = params();
  config.worker_threads = 0;
  EXPECT_THROW(run_distributed(dataset().reads, config),
               std::invalid_argument);
  config.worker_threads = 2;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  config.heuristics.batch_lookups = false;  // shared reads tables: unsafe
  EXPECT_THROW(run_distributed(dataset().reads, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace reptile::parallel
