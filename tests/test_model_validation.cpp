// Model-vs-reality validation: the workload synthesis must agree with the
// REAL pipeline's measured counters on the same dataset at small scale.
// This is the hinge the large-scale figures swing on: if synthesis matches
// measurement at np we can run, projecting to np we cannot is arithmetic,
// not hope.
#include <gtest/gtest.h>

#include "parallel/dist_pipeline.hpp"
#include "perfmodel/workload.hpp"
#include "seq/dataset.hpp"

namespace reptile::perfmodel {
namespace {

struct Setup {
  core::CorrectorParams params;
  seq::ErrorModelParams errors;
  seq::SyntheticDataset ds;
  DatasetTraits traits;

  Setup() {
    params.k = 10;
    params.tile_overlap = 4;
    params.kmer_threshold = 3;
    params.tile_threshold = 3;
    params.chunk_size = 256;
    errors.error_rate_start = 0.003;
    errors.error_rate_end = 0.01;
    errors.burst_fraction = 0.2;
    errors.burst_regions = 4;
    errors.burst_multiplier = 8.0;
    seq::DatasetSpec spec{"val", 3000, 80, 4500};
    ds = seq::SyntheticDataset::generate(spec, errors, 404);
    traits = measure_traits(ds, params, errors, /*np_ref=*/64);
  }
};

const Setup& setup() {
  static const Setup s;
  return s;
}

std::uint64_t measured_remote(const parallel::DistResult& r) {
  std::uint64_t remote = 0;
  for (const auto& rank : r.ranks) remote += rank.remote.remote_lookups();
  return remote;
}

double synthesized_remote(int np, const parallel::Heuristics& heur) {
  const auto workload =
      synthesize_workload(setup().traits, setup().ds.spec, np, 4, heur);
  double remote = 0;
  for (const auto& w : workload) remote += w.remote_lookups();
  return remote;
}

TEST(ModelValidation, RemoteLookupTotalsMatchRealPipeline) {
  for (int np : {4, 8}) {
    parallel::DistConfig config;
    config.params = setup().params;
    config.ranks = np;
    config.ranks_per_node = 4;
    // The model counts the paper's scalar round trips.
    config.heuristics.batch_lookups = false;
    const auto result = parallel::run_distributed(setup().ds.reads, config);
    const double real = static_cast<double>(measured_remote(result));
    const double modeled = synthesized_remote(np, config.heuristics);
    // Synthesis averages per-read work over burst/quiet classes and applies
    // the (np-1)/np owner split analytically; it must land within ~15% of
    // the real counter.
    EXPECT_NEAR(modeled, real, 0.15 * real) << "np=" << np;
  }
}

TEST(ModelValidation, SubstitutionTotalsMatchRealPipeline) {
  parallel::DistConfig config;
  config.params = setup().params;
  config.ranks = 8;
  const auto result = parallel::run_distributed(setup().ds.reads, config);
  const auto workload = synthesize_workload(setup().traits, setup().ds.spec,
                                            8, 4, config.heuristics);
  double modeled_subs = 0;
  for (const auto& w : workload) modeled_subs += w.substitutions;
  const auto real_subs = static_cast<double>(result.total_substitutions());
  EXPECT_NEAR(modeled_subs, real_subs, 0.05 * real_subs + 5);
}

TEST(ModelValidation, ImbalanceDirectionMatches) {
  // Without load balancing, the real pipeline's per-rank untrusted-tile
  // spread and the synthesized per-rank tile-lookup spread must both be
  // large, and both collapse with balancing.
  auto spread_real = [&](bool balance) {
    parallel::DistConfig config;
    config.params = setup().params;
    config.ranks = 8;
    config.heuristics.load_balance = balance;
    const auto result = parallel::run_distributed(setup().ds.reads, config);
    std::uint64_t lo = ~0ull, hi = 0;
    for (const auto& r : result.ranks) {
      lo = std::min(lo, r.tiles_untrusted);
      hi = std::max(hi, r.tiles_untrusted);
    }
    return static_cast<double>(hi) / std::max<double>(1, static_cast<double>(lo));
  };
  auto spread_model = [&](bool balance) {
    parallel::Heuristics heur;
    heur.load_balance = balance;
    const auto workload =
        synthesize_workload(setup().traits, setup().ds.spec, 8, 4, heur);
    double lo = 1e300, hi = 0;
    for (const auto& w : workload) {
      lo = std::min(lo, w.tile_lookups);
      hi = std::max(hi, w.tile_lookups);
    }
    return hi / std::max(1.0, lo);
  };
  EXPECT_GT(spread_real(false), 1.5);
  EXPECT_GT(spread_model(false), 1.5);
  EXPECT_LT(spread_real(true), 1.4);
  EXPECT_LT(spread_model(true), 1.05);
}

TEST(ModelValidation, ReadsTableHitModelMatchesReality) {
  // read_kmers mode: the model subtracts measured own-set hits; the real
  // pipeline's reads-table hit counter must be in the same range.
  parallel::DistConfig config;
  config.params = setup().params;
  config.ranks = 8;
  config.heuristics.read_kmers = true;
  const auto result = parallel::run_distributed(setup().ds.reads, config);
  std::uint64_t hits = 0;
  for (const auto& r : result.ranks) hits += r.remote.reads_table_hits;

  const double base = synthesized_remote(8, parallel::Heuristics{});
  const double cached = synthesized_remote(8, config.heuristics);
  const double modeled_hits = base - cached;
  EXPECT_NEAR(modeled_hits, static_cast<double>(hits),
              0.35 * static_cast<double>(hits))
      << "modeled=" << modeled_hits << " real=" << hits;
}

}  // namespace
}  // namespace reptile::perfmodel
