// Chaos tier for the filter exchange: the exchange is BEST EFFORT, so every
// fault the injector can deal it — dropped frames, truncated payloads,
// stalls — may only push a peer back onto the unfiltered wire path. The
// failure mode that must be impossible is a garbled filter being *trusted*:
// that could fake a false negative and silently miscorrect a read. The unit
// tests drive the exchange itself under total loss/corruption; the pipeline
// tests rerun the fault-injection never-miscorrect contract with filters on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/dist_spectrum.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams chaos_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& chaos_dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"filter-chaos", 500, 60, 1000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 29);
  }();
  return ds;
}

// ---- exchange under total corruption / loss --------------------------------

TEST(FilterChaos, TruncatedExchangeDegradesToUnfilteredWirePath) {
  // truncate_rate = 1.0 garbles EVERY filter frame to a strict prefix.
  // Every prefix is rejected by the decoder (test_owner_filter pins this),
  // so each slot must stay null — kNoFilter, meaning "ask the owner" — and
  // the exchange must still terminate on the blocking no-retry path,
  // because truncated frames are delivered, not lost.
  rtm::RunOptions options;
  options.chaos.seed = 31;
  options.chaos.truncate_rate = 1.0;
  rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        Heuristics h;
        h.filter_lookups = true;
        DistSpectrum spectrum(chaos_params(), h, comm);
        // Local adds only: the Step-III alltoallv would be garbled by the
        // same total-truncation plan, and the exchange under test builds
        // its filters from whatever the owned tables hold.
        for (std::size_t i = 0; i < 100; ++i) {
          spectrum.add_read(chaos_dataset().reads[i].bases);
        }
        spectrum.exchange_filters(RetryPolicy{});
        EXPECT_EQ(spectrum.filter_bytes(), 0u);
        const int peer = 1 - comm.rank();
        for (std::uint64_t id = 0; id < 64; ++id) {
          EXPECT_EQ(spectrum.filter(LookupKind::kKmer, id, peer),
                    DistSpectrum::FilterAnswer::kNoFilter);
          EXPECT_EQ(spectrum.filter(LookupKind::kTile, id, peer),
                    DistSpectrum::FilterAnswer::kNoFilter);
        }
        comm.barrier();
      },
      options);
}

TEST(FilterChaos, DroppedExchangeTimesOutAndLeavesSlotsNull) {
  // drop_rate = 1.0 loses every frame. Best effort means no retransmit:
  // the retry-armed collection must give up within its shared budget and
  // leave every slot null instead of hanging the rank.
  rtm::RunOptions options;
  options.chaos.seed = 37;
  options.chaos.drop_rate = 1.0;
  rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        Heuristics h;
        h.filter_lookups = true;
        DistSpectrum spectrum(chaos_params(), h, comm);
        for (std::size_t i = 0; i < 100; ++i) {
          spectrum.add_read(chaos_dataset().reads[i].bases);
        }
        RetryPolicy retry;
        retry.timeout_ticks = 2;
        retry.max_retries = 2;
        spectrum.exchange_filters(retry);
        EXPECT_EQ(spectrum.filter_bytes(), 0u);
        const int peer = 1 - comm.rank();
        EXPECT_EQ(spectrum.filter(LookupKind::kKmer, 1, peer),
                  DistSpectrum::FilterAnswer::kNoFilter);
        comm.barrier();
      },
      options);
}

// ---- full pipeline under a lossy plan --------------------------------------

/// The fault-injection contract (DESIGN.md §4d) with filters in the mix:
/// degraded evidence may make the corrector SKIP a substitution the
/// sequential baseline applies, never invent one it does not.
void expect_never_miscorrects(const DistResult& result,
                              const core::SequentialResult& ref) {
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  std::uint64_t degraded_tiles = 0;
  for (const auto& r : result.ranks) {
    degraded_tiles += r.tiles_degraded;
    EXPECT_EQ(r.check.fifo_violations, 0u) << "rank " << r.rank;
    // Best-effort filter frames lost to chaos are audited as stale leaks,
    // never as protocol leaks or orphans.
    EXPECT_EQ(r.check.leaked_messages, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.check.orphaned_replies, 0u) << "rank " << r.rank;
  }
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    if (result.corrected[i].bases == ref.corrected[i].bases) continue;
    ++divergent;
    const std::string& original = chaos_dataset().reads[i].bases;
    const std::string& seq_fixed = ref.corrected[i].bases;
    const std::string& dist = result.corrected[i].bases;
    ASSERT_EQ(dist.size(), seq_fixed.size());
    for (std::size_t b = 0; b < dist.size(); ++b) {
      if (dist[b] != seq_fixed[b]) {
        EXPECT_EQ(dist[b], original[b])
            << "read " << ref.corrected[i].number << " base " << b
            << ": filtered chaos run invented a substitution";
      }
    }
  }
  if (degraded_tiles == 0) {
    EXPECT_EQ(divergent, 0u);
    EXPECT_EQ(result.total_substitutions(), ref.substitutions);
  }
  EXPECT_LE(result.total_substitutions(), ref.substitutions);
}

TEST(FilterChaos, LossyPipelineWithFiltersNeverMiscorrects) {
  const auto ref = core::run_sequential(chaos_dataset().reads, chaos_params());
  for (const bool batched : {false, true}) {
    DistConfig config;
    config.params = chaos_params();
    config.ranks = 4;
    config.heuristics.filter_lookups = true;
    config.heuristics.batch_lookups = batched;
    config.run_options.chaos.seed = 101;
    config.run_options.chaos.max_delay_us = 150;
    config.run_options.chaos.drop_rate = 0.08;
    config.run_options.chaos.duplicate_rate = 0.05;
    config.run_options.chaos.truncate_rate = 0.03;
    config.run_options.chaos.stall_rate = 0.002;
    config.run_options.chaos.stall_us = 2000;
    config.retry.timeout_ticks = 5;
    config.retry.max_retries = 12;

    const auto result = run_distributed(chaos_dataset().reads, config);
    expect_never_miscorrects(result, ref);

    // The plan fired (seeded, so stable), and some filter frames were
    // among the casualties or survivors — either way the run terminated
    // with the degradation accounted, which is the whole contract.
    std::uint64_t dropped = 0;
    for (const auto& r : result.ranks) dropped += r.traffic.dropped_msgs;
    EXPECT_GT(dropped, 0u) << (batched ? "batched" : "scalar");
  }
}

TEST(FilterChaos, DelayOnlyChaosKeepsFilteredRunIdentical) {
  // Reordering/delay without loss: every filter arrives (eventually), and
  // the filtered output must stay byte-identical to the sequential
  // baseline — delays must not be able to corrupt the exchange.
  const auto ref = core::run_sequential(chaos_dataset().reads, chaos_params());
  DistConfig config;
  config.params = chaos_params();
  config.ranks = 4;
  config.heuristics.filter_lookups = true;
  config.heuristics.batch_lookups = true;
  config.run_options.chaos.seed = 7;
  config.run_options.chaos.max_delay_us = 300;
  const auto result = run_distributed(chaos_dataset().reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

}  // namespace
}  // namespace reptile::parallel
