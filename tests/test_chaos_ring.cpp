// Chaos tier: fault injection against the lock-free mailbox fast path.
//
// The ring is a delivery detail — FaultPlan drop/duplicate/truncate/stall
// semantics must be bit-for-bit unchanged whether messages land in the
// MPMC ring or the locked deque. Test one proves it directly with a
// deterministic A/B run (same seed, fast path on vs off); test two runs
// the full lossy pipeline on the ring path and holds it to the same
// conservative-identity contract as the locked path (DESIGN.md §4d).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "rtm/comm.hpp"
#include "rtm_test_seed.hpp"
#include "seq/dataset.hpp"

namespace reptile {
namespace {

// Prints the base seed + a one-line replay command on any failure.
const bool kSeedReporter = rtm_test::install_seed_reporter("test_chaos_ring");

using namespace std::chrono_literals;

struct ChaosRunResult {
  std::vector<std::uint64_t> received;
  rtm::ChaosStats chaos;
  rtm::MailboxStats receiver_mailbox;
};

// One seeded faulty run: rank 0 sends kMessages numbered messages on tag 5,
// then a sentinel on tag 6. Chaos delivery is FIFO per destination, so the
// sentinel arrives after every data message (and duplicates of them). The
// receiver records the data stream it observes, in order.
ChaosRunResult run_seeded_chaos(bool fast_path) {
  constexpr int kMessages = 300;
  rtm::RunOptions options;
  options.check.enabled = false;  // A/B runs park a duplicated sentinel
  options.mailbox_fast_path = fast_path;
  options.chaos.seed = rtm_test::derive(83);
  options.chaos.max_delay_us = 200;
  options.chaos.duplicate_rate = 0.35;
  options.chaos.stall_rate = 0.01;
  options.chaos.stall_us = 2000;
  ChaosRunResult result;
  auto world = rtm::run_world(
      {2, 1},
      [&result](rtm::Comm& comm) {
        if (comm.rank() == 0) {
          for (int m = 0; m < kMessages; ++m) {
            comm.send_value(1, 5, static_cast<std::uint64_t>(m));
          }
          comm.send_value(1, 6, std::uint64_t{0});
        } else {
          while (true) {
            const auto m =
                comm.recv_for({rtm::kAnySource, rtm::kAnyTag}, 5s);
            ASSERT_TRUE(m);
            if (m->tag == 6) break;
            result.received.push_back(m->as_value<std::uint64_t>());
          }
        }
        comm.barrier();
      },
      options);
  // A duplicated sentinel may still be queued in the delivery thread; wait
  // for it so the stats snapshot is complete.
  for (int i = 0; i < 2000 && !world->chaos()->idle(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(world->chaos()->idle());
  result.chaos = world->chaos()->stats();
  result.receiver_mailbox = world->mailbox(1).stats();
  return result;
}

TEST(ChaosRing, DeterministicFaultsIdenticalAcrossPaths) {
  const ChaosRunResult fast = run_seeded_chaos(/*fast_path=*/true);
  const ChaosRunResult slow = run_seeded_chaos(/*fast_path=*/false);

  // Both runs actually took the path they claim.
  EXPECT_GT(fast.receiver_mailbox.fast_pushes, 0u);
  EXPECT_EQ(slow.receiver_mailbox.fast_pushes, 0u);
  EXPECT_GT(slow.receiver_mailbox.slow_pushes, 0u);

  // The fault plan is seeded per message index, so both runs must observe
  // the exact same fault outcomes...
  EXPECT_EQ(fast.chaos.delivered, slow.chaos.delivered);
  EXPECT_EQ(fast.chaos.duplicated, slow.chaos.duplicated);
  EXPECT_EQ(fast.chaos.dropped, slow.chaos.dropped);
  EXPECT_EQ(fast.chaos.truncated, slow.chaos.truncated);
  EXPECT_EQ(fast.chaos.stalls_opened, slow.chaos.stalls_opened);
  EXPECT_EQ(fast.chaos.dropped, 0u);  // plan has no drops: nothing lost
  EXPECT_GT(fast.chaos.duplicated, 0u);  // and duplication did fire

  // ...and the receiver must see the identical delivery sequence —
  // duplicates included, in the same positions.
  ASSERT_EQ(fast.received.size(), slow.received.size());
  EXPECT_EQ(fast.received, slow.received);
}

TEST(ChaosRing, LossyRetryPipelineOnRingPath) {
  // The full pipeline through drops/duplicates/truncation/stalls with the
  // fast path armed and rtm-check off — the only configuration where
  // exact-match pops really run lock-free end to end. The contract is the
  // same conservative identity the audited run proves: faults may make the
  // corrector skip a substitution the sequential baseline applies, never
  // invent one it does not.
  seq::DatasetSpec spec{"ringlossy", 400, 60, 900};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.012;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 37);
  core::CorrectorParams params;
  params.k = 10;
  params.tile_overlap = 4;
  params.chunk_size = 64;
  const auto ref = core::run_sequential(ds.reads, params);

  parallel::DistConfig config;
  config.params = params;
  config.ranks = 4;
  config.run_options.check.enabled = false;
  config.run_options.mailbox_fast_path = true;
  config.run_options.chaos.seed = rtm_test::derive(113);
  config.run_options.chaos.max_delay_us = 150;
  config.run_options.chaos.drop_rate = 0.08;
  config.run_options.chaos.duplicate_rate = 0.05;
  config.run_options.chaos.truncate_rate = 0.03;
  config.run_options.chaos.stall_rate = 0.002;
  config.run_options.chaos.stall_us = 2000;
  config.retry.timeout_ticks = 5;
  config.retry.max_retries = 12;

  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  std::uint64_t degraded_tiles = 0;
  std::uint64_t dropped = 0;
  for (const auto& r : result.ranks) {
    degraded_tiles += r.tiles_degraded;
    dropped += r.traffic.dropped_msgs;
  }
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    if (result.corrected[i].bases == ref.corrected[i].bases) continue;
    ++divergent;
    const std::string& original = ds.reads[i].bases;
    const std::string& seq_fixed = ref.corrected[i].bases;
    const std::string& dist = result.corrected[i].bases;
    ASSERT_EQ(dist.size(), seq_fixed.size());
    for (std::size_t b = 0; b < dist.size(); ++b) {
      if (dist[b] != seq_fixed[b]) {
        EXPECT_EQ(dist[b], original[b])
            << "read " << ref.corrected[i].number << " base " << b
            << ": ring-path run invented a substitution the sequential "
               "baseline never applied";
      }
    }
  }
  if (degraded_tiles == 0) {
    EXPECT_EQ(divergent, 0u);
    EXPECT_EQ(result.total_substitutions(), ref.substitutions);
  }
  EXPECT_LE(result.total_substitutions(), ref.substitutions);
  EXPECT_GT(dropped, 0u);  // the lossy plan did fire on the ring path
}

}  // namespace
}  // namespace reptile
