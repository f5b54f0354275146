// Fault injection: the chaos layer's drop/duplicate/truncate/stall faults
// and the lookup protocol's timeout/retry machinery that survives them.
//
// The contract under test (DESIGN.md §4d): with any seeded fault plan whose
// loss rate the retry budget covers, the pipeline terminates and every
// correction it applies is one the sequential baseline would apply — faults
// may only make the corrector SKIP positions (counted as degraded), never
// miscorrect them.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/remote_spectrum.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"

namespace reptile {
namespace {

using namespace std::chrono_literals;

// ---- FaultPlan / config validation -----------------------------------------

TEST(FaultPlan, ValidatesRates) {
  rtm::FaultPlan plan;
  plan.seed = 1;
  plan.drop_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.drop_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.drop_rate = 0.5;
  plan.stall_us = -1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.stall_us = 0;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.lossy());
  plan.drop_rate = 0;
  plan.duplicate_rate = 0.5;  // duplication loses nothing
  EXPECT_FALSE(plan.lossy());
  plan.truncate_rate = 0.1;
  EXPECT_TRUE(plan.lossy());
}

TEST(FaultPlan, LossyPlanWithoutRetriesIsRejected) {
  // A dropped lookup with no timeout can only hang the worker forever, so
  // the pipeline refuses the combination up front.
  seq::DatasetSpec spec{"rej", 20, 40, 200};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 3);
  parallel::DistConfig config;
  config.params.k = 8;
  config.params.tile_overlap = 2;
  config.ranks = 2;
  config.run_options.chaos.seed = 5;
  config.run_options.chaos.drop_rate = 0.1;
  EXPECT_THROW(parallel::run_distributed(ds.reads, config),
               std::invalid_argument);
  // The same plan with retries armed is accepted (and terminates).
  config.retry.timeout_ticks = 5;
  config.retry.max_retries = 10;
  EXPECT_NO_THROW(parallel::run_distributed(ds.reads, config));
}

// ---- chaos layer unit behaviour --------------------------------------------

TEST(FaultInjection, DropsAreSeededCountedAndAttributed) {
  rtm::RunOptions options;
  options.check.enabled = false;  // receivers never consume; no leak audit
  options.chaos.seed = 17;
  options.chaos.max_delay_us = 50;
  options.chaos.drop_rate = 0.3;
  static constexpr int kMessages = 300;
  auto world = rtm::run_world(
      {2, 1},
      [](rtm::Comm& comm) {
        if (comm.rank() == 0) {
          for (int m = 0; m < kMessages; ++m) {
            comm.send_value(1, 5, static_cast<std::uint64_t>(m));
          }
        }
        comm.barrier();
      },
      options);
  // The delivery thread may still be flushing; wait for the queues to empty.
  for (int i = 0; i < 1000 && !world->chaos()->idle(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(world->chaos()->idle());
  const rtm::ChaosStats stats = world->chaos()->stats();
  EXPECT_EQ(stats.delivered + stats.dropped, kMessages);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LT(stats.dropped, kMessages);  // 0.3 drop rate loses ~90 of 300
  // Drops are attributed to the sending rank's traffic counters.
  const auto traffic = world->traffic().snapshot(0);
  EXPECT_EQ(traffic.dropped_msgs, stats.dropped);
  EXPECT_EQ(world->traffic().snapshot(1).dropped_msgs, 0u);
}

TEST(FaultInjection, DuplicatesArriveBehindTheOriginalInFifoOrder) {
  rtm::RunOptions options;
  options.chaos.seed = 23;
  options.chaos.max_delay_us = 200;
  options.chaos.duplicate_rate = 0.4;
  static constexpr int kMessages = 200;
  auto world = rtm::run_world(
      {2, 1},
      [](rtm::Comm& comm) {
        if (comm.rank() == 0) {
          for (int m = 0; m < kMessages; ++m) {
            comm.send_value(1, 5, static_cast<std::uint64_t>(m));
          }
        } else {
          // With duplication the receiver sees each value once or twice, but
          // never out of order and never beyond one extra copy.
          std::uint64_t last = 0;
          int received = 0;
          int same = 0;
          while (received < kMessages || same > 0) {
            const auto m =
                comm.recv_for({rtm::kAnySource, rtm::kAnyTag}, 50ms);
            if (!m) break;
            const auto v = m->as_value<std::uint64_t>();
            if (received > 0 && v == last) {
              --same;
              continue;  // the duplicate copy
            }
            ASSERT_EQ(v, static_cast<std::uint64_t>(received));
            last = v;
            ++received;
            same = 1;
          }
          ASSERT_EQ(received, kMessages);
        }
        comm.barrier();
      },
      options);
  const rtm::ChaosStats stats = world->chaos()->stats();
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_EQ(stats.delivered, kMessages + stats.duplicated);
  EXPECT_EQ(world->traffic().snapshot(0).duplicated_msgs, stats.duplicated);
}

TEST(FaultInjection, StallHoldsDeliveryAndWatchdogStaysQuiet) {
  // A stall window freezes ALL delivery to the destination. The blocked
  // receiver must not be diagnosed as deadlocked: the chaos layer reports
  // the held message through idle(), which the watchdog treats as progress
  // in flight. Watchdog grace (250ms) < stall (600ms), so this test fails
  // with a DeadlockError if idle() and the watchdog ever disagree.
  rtm::RunOptions options;
  options.chaos.seed = 31;
  options.chaos.max_delay_us = 0;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_us = 600000;
  auto world = rtm::run_world(
      {2, 1},
      [](rtm::Comm& comm) {
        comm.barrier();
        if (comm.rank() == 0) {
          comm.send_value(1, 5, std::uint64_t{42});
          // The message is stalled, not lost: the chaos layer is not idle
          // while it holds it.
          std::this_thread::sleep_for(100ms);
          EXPECT_FALSE(comm.world().chaos()->idle());
        } else {
          const auto t0 = std::chrono::steady_clock::now();
          EXPECT_EQ(comm.recv(0, 5).as_value<std::uint64_t>(), 42u);
          // Delivery waited out the stall window.
          EXPECT_GE(std::chrono::steady_clock::now() - t0, 400ms);
        }
        comm.barrier();
      },
      options);
  const rtm::ChaosStats stats = world->chaos()->stats();
  EXPECT_GE(stats.stalls_opened, 1u);
  EXPECT_EQ(stats.delivered, 1u);
}

TEST(FaultInjection, DestructorDrainsHeldMessagesInstantly) {
  // Shutdown guarantee: ~ChaosDelayer delivers everything still queued
  // immediately, ignoring release times and stall windows. With 2-second
  // delays on every message, a run that exits right after sending must
  // still tear down in a fraction of that.
  rtm::RunOptions options;
  options.check.enabled = false;  // drained messages are never consumed
  options.chaos.seed = 41;
  options.chaos.max_delay_us = 2000000;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_us = 2000000;
  auto world = rtm::run_world(
      {2, 1},
      [](rtm::Comm& comm) {
        if (comm.rank() == 0) {
          for (int m = 0; m < 50; ++m) {
            comm.send_value(1, 5, static_cast<std::uint64_t>(m));
          }
        }
        comm.barrier();
      },
      options);
  EXPECT_FALSE(world->chaos()->idle());  // held behind delays + stalls
  const auto t0 = std::chrono::steady_clock::now();
  world.reset();  // ~World -> ~ChaosDelayer drain
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
}

// ---- lookup protocol under faults ------------------------------------------

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;
  return p;
}

TEST(FaultInjection, StaleRepliesAreSuppressedBySequenceNumber) {
  // A reply whose echoed seq does not match the outstanding request must be
  // discarded, not consumed as the answer. Rank 0 forges a stale reply and
  // parks it in rank 1's mailbox ahead of the real one.
  seq::DatasetSpec spec{"stale", 80, 40, 300};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 11);
  const auto params = small_params();
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    parallel::DistSpectrum spectrum(params, parallel::Heuristics{}, comm);
    for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    spectrum.exchange_to_owners();

    // Rank 0 picks a k-mer it owns and tells rank 1 its count.
    std::uint64_t probe_id = 0;
    std::uint32_t probe_count = 0;
    if (comm.rank() == 0) {
      spectrum.owned_table(parallel::LookupKind::kKmer)
          .for_each([&](std::uint64_t id, std::uint32_t c) {
        if (probe_count == 0) {
          probe_id = id;
          probe_count = c;
        }
      });
      ASSERT_GT(probe_count, 0u);
      comm.send_value(1, 99, probe_id);
      comm.send_value(1, 98, static_cast<std::uint64_t>(probe_count));
      // The forged stale reply: FIFO puts it ahead of the service's real
      // reply to the same (source, tag) stream.
      parallel::LookupReply stale;
      stale.seq = 9999;
      stale.count = 77777;
      comm.send_value(1, parallel::reply_tag(parallel::LookupKind::kKmer),
                      stale);
    }
    comm.barrier();

    if (comm.rank() == 0) {
      parallel::LookupService service(comm, spectrum,
                                      spectrum.heuristics().universal);
      std::thread server([&service] { service.serve(); });
      parallel::end_correction_phase(comm, /*stop_service=*/true);
      server.join();
    } else {
      probe_id = comm.recv(0, 99).as_value<std::uint64_t>();
      probe_count = static_cast<std::uint32_t>(
          comm.recv(0, 98).as_value<std::uint64_t>());
      parallel::RemoteSpectrumView view(comm, spectrum);
      EXPECT_EQ(view.kmer_count(probe_id), probe_count);
      EXPECT_EQ(view.remote_stats().stale_replies_suppressed, 1u);
      EXPECT_EQ(view.degraded_lookups(), 0u);
      parallel::end_correction_phase(comm, /*stop_service=*/false);
    }
    comm.barrier();
  });
}

TEST(FaultInjection, RetriesRecoverDroppedLookups) {
  // Scalar lookups against a live service through a lossy link: every
  // lookup either returns the true count or degrades to a conservative 0
  // after the retry budget — it never returns a wrong nonzero count.
  seq::DatasetSpec spec{"drop", 100, 40, 400};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 19);
  const auto params = small_params();

  rtm::RunOptions options;
  options.chaos.seed = 77;
  options.chaos.max_delay_us = 100;
  options.chaos.drop_rate = 0.25;
  parallel::RetryPolicy retry;
  retry.timeout_ticks = 5;   // 500us base timeout, doubling per attempt
  retry.max_retries = 12;
  rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        parallel::DistSpectrum spectrum(params, parallel::Heuristics{}, comm);
        for (const auto& r : ds.reads) spectrum.add_read(r.bases);
        spectrum.exchange_to_owners();
        if (comm.rank() == 0) {
          parallel::LookupService service(comm, spectrum,
                                          spectrum.heuristics().universal);
          std::thread server([&service] { service.serve(); });
          parallel::end_correction_phase(comm, /*stop_service=*/true);
          server.join();
        } else {
          parallel::RemoteSpectrumView view(comm, spectrum, 0, retry);
          core::SpectrumExtractor extractor(params);
          std::vector<seq::kmer_id_t> kmers;
          std::vector<seq::tile_id_t> tiles;
          extractor.extract(ds.reads[0].bases, kmers, tiles);
          core::LocalSpectrum local(params);
          for (const auto& r : ds.reads) local.add_read(r.bases);
          for (auto id : kmers) {
            const std::uint64_t degraded_before = view.degraded_lookups();
            const std::uint32_t got = view.kmer_count(id);
            // Both ranks ingested every read, so owners hold 2x the local
            // count. A degraded lookup reports 0, anything else must be
            // exact.
            if (view.degraded_lookups() == degraded_before) {
              ASSERT_EQ(got, 2 * local.kmer_count(id));
            } else {
              ASSERT_EQ(got, 0u);
            }
          }
          const auto& rs = view.remote_stats();
          EXPECT_GT(rs.lookup_timeouts + rs.lookup_retries, 0u);
          parallel::end_correction_phase(comm, /*stop_service=*/false);
        }
        comm.barrier();
      },
      options);
}

// ---- full pipeline: degradation may skip, never miscorrect -----------------

TEST(FaultInjection, PipelineUnderLossyChaosNeverMiscorrects) {
  seq::DatasetSpec spec{"lossy", 500, 60, 1000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.012;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 29);
  core::CorrectorParams params;
  params.k = 10;
  params.tile_overlap = 4;
  params.chunk_size = 64;
  const auto ref = core::run_sequential(ds.reads, params);

  parallel::DistConfig config;
  config.params = params;
  config.ranks = 4;
  config.run_options.chaos.seed = 101;
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
  std::uint64_t degraded_lookups = 0;
  for (const auto& r : result.ranks) {
    degraded_tiles += r.tiles_degraded;
    degraded_lookups += r.remote.degraded_lookups;
    // The audit layer understands the retry protocol: retransmissions and
    // duplicate replies are classified, not reported as leaks or orphans.
    EXPECT_EQ(r.check.fifo_violations, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.check.leaked_messages, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.check.orphaned_replies, 0u) << "rank " << r.rank;
  }
  // Conservative identity: every read is either corrected exactly as the
  // sequential baseline corrects it, or (when its evidence degraded) left
  // with strictly fewer substitutions applied — never different ones.
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    if (result.corrected[i].bases == ref.corrected[i].bases) continue;
    ++divergent;
    // A divergent read must differ from the reference only where the
    // reference corrected the ORIGINAL read: the distributed run may have
    // skipped that substitution (kept the original base), never invented
    // a new one.
    const std::string& original = ds.reads[i].bases;
    const std::string& seq_fixed = ref.corrected[i].bases;
    const std::string& dist = result.corrected[i].bases;
    ASSERT_EQ(dist.size(), seq_fixed.size());
    for (std::size_t b = 0; b < dist.size(); ++b) {
      if (dist[b] != seq_fixed[b]) {
        EXPECT_EQ(dist[b], original[b])
            << "read " << ref.corrected[i].number << " base " << b
            << ": distributed run invented a substitution the sequential "
               "baseline never applied";
      }
    }
  }
  // Skips only happen when something actually degraded.
  if (degraded_tiles == 0) {
    EXPECT_EQ(divergent, 0u);
    EXPECT_EQ(result.total_substitutions(), ref.substitutions);
  }
  EXPECT_LE(result.total_substitutions(), ref.substitutions);
  // The fault plan did fire (seeded, so this is stable).
  std::uint64_t dropped = 0;
  for (const auto& r : result.ranks) dropped += r.check.chaos_dropped;
  EXPECT_GT(dropped, 0u);
  (void)degraded_lookups;
}

TEST(FaultInjection, DroppingEveryBatchEndsTheWavefront) {
  // Every message is lost, every batch of the chunk wavefront included.
  // Each chunk's first round is abandoned after its retries and the
  // wavefront stops there, so the batches sent are exactly the first
  // rounds' (an unbounded wavefront would re-send forever). Every remote
  // lookup then degrades on the scalar path: the job finishes, reports
  // the degradation, and changes no base the sequential baseline would not.
  seq::DatasetSpec spec{"blackhole", 160, 50, 500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.015;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 61);
  core::CorrectorParams params;
  params.k = 10;
  params.tile_overlap = 4;
  params.chunk_size = 40;
  const auto ref = core::run_sequential(ds.reads, params);

  parallel::DistConfig config;
  config.params = params;
  config.ranks = 2;
  config.run_options.chaos.seed = 404;
  config.run_options.chaos.max_delay_us = 0;
  config.run_options.chaos.drop_rate = 1.0;
  config.retry.timeout_ticks = 1;
  config.retry.max_retries = 1;
  ASSERT_TRUE(config.heuristics.batch_lookups);  // the default

  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  std::uint64_t degraded = 0;
  for (const auto& r : result.ranks) {
    EXPECT_GT(r.remote.batch_abandoned, 0u) << "rank " << r.rank;
    // One round per chunk: every batch sent was abandoned, none re-sent
    // beyond its retries.
    EXPECT_EQ(r.remote.batch_requests, r.remote.batch_abandoned)
        << "rank " << r.rank;
    EXPECT_EQ(r.remote.batch_retries, r.remote.batch_abandoned)
        << "rank " << r.rank;
    EXPECT_GT(r.remote.degraded_lookups, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.remote.prefetch_hits, 0u) << "rank " << r.rank;
    degraded += r.tiles_degraded;
  }
  EXPECT_GT(degraded, 0u);
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    const std::string& original = ds.reads[i].bases;
    const std::string& want = ref.corrected[i].bases;
    const std::string& got = result.corrected[i].bases;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
      if (got[b] != want[b]) {
        EXPECT_EQ(got[b], original[b])
            << "read " << ref.corrected[i].number << " base " << b;
      }
    }
  }
  EXPECT_LT(result.total_substitutions(), ref.substitutions);
}

TEST(FaultInjection, FaultFreeRunHasZeroFaultCounters) {
  // With chaos off and retries off, every new counter must stay zero and
  // the output must be bit-identical to the sequential baseline — the
  // protocol extension is invisible on the fault-free path.
  seq::DatasetSpec spec{"clean", 300, 50, 700};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.01;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 57);
  core::CorrectorParams params;
  params.k = 10;
  params.tile_overlap = 4;
  params.chunk_size = 64;
  const auto ref = core::run_sequential(ds.reads, params);

  parallel::DistConfig config;
  config.params = params;
  config.ranks = 4;
  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases);
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.tiles_degraded, 0u);
    EXPECT_EQ(r.remote.lookup_retries, 0u);
    EXPECT_EQ(r.remote.lookup_timeouts, 0u);
    EXPECT_EQ(r.remote.degraded_lookups, 0u);
    EXPECT_EQ(r.remote.stale_replies_suppressed, 0u);
    EXPECT_EQ(r.remote.malformed_replies, 0u);
    EXPECT_EQ(r.remote.batch_retries, 0u);
    EXPECT_EQ(r.remote.batch_abandoned, 0u);
    EXPECT_EQ(r.service.malformed_requests, 0u);
    EXPECT_EQ(r.check.retransmits, 0u);
    EXPECT_EQ(r.check.stale_reply_sends, 0u);
    EXPECT_EQ(r.check.chaos_dropped, 0u);
    EXPECT_EQ(r.check.chaos_duplicated, 0u);
    EXPECT_EQ(r.check.chaos_truncated, 0u);
    EXPECT_EQ(r.check.stale_leaks, 0u);
    EXPECT_EQ(r.traffic.dropped_msgs, 0u);
    EXPECT_EQ(r.traffic.duplicated_msgs, 0u);
  }
}

}  // namespace
}  // namespace reptile
