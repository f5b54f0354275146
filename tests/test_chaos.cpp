// Chaos tests: the full protocol stack under randomized message delays.
// Every guarantee must hold no matter how long the "network" sits on a
// message: per-destination FIFO, request/reply matching, termination, and
// bit-identical pipeline output.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/rebalance.hpp"
#include "parallel/remote_spectrum.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

namespace reptile {
namespace {

TEST(Chaos, PerDestinationFifoSurvivesDelays) {
  rtm::RunOptions chaos;
  chaos.chaos.seed = 42;
  chaos.chaos.max_delay_us = 400;
  rtm::run_world(
      {4, 2},
      [](rtm::Comm& comm) {
        constexpr int kMessages = 150;
        for (int dst = 0; dst < comm.size(); ++dst) {
          if (dst == comm.rank()) continue;
          for (int m = 0; m < kMessages; ++m) {
            comm.send_value(dst, 3, static_cast<std::uint64_t>(m));
          }
        }
        for (int src = 0; src < comm.size(); ++src) {
          if (src == comm.rank()) continue;
          for (int m = 0; m < kMessages; ++m) {
            ASSERT_EQ(comm.recv(src, 3).as_value<std::uint64_t>(),
                      static_cast<std::uint64_t>(m))
                << "src " << src;
          }
        }
      },
      chaos);
}

TEST(Chaos, NoMessageIsEverLost) {
  rtm::RunOptions chaos;
  chaos.chaos.seed = 7;
  chaos.chaos.max_delay_us = 800;
  auto world = rtm::run_world(
      {3, 1},
      [](rtm::Comm& comm) {
        constexpr int kMessages = 200;
        const int dst = (comm.rank() + 1) % comm.size();
        for (int m = 0; m < kMessages; ++m) {
          comm.send_value(dst, 1, static_cast<std::uint64_t>(m));
        }
        const int src = (comm.rank() + comm.size() - 1) % comm.size();
        for (int m = 0; m < kMessages; ++m) {
          (void)comm.recv(src, 1);
        }
      },
      chaos);
  EXPECT_EQ(world->chaos()->delivered(), 3u * 200u);
}

TEST(Chaos, LookupProtocolUnderDelays) {
  // A live lookup service answering delayed requests with delayed replies,
  // hammered by pipelined bursts from every other rank.
  seq::DatasetSpec spec{"chaos", 120, 40, 400};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 5);
  core::CorrectorParams params;
  params.k = 8;
  params.tile_overlap = 2;
  params.kmer_threshold = 1;
  params.tile_threshold = 1;

  rtm::RunOptions chaos;
  chaos.chaos.seed = 13;
  chaos.chaos.max_delay_us = 300;
  rtm::run_world(
      {3, 1},
      [&](rtm::Comm& comm) {
        parallel::Heuristics heur;
        parallel::DistSpectrum spectrum(params, heur, comm);
        for (const auto& r : ds.reads) spectrum.add_read(r.bases);
        spectrum.exchange_to_owners();

        parallel::LookupService service(comm, spectrum,
                                        spectrum.heuristics().universal);
        std::thread server([&service] { service.serve(); });

        parallel::RemoteSpectrumView view(comm, spectrum);
        // Query the IDs of every read's k-mers; counts must match what a
        // local full spectrum reports (every rank ingested all reads, so
        // the owner's counts are simply 3x... no — each rank ingested all
        // reads, so global counts are np x local; owners aggregate all).
        core::SpectrumExtractor extractor(params);
        std::vector<seq::kmer_id_t> kmers;
        std::vector<seq::tile_id_t> tiles;
        extractor.extract(ds.reads[0].bases, kmers, tiles);
        core::LocalSpectrum local(params);
        for (const auto& r : ds.reads) local.add_read(r.bases);
        for (auto id : kmers) {
          // Every rank added every read once; owners sum all 3 ranks.
          ASSERT_EQ(view.kmer_count(id), 3 * local.kmer_count(id));
        }
        parallel::end_correction_phase(comm, /*stop_service=*/true);
        server.join();
        comm.barrier();
      },
      chaos);
}

TEST(Chaos, FullPipelineIdenticalUnderDelays) {
  // The whole distributed pipeline — load balancing, spectrum exchange,
  // request/reply correction with multiple workers, termination — must
  // produce the sequential output no matter the delivery timing.
  seq::DatasetSpec spec{"cp", 600, 60, 1200};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.012;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 29);
  core::CorrectorParams params;
  params.k = 10;
  params.tile_overlap = 4;
  params.chunk_size = 64;
  const auto ref = core::run_sequential(ds.reads, params);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    parallel::DistConfig config;
    config.params = params;
    config.ranks = 4;
    config.worker_threads = 2;
    config.heuristics.universal = seed % 2 == 0;
    config.run_options.chaos.seed = seed;
    config.run_options.chaos.max_delay_us = 200;
    const auto result = parallel::run_distributed(ds.reads, config);
    ASSERT_EQ(result.corrected.size(), ref.corrected.size()) << seed;
    for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
      ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
          << "seed " << seed << " read " << ref.corrected[i].number;
    }
  }
}

TEST(Chaos, RebalanceDeterministicUnderDelays) {
  seq::DatasetSpec spec{"cb", 300, 40, 900};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 6);
  auto run_once = [&](std::uint64_t seed) {
    constexpr int kRanks = 4;
    std::vector<std::vector<seq::Read>> per_rank(kRanks);
    std::mutex m;
    rtm::RunOptions chaos;
    chaos.chaos.seed = seed;
    rtm::run_world(
        {kRanks, 1},
        [&](rtm::Comm& comm) {
          const std::size_t begin =
              ds.reads.size() * static_cast<std::size_t>(comm.rank()) / kRanks;
          const std::size_t end =
              ds.reads.size() * static_cast<std::size_t>(comm.rank() + 1) /
              kRanks;
          std::vector<seq::Read> mine(
              ds.reads.begin() + static_cast<long>(begin),
              ds.reads.begin() + static_cast<long>(end));
          auto balanced = parallel::rebalance_reads(comm, mine);
          std::lock_guard lock(m);
          per_rank[static_cast<std::size_t>(comm.rank())] = std::move(balanced);
        },
        chaos);
    return per_rank;
  };
  // Collectives use staging, so chaos timing cannot change the result.
  EXPECT_EQ(run_once(1), run_once(99));
}

}  // namespace
}  // namespace reptile
