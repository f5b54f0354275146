// Integration tests: the runtime's communicator — point-to-point,
// collectives, topology-aware traffic accounting, phase completion.
#include "rtm/comm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/protocol.hpp"

namespace reptile::rtm {
namespace {

TEST(Comm, RunsEveryRankExactlyOnce) {
  std::vector<int> visits(8, 0);
  run_world({8, 4}, [&](Comm& comm) {
    ++visits[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(comm.size(), 8);
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Comm, PointToPointRoundTrip) {
  run_world({2, 2}, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, std::uint64_t{123});
      const Message reply = comm.recv(1, 8);
      EXPECT_EQ(reply.as_value<std::uint64_t>(), 246u);
    } else {
      const Message m = comm.recv(0, 7);
      comm.send_value(0, 8, m.as_value<std::uint64_t>() * 2);
    }
  });
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(
      run_world({3, 1},
                [](Comm& comm) {
                  if (comm.rank() == 1) throw std::runtime_error("boom");
                }),
      std::runtime_error);
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_world({6, 2}, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 6) violated = true;
  });
  EXPECT_FALSE(violated);
}

TEST(Comm, BarrierGenerationReuseAcrossRepeatedPhases) {
  // The Barrier recycles one generation counter across phases. Run many
  // back-to-back phases where each rank bumps a per-phase counter before
  // the barrier and checks the full count after: a generation mix-up
  // (releasing a waiter early, or stranding one in a stale generation)
  // shows up as a torn count or a hang.
  constexpr int kRanks = 5;
  constexpr int kPhases = 64;
  std::array<std::atomic<int>, kPhases> arrived{};
  std::atomic<bool> violated{false};
  run_world({kRanks, 2}, [&](Comm& comm) {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrived[static_cast<std::size_t>(phase)].fetch_add(1);
      comm.barrier();
      if (arrived[static_cast<std::size_t>(phase)].load() != kRanks) {
        violated = true;
      }
      // A second barrier per phase doubles the generation churn and makes
      // sure the wait predicate survives an immediate re-entry.
      comm.barrier();
    }
  });
  EXPECT_FALSE(violated);
  for (int phase = 0; phase < kPhases; ++phase) {
    EXPECT_EQ(arrived[static_cast<std::size_t>(phase)].load(), kRanks);
  }
}

TEST(Comm, AlltoallvRoutesPerDestination) {
  constexpr int kRanks = 4;
  run_world({kRanks, 2}, [](Comm& comm) {
    // Rank r sends {r*10 + d} to rank d.
    std::vector<std::vector<int>> send(kRanks);
    for (int d = 0; d < kRanks; ++d) {
      send[static_cast<std::size_t>(d)] = {comm.rank() * 10 + d};
    }
    const auto recv = comm.alltoallv(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(kRanks));
    for (int s = 0; s < kRanks; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], s * 10 + comm.rank());
    }
  });
}

TEST(Comm, AlltoallvWithRaggedAndEmptyBuffers) {
  constexpr int kRanks = 3;
  run_world({kRanks, 1}, [](Comm& comm) {
    // Rank r sends r copies of its rank to every destination.
    std::vector<std::vector<std::uint64_t>> send(kRanks);
    for (auto& part : send) {
      part.assign(static_cast<std::size_t>(comm.rank()),
                  static_cast<std::uint64_t>(comm.rank()));
    }
    const auto recv = comm.alltoallv(send);
    for (int s = 0; s < kRanks; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)].size(),
                static_cast<std::size_t>(s));
    }
  });
}

TEST(Comm, ConsecutiveAlltoallvCallsDoNotInterfere) {
  constexpr int kRanks = 4;
  run_world({kRanks, 1}, [](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<std::vector<int>> send(
          kRanks, std::vector<int>{round * 100 + comm.rank()});
      const auto recv = comm.alltoallv(send);
      for (int s = 0; s < kRanks; ++s) {
        ASSERT_EQ(recv[static_cast<std::size_t>(s)][0], round * 100 + s);
      }
    }
  });
}

TEST(Comm, AllgathervConcatenatesInRankOrder) {
  constexpr int kRanks = 4;
  run_world({kRanks, 2}, [](Comm& comm) {
    const std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                                comm.rank());
    const auto all =
        comm.allgatherv(std::span<const int>(mine.data(), mine.size()));
    // Expect 1 zero, 2 ones, 3 twos, 4 threes, in order.
    std::vector<int> expected;
    for (int r = 0; r < kRanks; ++r) {
      expected.insert(expected.end(), static_cast<std::size_t>(r + 1), r);
    }
    EXPECT_EQ(all, expected);
  });
}

TEST(Comm, AllreduceVariants) {
  constexpr int kRanks = 5;
  run_world({kRanks, 1}, [](Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(r), 0u + 1 + 2 + 3 + 4);
    EXPECT_EQ(comm.allreduce_max(r), 4u);
    EXPECT_EQ(comm.allreduce_min(r), 0u);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(0.5), 2.5);
  });
}

TEST(Comm, ServiceStopComesAfterEveryQueuedRequest) {
  // The correction phase ends with a barrier and a stop each rank posts to
  // itself. Every request queued before the stop is answered, then serve()
  // returns; the stop itself is no traffic.
  constexpr int kRequests = 40;
  parallel::ServiceStats stats;
  auto world = run_world({2, 1}, [&](Comm& comm) {
    core::CorrectorParams params;
    params.k = 8;
    params.tile_overlap = 2;
    parallel::DistSpectrum spectrum(params, parallel::Heuristics{}, comm);
    spectrum.exchange_to_owners();
    if (comm.rank() == 1) {
      for (int i = 0; i < kRequests; ++i) {
        parallel::LookupRequest req;
        req.id = static_cast<std::uint64_t>(i);
        comm.send_value(0, parallel::kTagKmerRequest, req);
      }
    }
    // Every request is in rank 0's mailbox before its stop is posted, and
    // before its service even starts.
    parallel::end_correction_phase(comm, /*stop_service=*/comm.rank() == 0);
    if (comm.rank() == 0) {
      parallel::LookupService service(comm, spectrum,
                                      spectrum.heuristics().universal);
      std::thread server([&service] { service.serve(); });
      server.join();
      stats = service.stats();
      EXPECT_EQ(comm.pending(), 0u);
    } else {
      for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(comm.recv(0, parallel::kTagKmerReply)
                      .as_value<parallel::LookupReply>()
                      .count,
                  -1);  // the spectrum is empty
      }
    }
    comm.barrier();
  });
  EXPECT_EQ(stats.requests_served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(world->traffic().snapshot(0).sent_msgs(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(world->traffic().snapshot(1).sent_msgs(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(world->checker()->snapshot(0).leaked_messages, 0u);
}

TEST(Comm, TrafficClassifiesIntraVsInterNode) {
  // 4 ranks, 2 per node: 0,1 on node 0; 2,3 on node 1.
  auto world = run_world({4, 2}, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, std::uint64_t{0});  // intra-node
      comm.send_value(2, 1, std::uint64_t{0});  // inter-node
      comm.send_value(3, 1, std::uint64_t{0});  // inter-node
    }
    comm.barrier();
    // Drain so nothing leaks between tests (not strictly needed).
    while (comm.try_recv()) {
    }
  });
  const auto t0 = world->traffic().snapshot(0);
  EXPECT_EQ(t0.sent_msgs_intra, 1u);
  EXPECT_EQ(t0.sent_msgs_inter, 2u);
  EXPECT_EQ(t0.sent_bytes_intra, 8u);
  EXPECT_EQ(t0.sent_bytes_inter, 16u);
  const auto t1 = world->traffic().snapshot(1);
  EXPECT_EQ(t1.sent_msgs(), 0u);
}

TEST(Comm, TrafficCountsCollectives) {
  auto world = run_world({2, 1}, [](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> send(2);
    send[0] = {1, 2};
    send[1] = {3};
    comm.alltoallv(send);
  });
  const auto t = world->traffic().snapshot(0);
  EXPECT_EQ(t.collective_calls, 1u);
  EXPECT_EQ(t.collective_bytes_out, 24u);
}

TEST(Topology, NodeMapping) {
  const Topology t{8, 4};
  EXPECT_EQ(t.nodes(), 2);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_TRUE(t.same_node(0, 3));
  EXPECT_FALSE(t.same_node(3, 4));
  const Topology uneven{10, 4};
  EXPECT_EQ(uneven.nodes(), 3);
}

TEST(Comm, ManyRanksStress) {
  // 32 ranks ping-ponging with their neighbor under one barrier cycle.
  run_world({32, 8}, [](Comm& comm) {
    const int peer = comm.rank() ^ 1;
    comm.send_value(peer, 5, static_cast<std::uint64_t>(comm.rank()));
    const Message m = comm.recv(peer, 5);
    EXPECT_EQ(m.as_value<std::uint64_t>(), static_cast<std::uint64_t>(peer));
    comm.barrier();
  });
}

}  // namespace
}  // namespace reptile::rtm
