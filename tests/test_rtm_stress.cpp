// Stress tests: the runtime under adversarial interleavings — heavy
// cross-traffic, collectives mixed with point-to-point, repeated phase
// cycles, and termination at scale.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rtm/comm.hpp"
#include "rtm_test_seed.hpp"
#include "seq/rng.hpp"

namespace reptile::rtm {
namespace {

// Prints the base seed + a one-line replay command on any failure.
const bool kSeedReporter = rtm_test::install_seed_reporter("test_rtm_stress");

TEST(RtmStress, AllToAllPointToPointStorm) {
  // Every rank sends a numbered message stream to every other rank, then
  // receives and validates all streams (per-source FIFO must hold).
  constexpr int kRanks = 12;
  constexpr int kMessages = 120;
  run_world({kRanks, 4}, [](Comm& comm) {
    for (int dst = 0; dst < comm.size(); ++dst) {
      if (dst == comm.rank()) continue;
      for (int m = 0; m < kMessages; ++m) {
        comm.send_value(dst, 7, static_cast<std::uint64_t>(m));
      }
    }
    for (int src = 0; src < comm.size(); ++src) {
      if (src == comm.rank()) continue;
      for (int m = 0; m < kMessages; ++m) {
        const Message msg = comm.recv(src, 7);
        ASSERT_EQ(msg.as_value<std::uint64_t>(),
                  static_cast<std::uint64_t>(m))
            << "src " << src;
      }
    }
    comm.barrier();
    EXPECT_EQ(comm.pending(), 0u);
  });
}

TEST(RtmStress, CollectivesInterleavedWithPointToPoint) {
  // Queued p2p messages must survive collectives untouched.
  constexpr int kRanks = 6;
  run_world({kRanks, 2}, [](Comm& comm) {
    const int peer = (comm.rank() + 1) % comm.size();
    comm.send_value(peer, 42, static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < 8; ++round) {
      const auto sum = comm.allreduce_sum<std::uint64_t>(1);
      ASSERT_EQ(sum, static_cast<std::uint64_t>(kRanks));
      std::vector<std::vector<int>> send(kRanks,
                                         std::vector<int>{round});
      const auto recv = comm.alltoallv(send);
      for (const auto& part : recv) ASSERT_EQ(part[0], round);
    }
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    const Message m = comm.recv(prev, 42);
    EXPECT_EQ(m.as_value<std::uint64_t>(), static_cast<std::uint64_t>(prev));
  });
}

TEST(RtmStress, ManyPhaseCyclesWithServerThreads) {
  // Repeated correction-phase lifecycles: serve -> barrier -> stop -> join.
  constexpr int kRanks = 6;
  constexpr int kStop = 7;
  run_world({kRanks, 2}, [](Comm& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      std::atomic<int> served{0};
      std::thread server([&comm, &served] {
        while (true) {
          const Message m = comm.recv(Match{kAnySource, {5, kStop}});
          if (m.tag == kStop) break;
          comm.send_value(m.source, 6, m.as_value<std::uint64_t>() + 1);
          served.fetch_add(1);
        }
        while (auto m = comm.try_recv(kAnySource, 5)) {
          comm.send_value(m->source, 6, m->as_value<std::uint64_t>() + 1);
          served.fetch_add(1);
        }
      });
      // Each rank queries a few random peers.
      seq::Rng rng(rtm_test::derive(
          static_cast<std::uint64_t>(comm.rank() * 100 + phase)));
      for (int q = 0; q < 20; ++q) {
        const int peer = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(comm.size())));
        if (peer == comm.rank()) continue;
        comm.send_value(peer, 5, static_cast<std::uint64_t>(q));
        const Message reply = comm.recv(peer, 6);
        ASSERT_EQ(reply.as_value<std::uint64_t>(),
                  static_cast<std::uint64_t>(q + 1));
      }
      comm.barrier();
      comm.post_self(kStop);
      server.join();
      comm.barrier();
      ASSERT_EQ(comm.pending(), 0u) << "phase " << phase;
      comm.barrier();  // no rank starts the next phase before the check
    }
  });
}

TEST(RtmStress, LargePayloadsSurviveIntact) {
  run_world({2, 1}, [](Comm& comm) {
    constexpr std::size_t kWords = 1 << 18;  // 2 MB payload
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> payload(kWords);
      seq::Rng rng(rtm_test::derive(1));
      for (auto& w : payload) w = rng.next();
      comm.send<std::uint64_t>(1, 9,
                               std::span<const std::uint64_t>(payload));
      const Message echo = comm.recv(1, 10);
      EXPECT_EQ(echo.as<std::uint64_t>(), payload);
    } else {
      const Message m = comm.recv(0, 9);
      const auto words = m.as<std::uint64_t>();
      ASSERT_EQ(words.size(), kWords);
      comm.send<std::uint64_t>(0, 10, std::span<const std::uint64_t>(words));
    }
  });
}

TEST(RtmStress, SixtyFourRanksBarrierAndReduce) {
  // The largest functional configuration the test suite exercises.
  run_world({64, 32}, [](Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      const auto sum = comm.allreduce_sum<std::uint64_t>(
          static_cast<std::uint64_t>(comm.rank()));
      ASSERT_EQ(sum, 64ull * 63 / 2);
      comm.barrier();
    }
  });
}

}  // namespace
}  // namespace reptile::rtm
