// Unit + property tests: the lock-free mailbox fast path (MPMC ring) and
// the zero-copy payload arena. The concurrent property tests pin the MPI
// non-overtaking guarantee — per-(source, tag) FIFO — across BOTH delivery
// paths and across ring overflow into the deque; they are part of the TSan
// CI tier, which verifies the ring's acquire/release protocol has no data
// races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rtm/comm.hpp"
#include "rtm/mailbox.hpp"
#include "rtm_test_seed.hpp"
#include "rtm/message.hpp"
#include "rtm/ring.hpp"

namespace reptile::rtm {
namespace {

// Prints the base seed + a one-line replay command on any failure
// (interleaving-sensitive suites share the RTM_TEST_SEED contract).
const bool kSeedReporter = rtm_test::install_seed_reporter("test_rtm_ring");

using namespace std::chrono_literals;

Message msg(int src, int tag, std::uint64_t value = 0) {
  return Message::of_value(src, tag, value);
}

// ---- MpmcMessageRing --------------------------------------------------------

TEST(Ring, RoundTripInOrderAndFullDetection) {
  MpmcMessageRing ring(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Message m = msg(1, 2, i);
    EXPECT_TRUE(ring.try_push(m));
  }
  Message overflow = msg(1, 2, 99);
  EXPECT_FALSE(ring.try_push(overflow));
  EXPECT_EQ(overflow.as_value<std::uint64_t>(), 99u);  // intact on failure
  EXPECT_EQ(ring.approx_size(), 8u);
  Message out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(ring.try_pop_exact(pack_envelope(1, 2), out),
              MpmcMessageRing::PopResult::kOk);
    EXPECT_EQ(out.as_value<std::uint64_t>(), i);
  }
  EXPECT_EQ(ring.try_pop_exact(pack_envelope(1, 2), out),
            MpmcMessageRing::PopResult::kEmpty);
}

TEST(Ring, MismatchedHeadIsNeverConsumed) {
  MpmcMessageRing ring(8);
  Message a = msg(1, 5, 10);
  ASSERT_TRUE(ring.try_push(a));
  Message out;
  EXPECT_EQ(ring.try_pop_exact(pack_envelope(2, 6), out),
            MpmcMessageRing::PopResult::kMismatch);
  EXPECT_EQ(ring.approx_size(), 1u);
  EXPECT_EQ(ring.try_pop_exact(pack_envelope(1, 5), out),
            MpmcMessageRing::PopResult::kOk);
  EXPECT_EQ(out.as_value<std::uint64_t>(), 10u);
}

TEST(Ring, ConsumerLockBlocksFastPopsAndGuardsDrain) {
  MpmcMessageRing ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Message m = msg(0, 1, i);
    ASSERT_TRUE(ring.try_push(m));
  }
  ring.set_consumer_lock(true);
  Message out;
  EXPECT_EQ(ring.try_pop_exact(pack_envelope(0, 1), out),
            MpmcMessageRing::PopResult::kLocked);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.pop_head_locked(out));
    EXPECT_EQ(out.as_value<std::uint64_t>(), i);
  }
  EXPECT_FALSE(ring.pop_head_locked(out));
  ring.set_consumer_lock(false);
  EXPECT_EQ(ring.try_pop_exact(pack_envelope(0, 1), out),
            MpmcMessageRing::PopResult::kEmpty);
}

// ---- PayloadArena / Payload -------------------------------------------------

TEST(PayloadArena, SlabReuseAndExactAccounting) {
  PayloadArena arena;
  EXPECT_EQ(arena.memory_bytes(), 0u);
  {
    // Two allocations that together overflow one slab force a second slab;
    // freeing everything recycles both.
    Payload a = arena.allocate(PayloadArena::kSlabBytes - 64);
    Payload b = arena.allocate(1024);
    EXPECT_TRUE(a.arena_backed());
    EXPECT_TRUE(b.arena_backed());
    EXPECT_EQ(arena.memory_bytes(), 2 * PayloadArena::kSlabBytes);
  }
  // Slab 1 was retired (bump target moved on) and its last payload died:
  // it must be on the free list. Slab 2 is still the bump target.
  EXPECT_EQ(arena.free_slabs(), 1u);
  const auto before = arena.stats();
  EXPECT_EQ(before.slabs_allocated, 2u);
  // Steady state: repeatedly filling and freeing must reuse, not allocate.
  for (int round = 0; round < 8; ++round) {
    std::vector<Payload> chunk;
    for (int i = 0; i < 3; ++i) {
      chunk.push_back(arena.allocate(PayloadArena::kSlabBytes / 2));
    }
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.slabs_allocated, before.slabs_allocated);
  EXPECT_GT(after.slabs_reused, 0u);
  EXPECT_EQ(arena.memory_bytes(), 2 * PayloadArena::kSlabBytes);
}

TEST(PayloadArena, OversizeFallsBackToHeap) {
  PayloadArena arena;
  Payload p = arena.allocate(PayloadArena::kSlabBytes + 1);
  EXPECT_FALSE(p.arena_backed());
  EXPECT_EQ(p.size(), PayloadArena::kSlabBytes + 1);
  EXPECT_EQ(arena.stats().oversize_allocs, 1u);
  EXPECT_EQ(arena.memory_bytes(), 0u);  // no slab was reserved for it
}

TEST(Payload, CopyIsDeepAndSelfContained) {
  PayloadArena arena;
  Payload original = arena.allocate(16);
  original.data()[0] = std::byte{42};
  Payload copy = original;  // chaos duplication path
  EXPECT_FALSE(copy.arena_backed());
  EXPECT_EQ(copy.size(), 16u);
  EXPECT_EQ(copy.data()[0], std::byte{42});
  copy.data()[0] = std::byte{7};
  EXPECT_EQ(original.data()[0], std::byte{42});
}

TEST(Payload, ResizeShrinksInPlaceAndGrowMigratesToHeap) {
  PayloadArena arena;
  Payload p = arena.allocate(32);
  for (int i = 0; i < 32; ++i) p.data()[i] = static_cast<std::byte>(i);
  p.resize(8);  // chaos truncation path
  EXPECT_TRUE(p.arena_backed());
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p.data()[7], std::byte{7});
  p.resize(64);  // growth releases the slab chunk and keeps the prefix
  EXPECT_FALSE(p.arena_backed());
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(p.data()[7], std::byte{7});
}

TEST(PayloadArena, CrossThreadReleaseIsSafe) {
  // Sender-side allocation, receiver-side release — the normal message
  // lifecycle. Hammer it from several threads to expose slab refcount
  // races (and data races, under TSan).
  PayloadArena arena;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  Mailbox mb;
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&arena, &mb, t] {
      for (int i = 0; i < kRounds; ++i) {
        Message m;
        m.source = t;
        m.tag = 7;
        m.payload = arena.allocate(64 + static_cast<std::size_t>(i % 191));
        mb.push(std::move(m));
      }
    });
  }
  int received = 0;
  while (received < kThreads * kRounds) {
    if (auto m = mb.try_pop({kAnySource, 7})) ++received;  // payload dies here
  }
  for (auto& t : senders) t.join();
  EXPECT_LT(arena.memory_bytes(), 64u * PayloadArena::kSlabBytes);
  // Every payload above is dead, so the retired slabs all sit on the free
  // list now; one more single-threaded wave must recycle instead of grow.
  const auto before = arena.stats();
  for (int i = 0; i < 8; ++i) {
    const Payload p = arena.allocate(PayloadArena::kSlabBytes / 2);
  }
  const auto after = arena.stats();
  EXPECT_GT(after.slabs_reused, before.slabs_reused);
  EXPECT_EQ(after.slabs_allocated, before.slabs_allocated);
}

// ---- Mailbox fast path ------------------------------------------------------

TEST(MailboxFastPath, StatsCountFastOperations) {
  Mailbox mb;
  mb.push(msg(0, 1, 11));
  EXPECT_EQ(mb.try_pop({0, 1})->as_value<std::uint64_t>(), 11u);
  const MailboxStats s = mb.stats();
  EXPECT_EQ(s.fast_pushes, 1u);
  EXPECT_EQ(s.fast_pops, 1u);
  EXPECT_EQ(s.slow_pushes, 0u);
}

TEST(MailboxFastPath, DisablingForcesSlowPath) {
  Mailbox mb;
  mb.set_fast_path(false);
  mb.push(msg(0, 1, 11));
  EXPECT_EQ(mb.try_pop({0, 1})->as_value<std::uint64_t>(), 11u);
  const MailboxStats s = mb.stats();
  EXPECT_EQ(s.fast_pushes, 0u);
  EXPECT_EQ(s.fast_pops, 0u);
  EXPECT_EQ(s.slow_pushes, 1u);
}

TEST(MailboxFastPath, OverflowSpillsToDequeAndKeepsStreamFifo) {
  // Push far beyond the ring capacity without popping: the overflow drains
  // the ring into the deque. Subsequent pops must still see 0..N-1 in
  // order, crossing the deque/ring boundary (deque holds the OLDER half).
  Mailbox mb;
  constexpr std::uint64_t kN = Mailbox::kRingCapacity * 3 + 17;
  for (std::uint64_t i = 0; i < kN; ++i) mb.push(msg(2, 9, i));
  const MailboxStats after_push = mb.stats();
  EXPECT_GT(after_push.fast_pushes, 0u);
  EXPECT_GT(after_push.slow_pushes, 0u);  // overflow took the mutex path
  EXPECT_EQ(mb.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto m = mb.try_pop({2, 9});
    ASSERT_TRUE(m);
    ASSERT_EQ(m->as_value<std::uint64_t>(), i);
  }
  EXPECT_TRUE(mb.empty());
  // Once the deque drained, exact pops return to the lock-free path.
  mb.push(msg(2, 9, 1000));
  EXPECT_EQ(mb.try_pop({2, 9})->as_value<std::uint64_t>(), 1000u);
  EXPECT_GT(mb.stats().fast_pops, 0u);
}

// Concurrent producers/consumers on distinct streams: every stream must be
// received in push order regardless of which path each message took.
void run_fifo_property(bool fast_path) {
  Mailbox mb;
  mb.set_fast_path(fast_path);
  constexpr int kStreams = 4;
  constexpr std::uint64_t kEach = 20000;
  std::vector<std::thread> producers;
  producers.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    producers.emplace_back([&mb, s] {
      for (std::uint64_t i = 0; i < kEach; ++i) {
        mb.push(msg(s, 100 + s, i));
      }
    });
  }
  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  consumers.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    consumers.emplace_back([&mb, &failures, s] {
      for (std::uint64_t i = 0; i < kEach; ++i) {
        const Message m = mb.pop({s, 100 + s});  // blocking exact-match
        if (m.as_value<std::uint64_t>() != i) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(mb.empty());
}

TEST(MailboxFastPath, ConcurrentStreamsKeepFifoOnFastPath) {
  run_fifo_property(/*fast_path=*/true);
}

TEST(MailboxFastPath, ConcurrentStreamsKeepFifoOnSlowPath) {
  run_fifo_property(/*fast_path=*/false);
}

TEST(MailboxFastPath, ExactAndMultiTagConsumersCoexist) {
  // The real pipeline shape: a worker doing exact pops of replies while
  // the communication thread receives requests and its stop from any
  // source on the same mailbox. Both streams must stay FIFO and neither
  // may steal.
  Mailbox mb;
  constexpr std::uint64_t kEach = 10000;
  std::thread producer([&mb] {
    for (std::uint64_t i = 0; i < kEach; ++i) {
      mb.push(msg(1, 1, i));  // "requests"
      mb.push(msg(1, 2, i));  // "replies"
    }
  });
  std::thread service([&mb] {
    for (std::uint64_t i = 0; i < kEach; ++i) {
      std::optional<Message> m;
      while (!m) {
        m = mb.pop_for(Match{kAnySource, {1, 3}}, 1s);
      }
      ASSERT_EQ(m->as_value<std::uint64_t>(), i);
    }
  });
  for (std::uint64_t i = 0; i < kEach; ++i) {
    const Message m = mb.pop({1, 2});
    ASSERT_EQ(m.as_value<std::uint64_t>(), i);
  }
  producer.join();
  service.join();
  EXPECT_TRUE(mb.empty());
}

// ---- timed receive over a backlog / targeted wakeup -------------------------

TEST(MailboxWakeup, PopForFindsArrivalAfterConsumedBacklog) {
  // A backlog of non-matching messages, some of which get consumed from
  // the middle while the timed receive waits: the late matching push must
  // still be found (each wakeup rescans the deque, so neither new arrivals
  // nor erased entries can be skipped).
  Mailbox mb;
  for (std::uint64_t i = 0; i < 64; ++i) {
    mb.push(msg(3, static_cast<int>(10 + i % 4), i));
  }
  std::thread interferer([&mb] {
    std::this_thread::sleep_for(5ms);
    for (int i = 0; i < 8; ++i) (void)mb.try_pop({3, 11});
    std::this_thread::sleep_for(5ms);
    mb.push(msg(9, 99, 1234));
  });
  const auto m = mb.pop_for(Match{kAnySource, 99}, 5s);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->as_value<std::uint64_t>(), 1234u);
  interferer.join();
  EXPECT_EQ(mb.size(), 64u - 8u);
}

TEST(MailboxWakeup, PushSkipsNotifyWhenNoWaiterFilterMatches) {
  // Two parked receivers, one on an exact envelope and one on two tags
  // from any source (the worker and the communication thread): a push
  // wakes no one unless it matches, and then only the waiter it matches.
  Mailbox mb;
  std::atomic<int> exact_got{0};
  std::atomic<int> multi_got{0};
  std::thread exact([&mb, &exact_got] {
    const Message m = mb.pop({0, 1});  // registers envelope (0, 1)
    EXPECT_EQ(m.as_value<std::uint64_t>(), 5u);
    exact_got.store(1);
  });
  std::thread multi([&mb, &multi_got] {
    for (int i = 0; i < 2; ++i) {
      const Message m = mb.pop(Match{kAnySource, {2, 3}});
      EXPECT_EQ(m.as_value<std::uint64_t>(), 7u + static_cast<unsigned>(i));
      multi_got.fetch_add(1);
    }
  });
  // Let both waiters park (spin phase + registration + condvar wait).
  std::this_thread::sleep_for(20ms);
  const std::uint64_t skipped_before = mb.stats().notifies_skipped;
  mb.push(msg(5, 5, 0));  // matches no waiter: must not notify
  std::this_thread::sleep_for(5ms);
  EXPECT_EQ(exact_got.load(), 0);
  EXPECT_EQ(multi_got.load(), 0);
  EXPECT_GT(mb.stats().notifies_skipped, skipped_before);
  mb.push(msg(4, 2, 7));  // matches only the multi-tag waiter
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (multi_got.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(multi_got.load(), 1);
  EXPECT_EQ(exact_got.load(), 0);
  mb.push(msg(0, 1, 5));  // matches only the exact waiter
  exact.join();
  EXPECT_EQ(multi_got.load(), 1);
  mb.push(msg(6, 3, 8));  // the multi-tag waiter's second message
  multi.join();
  EXPECT_EQ(multi_got.load(), 2);
  EXPECT_EQ(mb.stats().futile_wakeups, 0u);
  EXPECT_EQ(mb.try_pop({5, 5})->as_value<std::uint64_t>(), 0u);
}

// ---- end to end through Comm/World ------------------------------------------

TEST(MailboxFastPath, UncheckedPingPongUsesRingAndArena) {
  RunOptions options;
  options.check.enabled = false;  // fast path only arms without a checker
  constexpr int kRounds = 500;
  auto world = run_world(
      {2, 1},
      [](Comm& comm) {
        if (comm.rank() == 0) {
          for (std::uint64_t i = 0; i < kRounds; ++i) {
            comm.send_value(1, 3, i);
            const Message echo = comm.recv(1, 4);
            ASSERT_EQ(echo.as_value<std::uint64_t>(), i);
          }
        } else {
          for (std::uint64_t i = 0; i < kRounds; ++i) {
            Message m = comm.recv(0, 3);
            ASSERT_TRUE(m.payload.arena_backed());  // zero-copy send path
            comm.send_value(0, 4, m.as_value<std::uint64_t>());
          }
        }
        comm.barrier();
      },
      options);
  const MailboxStats s0 = world->mailbox(0).stats();
  const MailboxStats s1 = world->mailbox(1).stats();
  EXPECT_EQ(s0.fast_pushes + s1.fast_pushes,
            static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GT(s0.fast_pops + s1.fast_pops, 0u);
  EXPECT_GT(world->arena(0).stats().slabs_allocated, 0u);
}

TEST(MailboxFastPath, CheckedRunForcesAuditedPathAndStaysClean) {
  // With rtm-check attached every push/pop is audited under the mutex;
  // messages still flow through the ring internally (drained by locked
  // consumers), so this exercises the drain machinery under the FIFO
  // audit. finalize() throws on any violation.
  RunOptions options;  // check.enabled defaults to true
  auto world = run_world({2, 1}, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 200; ++i) comm.send_value(1, 3, i);
    } else {
      for (std::uint64_t i = 0; i < 200; ++i) {
        ASSERT_EQ(comm.recv(0, 3).as_value<std::uint64_t>(), i);
      }
    }
    comm.barrier();
  });
  EXPECT_EQ(world->mailbox(1).stats().fast_pops, 0u);  // audit forced slow
}

}  // namespace
}  // namespace reptile::rtm
