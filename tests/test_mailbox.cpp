// Unit tests: mailbox matching semantics (the MPI envelope model).
#include "rtm/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace reptile::rtm {
namespace {

Message msg(int src, int tag, std::uint64_t value = 0) {
  return Message::of_value(src, tag, value);
}

TEST(Message, PayloadRoundTrip) {
  const std::vector<std::uint64_t> items{1, 2, 3};
  const Message m =
      Message::of<std::uint64_t>(3, 7, std::span<const std::uint64_t>(items));
  EXPECT_EQ(m.source, 3);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.as<std::uint64_t>(), items);
  EXPECT_EQ(m.info().bytes, 24u);
}

TEST(Message, SingleValueRoundTrip) {
  const Message m = Message::of_value(0, 1, 0xDEADBEEFull);
  EXPECT_EQ(m.as_value<std::uint64_t>(), 0xDEADBEEFull);
}

TEST(Mailbox, FifoWithinMatch) {
  Mailbox mb;
  mb.push(msg(1, 5, 10));
  mb.push(msg(1, 5, 11));
  EXPECT_EQ(mb.try_pop({1, 5})->as_value<std::uint64_t>(), 10u);
  EXPECT_EQ(mb.try_pop({1, 5})->as_value<std::uint64_t>(), 11u);
  EXPECT_FALSE(mb.try_pop({1, 5}));
}

TEST(Mailbox, SelectiveMatchSkipsNonMatching) {
  Mailbox mb;
  mb.push(msg(1, 5));
  mb.push(msg(2, 6, 42));
  // Pop (2, 6) first even though (1, 5) arrived earlier.
  const auto m = mb.try_pop({2, 6});
  ASSERT_TRUE(m);
  EXPECT_EQ(m->as_value<std::uint64_t>(), 42u);
  EXPECT_EQ(mb.size(), 1u);
}

TEST(Mailbox, WildcardsMatchAnything) {
  Mailbox mb;
  mb.push(msg(3, 9));
  EXPECT_TRUE(mb.probe(kAnySource, kAnyTag));
  EXPECT_TRUE(mb.probe(3, kAnyTag));
  EXPECT_TRUE(mb.probe(kAnySource, 9));
  EXPECT_FALSE(mb.probe(4, kAnyTag));
  EXPECT_FALSE(mb.probe(kAnySource, 8));
  EXPECT_TRUE(mb.try_pop({kAnySource, kAnyTag}));
}

TEST(Mailbox, WildcardPopsInterleavedWithSelectiveKeepStreamFifo) {
  // The non-overtaking guarantee is per (source, tag) stream. Mixing
  // wildcard pops with selective ones must still deliver each stream in
  // push order: a wildcard pop takes the overall-oldest matching message,
  // so it can never skip ahead within a stream.
  Mailbox mb;
  mb.push(msg(1, 5, 10));  // stream A
  mb.push(msg(2, 6, 20));  // stream B
  mb.push(msg(1, 5, 11));  // stream A
  mb.push(msg(2, 6, 21));  // stream B
  mb.push(msg(1, 7, 30));  // stream C

  // Wildcard-any takes the overall head: stream A's first message.
  EXPECT_EQ(mb.try_pop({kAnySource, kAnyTag})->as_value<std::uint64_t>(), 10u);
  // Selective pop on stream B takes B's head, leaving stream A untouched.
  EXPECT_EQ(mb.try_pop({2, 6})->as_value<std::uint64_t>(), 20u);
  // Source-wildcard on tag 5 now finds stream A's second message.
  EXPECT_EQ(mb.try_pop({kAnySource, 5})->as_value<std::uint64_t>(), 11u);
  // Tag-wildcard on source 2 finds stream B's second message.
  EXPECT_EQ(mb.try_pop({2, kAnyTag})->as_value<std::uint64_t>(), 21u);
  // The stragglers drain in order with a final full wildcard.
  EXPECT_EQ(mb.try_pop({kAnySource, kAnyTag})->as_value<std::uint64_t>(), 30u);
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, WildcardDrainObservesPerStreamOrder) {
  // Two interleaved streams drained purely by wildcard pops: each stream's
  // values must appear in increasing order even though the streams mix.
  Mailbox mb;
  for (int i = 0; i < 8; ++i) {
    mb.push(msg(i % 2, 40 + i % 2, static_cast<std::uint64_t>(i)));
  }
  std::uint64_t last_even = 0, last_odd = 0;
  bool first_even = true, first_odd = true;
  for (int i = 0; i < 8; ++i) {
    const auto m = mb.try_pop({kAnySource, kAnyTag});
    ASSERT_TRUE(m);
    const auto v = m->as_value<std::uint64_t>();
    if (m->source == 0) {
      if (!first_even) {
        EXPECT_GT(v, last_even);
      }
      last_even = v;
      first_even = false;
    } else {
      if (!first_odd) {
        EXPECT_GT(v, last_odd);
      }
      last_odd = v;
      first_odd = false;
    }
  }
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, ProbeDoesNotConsume) {
  Mailbox mb;
  mb.push(msg(1, 2));
  EXPECT_TRUE(mb.probe(1, 2));
  EXPECT_TRUE(mb.probe(1, 2));
  EXPECT_EQ(mb.size(), 1u);
  const auto info = mb.probe(1, 2);
  EXPECT_EQ(info->source, 1);
  EXPECT_EQ(info->tag, 2);
}

TEST(Mailbox, BlockingPopWakesOnPush) {
  Mailbox mb;
  std::thread producer([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.push(msg(0, 1, 77));
  });
  const Message m = mb.pop({0, 1});
  EXPECT_EQ(m.as_value<std::uint64_t>(), 77u);
  producer.join();
}

TEST(Mailbox, PopForTimesOut) {
  Mailbox mb;
  mb.push(msg(0, 99));
  const auto m = mb.pop_for(Match{kAnySource, 1}, std::chrono::milliseconds(10));
  EXPECT_FALSE(m);
  EXPECT_EQ(mb.size(), 1u);  // non-matching message untouched
}

TEST(Mailbox, PopForFindsLaterArrival) {
  Mailbox mb;
  std::thread producer([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mb.push(msg(2, 42, 5));
  });
  const auto m = mb.pop_for(Match{kAnySource, 42}, std::chrono::seconds(5));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->source, 2);
  producer.join();
}

TEST(Mailbox, MultiTagPopWaitsUntilAMatchArrives) {
  Mailbox mb;
  std::thread producer([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mb.push(msg(3, 99));  // matches no tag of the waiter
    mb.push(msg(2, 42, 5));
  });
  const Message m = mb.pop(Match{kAnySource, {41, 42}});
  EXPECT_EQ(m.source, 2);
  producer.join();
  EXPECT_EQ(mb.size(), 1u);
}

TEST(Mailbox, MultiTagPopNeverMissesARacingFastPush) {
  // The untimed multi-tag receive skips the ring spin and sleeps until a
  // push wakes it, so a lock-free push racing the receiver's registration
  // must not skip the wakeup unseen. Each round lets the consumer announce itself, then
  // pushes after a delay that sweeps the receiver's entry path; a round
  // that stays blocked is rescued by a second push and counted.
  Mailbox mb;
  constexpr int kRounds = 4000;
  int missed = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> entering{false};
    std::atomic<bool> done{false};
    std::thread consumer([&mb, &entering, &done] {
      entering.store(true);
      (void)mb.pop(Match{kAnySource, {1, 2}});
      done.store(true);
    });
    while (!entering.load()) {
    }
    for (int spin = 0; spin < round % 200; ++spin) detail::cpu_pause();
    mb.push(msg(0, 1));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (!done.load()) {
      ++missed;
      mb.push(msg(0, 1));
    }
    consumer.join();
    while (mb.try_pop({0, 1})) {
    }
  }
  EXPECT_EQ(missed, 0);
}

TEST(Mailbox, ConcurrentSelectivePopsDoNotSteal) {
  // A "worker" popping replies and a "server" popping requests must never
  // take each other's messages.
  Mailbox mb;
  constexpr int kEach = 2000;
  constexpr int kReqTag = 1, kRepTag = 2;
  std::thread pusher([&mb] {
    for (int i = 0; i < kEach; ++i) {
      mb.push(msg(0, kReqTag, static_cast<std::uint64_t>(i)));
      mb.push(msg(0, kRepTag, static_cast<std::uint64_t>(i)));
    }
  });
  int reqs = 0, reps = 0;
  std::thread server([&] {
    while (reqs < kEach) {
      if (auto m = mb.try_pop({kAnySource, kReqTag})) {
        EXPECT_EQ(m->tag, kReqTag);
        ++reqs;
      }
    }
  });
  while (reps < kEach) {
    if (auto m = mb.try_pop({kAnySource, kRepTag})) {
      EXPECT_EQ(m->tag, kRepTag);
      ++reps;
    }
  }
  pusher.join();
  server.join();
  EXPECT_TRUE(mb.empty());
}

}  // namespace
}  // namespace reptile::rtm
