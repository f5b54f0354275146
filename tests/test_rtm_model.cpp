// Model-checker tier (DESIGN.md §8): schedule exploration + happens-before
// race analysis of the PRODUCTION ring/mailbox/arena templates, driven
// through rtm/model/scenarios.hpp.
//
// Two layers:
//   - checker self-tests: hand-built mini-scenarios with known verdicts
//     (a plain-field race, an over-relaxed publish, an ABBA deadlock, a
//     correct release/acquire handshake) pin that the checker itself finds
//     what it claims to find and accepts what it must accept;
//   - production sweeps: bounded-exhaustive DFS over the tiny
//     configurations (2 producers / 1 consumer, capacity-2 ring) and
//     seeded random walks over all scenarios. RTM_MODEL_SCHEDULES scales
//     the random budget (default 20000 per scenario = 120k total);
//     RTM_MODEL_SEED picks the walk; RTM_MODEL_DEEP=1 adds the
//     preemption-bound-2 / overflow-heavy exhaustive runs the CI model
//     job uses (minutes, not seconds).
//
// Every failure message embeds the `seed:d0.d1...` replay token and the
// tools/rtm_model command line that reproduces the schedule exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "rtm/model/scenarios.hpp"

namespace reptile::rtm::model {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

Result run(const std::function<void(Sim&)>& fn, Mode mode,
           std::uint64_t schedules, int preemptions) {
  Options o;
  o.mode = mode;
  o.max_schedules = schedules;
  o.seed = env_u64("RTM_MODEL_SEED", 1);
  o.max_preemptions = preemptions;
  return explore(o, fn);
}

Result run_named(const char* name, Mode mode, std::uint64_t schedules,
                 int preemptions) {
  const scenarios::Named* sc = scenarios::find(name);
  EXPECT_NE(sc, nullptr) << "unknown scenario " << name;
  return run(sc->fn, mode, schedules, preemptions);
}

// ---- replay token -----------------------------------------------------------

TEST(ModelReplay, TokenRoundTrip) {
  const std::vector<int> decisions{0, 3, 1, 0, 2};
  const std::string token = format_replay(42, decisions);
  EXPECT_EQ(token, "42:0.3.1.0.2");
  std::uint64_t seed = 0;
  std::vector<int> parsed;
  ASSERT_TRUE(parse_replay(token, &seed, &parsed));
  EXPECT_EQ(seed, 42u);
  EXPECT_EQ(parsed, decisions);
  EXPECT_TRUE(parse_replay("7:", &seed, &parsed));  // empty decision list
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(parse_replay("no-colon", &seed, &parsed));
  EXPECT_FALSE(parse_replay("x:1.2", &seed, &parsed));
}

// ---- checker self-tests -----------------------------------------------------

// Unsynchronized writes to a plain field from two threads: a certain data
// race; the happens-before checker must flag it within a tiny DFS.
TEST(ModelChecker, FlagsPlainFieldRace) {
  auto scenario = [](Sim& sim) {
    auto v = std::make_shared<PlainVar<int>>();
    sim.thread("w1", [v] { put(*v, 1); });
    sim.thread("w2", [v] { put(*v, 2); });
  };
  const Result r = run(scenario, Mode::kDfs, 1000, -1);
  ASSERT_TRUE(r.failed) << "two unsynchronized writers must race";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  EXPECT_FALSE(r.replay_token.empty());
}

// The classic message-passing litmus: plain payload published through a
// release store, consumed after an acquire load. Correct — the checker
// must exhaust the full schedule space without a complaint.
TEST(ModelChecker, AcceptsReleaseAcquirePublish) {
  auto scenario = [](Sim& sim) {
    struct State {
      PlainVar<int> data;
      Atomic<int> flag{0};
    };
    auto st = std::make_shared<State>();
    sim.thread("producer", [st] {
      put(st->data, 41);
      st->flag.store(1, std::memory_order_release);
    });
    sim.thread("consumer", [st] {
      while (st->flag.load(std::memory_order_acquire) == 0) {
        ModelAtomics::yield();
      }
      require(take(st->data) == 41, "lost payload");
    });
  };
  const Result r = run(scenario, Mode::kDfs, 100000, -1);
  EXPECT_FALSE(r.failed) << describe_failure(r, "release_acquire_publish");
  EXPECT_TRUE(r.exhausted);
}

// Same litmus with a relaxed publish store: no happens-before edge to the
// consumer, so the payload read races. x86 hardware would hide this; the
// weak-memory simulation must not.
TEST(ModelChecker, FlagsRelaxedPublish) {
  auto scenario = [](Sim& sim) {
    struct State {
      PlainVar<int> data;
      Atomic<int> flag{0};
    };
    auto st = std::make_shared<State>();
    sim.thread("producer", [st] {
      put(st->data, 41);
      st->flag.store(1, std::memory_order_relaxed);
    });
    sim.thread("consumer", [st] {
      while (st->flag.load(std::memory_order_acquire) == 0) {
        ModelAtomics::yield();
      }
      take(st->data);
    });
  };
  const Result r = run(scenario, Mode::kDfs, 100000, -1);
  ASSERT_TRUE(r.failed) << "relaxed publish must race";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
}

// Store-buffering (Dekker): with seq_cst fences both threads cannot read
// the other's flag as 0. A failure here would mean the SC-clock modeling
// lost the total order that WaiterGate's handshake depends on.
TEST(ModelChecker, SeqCstFencesForbidStoreBuffering) {
  auto scenario = [](Sim& sim) {
    struct State {
      Atomic<int> x{0}, y{0};
      PlainVar<int> saw_x0, saw_y0;
    };
    auto st = std::make_shared<State>();
    sim.thread("t1", [st] {
      st->x.store(1, std::memory_order_relaxed);
      ModelAtomics::fence(std::memory_order_seq_cst);
      put(st->saw_y0, st->y.load(std::memory_order_relaxed) == 0 ? 1 : 0);
    });
    sim.thread("t2", [st] {
      st->y.store(1, std::memory_order_relaxed);
      ModelAtomics::fence(std::memory_order_seq_cst);
      put(st->saw_x0, st->x.load(std::memory_order_relaxed) == 0 ? 1 : 0);
    });
    sim.invariant([st] {
      require(!(take(st->saw_x0) == 1 && take(st->saw_y0) == 1),
              "both sides read 0: seq_cst total order violated");
    });
  };
  const Result r = run(scenario, Mode::kDfs, 200000, -1);
  EXPECT_FALSE(r.failed) << describe_failure(r, "store_buffering");
  EXPECT_TRUE(r.exhausted);
}

// ABBA lock ordering: some schedule must deadlock, and the checker's
// report must say which threads are stuck where.
TEST(ModelChecker, FlagsAbbaDeadlock) {
  auto scenario = [](Sim& sim) {
    struct State {
      Mutex a, b;
    };
    auto st = std::make_shared<State>();
    sim.thread("t1", [st] {
      st->a.lock();
      st->b.lock();
      st->b.unlock();
      st->a.unlock();
    });
    sim.thread("t2", [st] {
      st->b.lock();
      st->a.lock();
      st->a.unlock();
      st->b.unlock();
    });
  };
  const Result r = run(scenario, Mode::kDfs, 10000, -1);
  ASSERT_TRUE(r.failed) << "ABBA ordering must deadlock in some schedule";
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
  EXPECT_FALSE(r.replay_token.empty());
}

// ---- production structures: bounded-exhaustive ------------------------------

// The acceptance configuration: 2 producers / 1 consumer through a
// capacity-2 ring (overflow spill included), every schedule with at most
// one preemption. ~16k schedules, ~1s.
TEST(ModelExhaustive, RingFifoSmall) {
  const Result r = run_named("ring_fifo_small", Mode::kDfs, 3000000, 1);
  EXPECT_FALSE(r.failed) << describe_failure(r, "ring_fifo_small");
  EXPECT_TRUE(r.exhausted) << "DFS budget too small: " << r.schedules;
}

// Lost-wakeup handshake, preemption bound 2: a few hundred schedules.
TEST(ModelExhaustive, WaiterGate) {
  const Result r = run_named("waiter_gate", Mode::kDfs, 3000000, 2);
  EXPECT_FALSE(r.failed) << describe_failure(r, "waiter_gate");
  EXPECT_TRUE(r.exhausted) << "DFS budget too small: " << r.schedules;
}

// Arena slab retire vs lock-free releases, preemption bound 2.
TEST(ModelExhaustive, SlabGate) {
  const Result r = run_named("slab_gate", Mode::kDfs, 3000000, 2);
  EXPECT_FALSE(r.failed) << describe_failure(r, "slab_gate");
  EXPECT_TRUE(r.exhausted) << "DFS budget too small: " << r.schedules;
}

// The deep tier the CI model job runs (RTM_MODEL_DEEP=1): preemption
// bound 2 on the acceptance config, and bound 1 on the overflow-heavy,
// exact-envelope and targeted-wakeup (~190k schedules) configs. Minutes of
// wall clock, so skipped by default.
TEST(ModelExhaustive, DeepConfigs) {
  if (env_u64("RTM_MODEL_DEEP", 0) == 0) {
    GTEST_SKIP() << "set RTM_MODEL_DEEP=1 for the deep exhaustive tier";
  }
  struct Config {
    const char* name;
    int preemptions;
  };
  for (const Config& c :
       {Config{"ring_fifo_small", 2}, Config{"mailbox_overflow", 1},
        Config{"ring_exact", 1}, Config{"targeted_wakeup", 1}}) {
    const Result r = run_named(c.name, Mode::kDfs, 3000000, c.preemptions);
    EXPECT_FALSE(r.failed) << describe_failure(r, c.name);
    EXPECT_TRUE(r.exhausted)
        << c.name << ": DFS budget too small: " << r.schedules;
  }
}

// ---- production structures: seeded random walks -----------------------------

// All scenarios, RTM_MODEL_SCHEDULES random schedules each (default
// 20000 x 6 = 120k total). Unbounded preemptions; stale-read choices and
// preemption points sampled with a bias toward the SC-like default.
TEST(ModelRandom, AllScenarios) {
  const std::uint64_t budget = env_u64("RTM_MODEL_SCHEDULES", 20000);
  for (const scenarios::Named& sc : scenarios::all()) {
    const Result r = run(sc.fn, Mode::kRandom, budget, -1);
    EXPECT_FALSE(r.failed) << describe_failure(r, sc.name);
    EXPECT_EQ(r.schedules, budget) << sc.name;
  }
}

}  // namespace
}  // namespace reptile::rtm::model
