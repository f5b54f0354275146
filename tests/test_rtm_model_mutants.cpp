// Mutant regression tier (DESIGN.md §8): re-introduce three real
// concurrency bugs behind compile-time + runtime toggles and pin that the
// model checker DETECTS each within a bounded schedule budget — and stays
// clean on the real code in the same binary with the toggles off.
//
//   RTM_MODEL_MUTANT_SPILL_FIFO   — the PR 6 overflow-spill race: the
//       locked push appends to the deque while another producer's claimed
//       ring cell is still unpublished, so a later message overtakes an
//       earlier one on the same (source, tag) stream. Surfaces as a
//       per-stream FIFO invariant violation.
//   RTM_MODEL_MUTANT_RELAXED_SEQ  — the ring's seq publish store weakened
//       to memory_order_relaxed: no happens-before edge to the consumer's
//       acquire, so reading the cell's Message is a data race. x86
//       hardware hides this; the weak-memory simulation must not.
//   RTM_MODEL_MUTANT_SKIP_WAIT_DRAIN — a receiver announces itself as a
//       waiter but parks without draining the ring again: a lock-free push
//       that landed just before the announcement skipped its wakeup, and
//       the receiver sleeps forever. Surfaces as a modeled deadlock.
//
// This binary is compiled as a STANDALONE translation unit with every
// mutant macro defined and deliberately does NOT link reptile_rtm: the
// library's TUs are built without the macros, and mixing the two inline
// definitions of the templated push path would be an ODR violation that
// silently drops the mutant.
#include <gtest/gtest.h>

#include <iostream>

#include "rtm/model/scenarios.hpp"

#ifndef RTM_MODEL_MUTANT_SPILL_FIFO
#error "build this test with -DRTM_MODEL_MUTANT_SPILL_FIFO"
#endif
#ifndef RTM_MODEL_MUTANT_RELAXED_SEQ
#error "build this test with -DRTM_MODEL_MUTANT_RELAXED_SEQ"
#endif
#ifndef RTM_MODEL_MUTANT_SKIP_WAIT_DRAIN
#error "build this test with -DRTM_MODEL_MUTANT_SKIP_WAIT_DRAIN"
#endif

namespace reptile::rtm::model {
namespace {

Result run_named(const char* name, Mode mode, std::uint64_t schedules,
                 int preemptions) {
  const scenarios::Named* sc = scenarios::find(name);
  EXPECT_NE(sc, nullptr) << "unknown scenario " << name;
  Options o;
  o.mode = mode;
  o.max_schedules = schedules;
  o.seed = 7;
  o.max_preemptions = preemptions;
  return explore(o, sc->fn);
}

/// Flips one mutant flag for the duration of a test body.
class MutantFlag {
 public:
  explicit MutantFlag(bool& flag) : flag_(flag) { flag_ = true; }
  ~MutantFlag() { flag_ = false; }

 private:
  bool& flag_;
};

/// A detected mutant must come with a machine-replayable schedule: print
/// it (the satellite contract) and check it actually reproduces.
void check_replayable(const Result& r, const char* scenario) {
  ASSERT_FALSE(r.replay_token.empty());
  std::cout << describe_failure(r, scenario);
  Options o;
  o.mode = Mode::kReplay;
  ASSERT_TRUE(parse_replay(r.replay_token, &o.seed, &o.replay));
  const Result again = explore(o, scenarios::find(scenario)->fn);
  EXPECT_TRUE(again.failed) << "replay token did not reproduce the failure";
  EXPECT_EQ(again.message, r.message);
}

// With every mutant compiled in but switched OFF, the binary must behave
// exactly like the clean one: no false positives.
TEST(MutantsDisabled, AllScenariosClean) {
  for (const scenarios::Named& sc : scenarios::all()) {
    Options o;
    o.mode = Mode::kRandom;
    o.max_schedules = 2000;
    o.seed = 7;
    Result r = explore(o, sc.fn);
    EXPECT_FALSE(r.failed) << describe_failure(r, sc.name);
  }
}

TEST(SpillFifoMutant, RandomWalkDetects) {
  const MutantFlag on(mutants::g_spill_fifo);
  const Result r = run_named("mailbox_overflow", Mode::kRandom, 20000, -1);
  ASSERT_TRUE(r.failed) << "spill mutant survived 20k random schedules";
  EXPECT_NE(r.message.find("FIFO"), std::string::npos) << r.message;
  check_replayable(r, "mailbox_overflow");
}

TEST(SpillFifoMutant, BoundedDfsDetects) {
  const MutantFlag on(mutants::g_spill_fifo);
  // One preemption is enough: park a producer between its ring-cell claim
  // and its seq publish, and the next locked push spills past it.
  const Result r = run_named("ring_fifo_small", Mode::kDfs, 100000, 1);
  ASSERT_TRUE(r.failed) << "spill mutant survived bounded-exhaustive DFS";
  EXPECT_NE(r.message.find("FIFO"), std::string::npos) << r.message;
  check_replayable(r, "ring_fifo_small");
}

TEST(RelaxedSeqMutant, RandomWalkDetects) {
  const MutantFlag on(mutants::g_relaxed_seq_publish);
  const Result r = run_named("ring_exact", Mode::kRandom, 20000, -1);
  ASSERT_TRUE(r.failed) << "relaxed-publish mutant survived 20k schedules";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  check_replayable(r, "ring_exact");
}

TEST(RelaxedSeqMutant, BoundedDfsDetects) {
  const MutantFlag on(mutants::g_relaxed_seq_publish);
  const Result r = run_named("ring_fifo_small", Mode::kDfs, 100000, 1);
  ASSERT_TRUE(r.failed) << "relaxed-publish mutant survived bounded DFS";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  check_replayable(r, "ring_fifo_small");
}

TEST(SkipWaitDrainMutant, RandomWalkDetects) {
  const MutantFlag on(mutants::g_skip_wait_drain);
  const Result r = run_named("targeted_wakeup", Mode::kRandom, 20000, -1);
  ASSERT_TRUE(r.failed) << "skip-drain mutant survived 20k random schedules";
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
  check_replayable(r, "targeted_wakeup");
}

TEST(SkipWaitDrainMutant, BoundedDfsDetects) {
  const MutantFlag on(mutants::g_skip_wait_drain);
  // One preemption is enough: stop a waiter between its last drain and
  // its announcement, and let the pusher publish and find no waiter.
  const Result r = run_named("targeted_wakeup", Mode::kDfs, 100000, 1);
  ASSERT_TRUE(r.failed) << "skip-drain mutant survived bounded DFS";
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
  check_replayable(r, "targeted_wakeup");
}

}  // namespace
}  // namespace reptile::rtm::model
