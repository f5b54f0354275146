// Differential fuzz for hash::CountTable against std::unordered_map.
//
// The control-byte group table (SIMD tag probing, empty-or-tombstone
// deletion, in-place tombstone rebuilds, saturating counts, exact memory
// accounting) backs every spectrum — and, since the filter exchange, the
// owner filters are built straight from it. A silent divergence here
// corrupts corrections AND filters, so the table is fuzzed op-for-op
// against the STL map under the seeded-schedule regime of rtm_test_seed.hpp
// (RTM_TEST_SEED re-rolls the op streams; failures print a one-line replay
// command).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include "hash/count_table.hpp"
#include "rtm_test_seed.hpp"

namespace reptile::hash {
namespace {

const bool kSeedReporter =
    rtm_test::install_seed_reporter("test_count_table_fuzz");

using Model = std::unordered_map<std::uint64_t, std::uint32_t>;

constexpr std::uint32_t kCountMax = std::numeric_limits<std::uint32_t>::max();

/// Mirrors CountTable's saturating add in the reference model.
void model_increment(Model& model, std::uint64_t key, std::uint32_t delta) {
  std::uint32_t& c = model[key];
  c = (delta < kCountMax - c) ? c + delta : kCountMax;
}

/// Exhaustive bidirectional comparison: same size, every model entry
/// findable with an equal count, every iterated entry present in the model.
template <class Table>
void expect_matches(const Table& table, const Model& model) {
  ASSERT_EQ(table.size(), model.size());
  for (const auto& [key, count] : model) {
    const auto found = table.find(key);
    ASSERT_TRUE(found.has_value()) << "key " << key << " lost";
    EXPECT_EQ(*found, count) << "key " << key;
  }
  std::size_t iterated = 0;
  table.for_each([&](std::uint64_t key, std::uint32_t count) {
    ++iterated;
    const auto it = model.find(key);
    ASSERT_NE(it, model.end()) << "stray key " << key;
    EXPECT_EQ(count, it->second) << "key " << key;
  });
  EXPECT_EQ(iterated, model.size());
}

/// Runs `ops` random operations over `key_space` possible keys, checking
/// the table against the model continuously (point checks per op, full
/// sweep periodically). Small key spaces force re-increment and
/// erase/re-insert churn; wide ones force growth.
void fuzz_against_model(std::uint64_t seed, std::size_t ops,
                        std::uint64_t key_space, bool allow_prune) {
  std::mt19937_64 rng(rtm_test::derive(seed));
  CountTable<> table;
  Model model;
  const auto random_key = [&] {
    // Spread draws over the full 64-bit range so ownership of the low bits
    // is not special; modulo keeps the space bounded.
    return rng() % key_space;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t before = table.memory_bytes();
    const auto roll = rng() % 100;
    if (roll < 55) {
      const std::uint64_t key = random_key();
      const std::uint32_t delta =
          static_cast<std::uint32_t>(1 + rng() % 9);
      const std::uint32_t got = table.increment(key, delta);
      model_increment(model, key, delta);
      EXPECT_EQ(got, model[key]);
    } else if (roll < 75) {
      const std::uint64_t key = random_key();
      EXPECT_EQ(table.erase(key), model.erase(key) == 1);
    } else if (roll < 90) {
      const std::uint64_t key = random_key();
      const auto it = model.find(key);
      const auto found = table.find(key);
      EXPECT_EQ(found.has_value(), it != model.end());
      if (found && it != model.end()) EXPECT_EQ(*found, it->second);
      EXPECT_EQ(table.contains(key), it != model.end());
    } else if (roll < 97 || !allow_prune) {
      // Saturation probe: a near-max delta must clamp, not wrap.
      const std::uint64_t key = random_key();
      const std::uint32_t got = table.increment(key, kCountMax - 3);
      model_increment(model, key, kCountMax - 3);
      EXPECT_EQ(got, model[key]);
    } else {
      const std::uint32_t threshold =
          static_cast<std::uint32_t>(1 + rng() % 4);
      const std::size_t removed = table.prune_below(threshold);
      std::size_t model_removed = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second < threshold) {
          it = model.erase(it);
          ++model_removed;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(removed, model_removed);
    }
    // memory_bytes() only moves on rehash (growth) or a prune rebuild;
    // increment/erase/find must never shrink the footprint.
    if (roll < 97 || !allow_prune) {
      EXPECT_GE(table.memory_bytes(), before);
    }
    if (op % 256 == 255) expect_matches(table, model);
  }
  expect_matches(table, model);
}

TEST(CountTableFuzz, DifferentialSmallKeySpace) {
  // 48 possible keys: every key is re-incremented, erased, and re-inserted
  // many times, hammering the deletion path.
  fuzz_against_model(/*seed=*/101, /*ops=*/6000, /*key_space=*/48,
                     /*allow_prune=*/false);
}

TEST(CountTableFuzz, DifferentialSmallKeySpaceWithPrune) {
  fuzz_against_model(/*seed=*/102, /*ops=*/6000, /*key_space=*/48,
                     /*allow_prune=*/true);
}

TEST(CountTableFuzz, DifferentialMediumKeySpace) {
  // ~4k keys at ~6k ops: the table crosses several load-factor rehashes
  // while still seeing collisions and erases.
  fuzz_against_model(/*seed=*/103, /*ops=*/6000, /*key_space=*/4096,
                     /*allow_prune=*/true);
}

TEST(CountTableFuzz, DifferentialWideKeys) {
  // Effectively unique 64-bit keys: pure growth plus absent-key probes.
  fuzz_against_model(/*seed=*/104, /*ops=*/4000,
                     /*key_space=*/~std::uint64_t{0},
                     /*allow_prune=*/true);
}

TEST(CountTableFuzz, MemoryBytesExactAndMonotoneUnderInsertion) {
  std::mt19937_64 rng(rtm_test::derive(105));
  CountTable<> table;
  std::size_t previous = table.memory_bytes();
  for (int i = 0; i < 20000; ++i) {
    table.increment(rng());
    const std::size_t now = table.memory_bytes();
    // Exact accounting: key + count + control byte per slot, nothing hidden.
    EXPECT_EQ(now, table.capacity() * (sizeof(std::uint64_t) +
                                       sizeof(std::uint32_t) +
                                       sizeof(std::uint8_t)));
    EXPECT_GE(now, previous);
    previous = now;
  }
  EXPECT_GT(table.capacity(), 20000u);  // it did grow past the insertions
}

// Identity hash lets the test steer slot placement. The table takes a
// slot's tag from hash bits 57-63 and its home group from bits 7 and up, so
// keys of the form j << 32 (j < 2^25) share tag 0 and home group 0 at every
// capacity up to 2^29 slots.
struct IdentityHash {
  std::size_t operator()(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key);
  }
};

using SteeredTable = CountTable<std::uint32_t, IdentityHash>;

/// A key with tag 0 and home group `group` (< 2^25 groups); `j` tells keys
/// of one group apart.
constexpr std::uint64_t steered_key(std::uint64_t j, std::uint64_t group) {
  return (j << 32) | (group << 7);
}

TEST(CountTableFuzz, SharedTagAndHomeGroupKeysAllFound) {
  // 400 keys in one home group with one tag: every group probe matches
  // every live slot, and the keys spill group after group along the
  // triangular sequence. All must stay findable, and capacity must follow
  // the 7/8 load policy alone — the same sequence as well-spread keys.
  SteeredTable table;
  CountTable<> spread;
  Model model;
  for (std::uint64_t j = 1; j <= 400; ++j) {
    const std::uint64_t key = steered_key(j, 0);
    EXPECT_EQ(table.increment(key), 1u);
    spread.increment(j);
    model_increment(model, key, 1);
    ASSERT_EQ(table.capacity(), spread.capacity()) << "after " << j;
  }
  expect_matches(table, model);
  EXPECT_FALSE(table.contains(steered_key(401, 0)));
}

TEST(CountTableFuzz, FifoChurnAtFixedSizeNeverGrows) {
  // The add_remote pattern: a bounded cache that erases its oldest entry
  // for every insert. Each run of 20 consecutive keys shares a home group
  // (16 slots), so every home group fills and spills. The oldest keys sit
  // in full groups that newer keys no longer start from, so erases leave
  // tombstones that pile up until the in-place rebuild clears them. The
  // live size is fixed, so capacity and the byte bill must never move.
  SteeredTable table;
  Model model;
  std::vector<std::uint64_t> fifo;
  constexpr std::uint64_t kLive = 100;
  for (std::uint64_t j = 0; j < kLive; ++j) {
    fifo.push_back(steered_key(j, j / 20 % 16));
    table.increment(fifo.back(), 1);
    model_increment(model, fifo.back(), 1);
  }
  const std::size_t cap = table.capacity();
  const std::size_t bytes = table.memory_bytes();
  std::size_t oldest = 0;
  for (std::uint64_t j = kLive; j < 20000; ++j) {
    ASSERT_TRUE(table.erase(fifo[oldest]));
    model.erase(fifo[oldest]);
    const std::uint64_t key = steered_key(j, j / 20 % 16);
    fifo[oldest] = key;
    oldest = (oldest + 1) % kLive;
    const auto delta = static_cast<std::uint32_t>(1 + j % 7);
    table.increment(key, delta);
    model_increment(model, key, delta);
    ASSERT_EQ(table.capacity(), cap) << "grew at op " << j;
    ASSERT_EQ(table.memory_bytes(), bytes);
    if (j % 97 == 0) expect_matches(table, model);
  }
  expect_matches(table, model);
}

TEST(CountTableFuzz, EraseFromFullGroupKeepsLaterKeysReachable) {
  // 24 keys with one home group: 16 fill it, 8 probe past it into the next
  // group. Erasing from the full group must leave a tombstone, not an empty
  // slot, or the 8 later keys would become unreachable.
  SteeredTable table(64);
  ASSERT_EQ(table.capacity(), 128u);
  Model model;
  for (std::uint64_t j = 1; j <= 24; ++j) {
    table.increment(steered_key(j, 0), static_cast<std::uint32_t>(j));
    model_increment(model, steered_key(j, 0), static_cast<std::uint32_t>(j));
  }
  for (std::uint64_t j = 1; j <= 16; ++j) {
    ASSERT_TRUE(table.erase(steered_key(j, 0)));
    model.erase(steered_key(j, 0));
    expect_matches(table, model);
    EXPECT_FALSE(table.contains(steered_key(j, 0)));
  }
  // The freed slots are reusable and every key is still counted once.
  for (std::uint64_t j = 1; j <= 16; ++j) {
    table.increment(steered_key(j, 0), 1);
    table.increment(steered_key(j + 16, 0), 1);
    model_increment(model, steered_key(j, 0), 1);
    model_increment(model, steered_key(j + 16, 0), 1);
  }
  expect_matches(table, model);
  EXPECT_EQ(table.capacity(), 128u);
}

TEST(CountTableFuzz, ClearReleasesAndRestarts) {
  std::mt19937_64 rng(rtm_test::derive(107));
  CountTable<> table;
  for (int i = 0; i < 1000; ++i) table.increment(rng() % 512);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.memory_bytes(), 0u);
  EXPECT_FALSE(table.contains(1));
  EXPECT_FALSE(table.erase(1));
  // The cleared table is fully usable again.
  Model model;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng() % 512;
    table.increment(key);
    model_increment(model, key, 1);
  }
  expect_matches(table, model);
}

}  // namespace
}  // namespace reptile::hash
