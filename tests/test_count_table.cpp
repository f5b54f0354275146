// Unit tests: control-byte group counting table.
#include "hash/count_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "seq/rng.hpp"

namespace reptile::hash {
namespace {

TEST(CountTable, StartsEmpty) {
  CountTable<> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.find(42));
  EXPECT_FALSE(t.contains(42));
}

TEST(CountTable, IncrementInsertsAndAccumulates) {
  CountTable<> t;
  EXPECT_EQ(t.increment(7), 1u);
  EXPECT_EQ(t.increment(7), 2u);
  EXPECT_EQ(t.increment(7, 5), 7u);
  EXPECT_EQ(t.find(7), 7u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CountTable, ZeroKeyIsAValidKey) {
  // Packed "AAAA..." k-mers have ID 0; the table must not treat 0 as a
  // sentinel.
  CountTable<> t;
  EXPECT_EQ(t.increment(0), 1u);
  EXPECT_EQ(t.find(0), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CountTable, InsertWithZeroDeltaRecordsAbsence) {
  // Used by the add-remote heuristic to cache "definitively absent".
  CountTable<> t;
  t.increment(99, 0);
  ASSERT_TRUE(t.find(99).has_value());
  EXPECT_EQ(*t.find(99), 0u);
}

TEST(CountTable, EraseRemovesAndCompacts) {
  CountTable<> t;
  for (std::uint64_t k = 0; k < 100; ++k) t.increment(k, k + 1);
  EXPECT_TRUE(t.erase(50));
  EXPECT_FALSE(t.find(50));
  EXPECT_FALSE(t.erase(50));
  EXPECT_EQ(t.size(), 99u);
  // All other entries still reachable after the slot is freed.
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (k == 50) continue;
    ASSERT_EQ(t.find(k), k + 1) << k;
  }
}

TEST(CountTable, PruneBelowDropsLightEntries) {
  CountTable<> t;
  for (std::uint64_t k = 0; k < 200; ++k) t.increment(k, (k % 5) + 1);
  const std::size_t removed = t.prune_below(3);
  EXPECT_EQ(removed, 80u);  // counts 1 and 2
  EXPECT_EQ(t.size(), 120u);
  t.for_each([](std::uint64_t, std::uint32_t c) { EXPECT_GE(c, 3u); });
}

TEST(CountTable, PruneBelowSizesForSurvivors) {
  // The pruned table must not keep the capacity that held the pruned
  // entries: it is rebuilt at the frozen sizing for the kept count, the
  // smallest power of two >= 2 x survivors (load <= 1/2).
  CountTable<> t;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    t.increment(k, k % 100 == 0 ? 5 : 1);
  }
  EXPECT_EQ(t.prune_below(2), 9900u);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.capacity(), 256u);
  EXPECT_EQ(t.memory_bytes(), 256u * CountTable<>::kSlotBytes);
  for (std::uint64_t k = 0; k < 10000; k += 100) ASSERT_EQ(t.find(k), 5u);
}

TEST(CountTable, FrozenCapacityIsTwiceTheEntriesRoundedUp) {
  using T = CountTable<>;
  EXPECT_EQ(T::frozen_capacity(0), 16u);  // one group at least
  EXPECT_EQ(T::frozen_capacity(8), 16u);
  EXPECT_EQ(T::frozen_capacity(9), 32u);
  EXPECT_EQ(T::frozen_capacity(100), 256u);
  EXPECT_EQ(T::frozen_capacity(128), 256u);
  EXPECT_EQ(T::frozen_capacity(129), 512u);
  EXPECT_EQ(T::frozen_capacity(101010), 262144u);  // the replica tile table
  for (const std::size_t n : {0u, 1u, 15u, 100u, 129u, 5000u}) {
    T t = T::frozen(n);
    EXPECT_EQ(t.capacity(), T::frozen_capacity(n)) << n;
    EXPECT_EQ(t.memory_bytes(), t.capacity() * T::kSlotBytes) << n;
    for (std::uint64_t k = 0; k < n; ++k) t.increment(k * 7919, 2);
    // Filling it to `n` entries never rehashes and keeps load <= 1/2.
    EXPECT_EQ(t.capacity(), T::frozen_capacity(n)) << n;
    EXPECT_LE(2 * t.size(), t.capacity()) << n;
  }
}

TEST(CountTable, FrozenTableGrowsPastSevenEighths) {
  // A frozen table that keeps taking inserts (the add_remote reads table)
  // grows by the 7/8 rule like any other, and keeps every entry.
  auto t = CountTable<>::frozen(100);
  ASSERT_EQ(t.capacity(), 256u);
  for (std::uint64_t k = 0; k < 100; ++k) t.increment(k, 3);
  for (std::uint64_t k = 100; k < 1000; ++k) t.increment(k, 1 + k % 4);
  EXPECT_GT(t.capacity(), 256u);
  EXPECT_LT(t.size() * 8, t.capacity() * 7);
  EXPECT_EQ(t.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(t.find(k), k < 100 ? 3u : 1 + k % 4) << k;
  }
  EXPECT_FALSE(t.contains(1000));
}

TEST(CountTable, GrowsThroughManyInserts) {
  CountTable<> t;
  seq::Rng rng(5);
  std::map<std::uint64_t, std::uint32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(8000);
    ++reference[key];
    t.increment(key);
  }
  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, c] : reference) {
    ASSERT_EQ(t.find(k), c) << k;
  }
}

TEST(CountTable, ForEachVisitsEverythingOnce) {
  CountTable<> t;
  for (std::uint64_t k = 100; k < 400; ++k) t.increment(k, 2);
  std::map<std::uint64_t, int> seen;
  t.for_each([&](std::uint64_t k, std::uint32_t c) {
    EXPECT_EQ(c, 2u);
    ++seen[k];
  });
  EXPECT_EQ(seen.size(), 300u);
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << k;
    EXPECT_GE(k, 100u);
    EXPECT_LT(k, 400u);
  }
}

TEST(CountTable, EntriesMatchesForEach) {
  CountTable<> t;
  for (std::uint64_t k = 0; k < 50; ++k) t.increment(k * 17, k);
  const auto entries = t.entries();
  EXPECT_EQ(entries.size(), t.size());
  for (const auto& [k, c] : entries) {
    EXPECT_EQ(t.find(k), c);
  }
}

TEST(CountTable, ClearReleasesMemory) {
  CountTable<> t;
  for (std::uint64_t k = 0; k < 10000; ++k) t.increment(k);
  EXPECT_GT(t.memory_bytes(), 0u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.memory_bytes(), 0u);
  // Usable again after clear.
  t.increment(3);
  EXPECT_EQ(t.find(3), 1u);
}

TEST(CountTable, CountSaturatesAtMax) {
  CountTable<std::uint8_t> t;
  for (int i = 0; i < 300; ++i) t.increment(1);
  EXPECT_EQ(t.find(1), 255u);
}

TEST(CountTable, MemoryAccountingTracksCapacity) {
  CountTable<> t;
  const std::size_t empty_bytes = t.memory_bytes();
  for (std::uint64_t k = 0; k < 100000; ++k) t.increment(k);
  EXPECT_GT(t.memory_bytes(), empty_bytes);
  // 13 bytes/slot (8 key + 4 count + 1 control), load factor >= ~44%.
  EXPECT_LE(t.memory_bytes(), 100000u * 13u * 3u);
}

TEST(CountTable, EraseRandomizedAgainstReference) {
  CountTable<> t;
  std::map<std::uint64_t, std::uint32_t> reference;
  seq::Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.below(600);
    if (rng.chance(0.3) && !reference.empty()) {
      // Erase a key known to the reference (may or may not exist).
      const std::uint64_t victim = rng.below(600);
      EXPECT_EQ(t.erase(victim), reference.erase(victim) > 0);
    } else {
      ++reference[key];
      t.increment(key);
    }
  }
  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, c] : reference) {
    ASSERT_EQ(t.find(k), c) << k;
  }
}

}  // namespace
}  // namespace reptile::hash
