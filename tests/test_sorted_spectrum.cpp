// Unit tests: the prior art's spectrum stores — sorted arrays and the
// cache-aware (B+1)-ary layout — checked against the frozen hash tables this
// paper keeps the spectrum in.
#include "hash/sorted_spectrum.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/spectrum.hpp"
#include "seq/dataset.hpp"
#include "seq/rng.hpp"

namespace reptile::hash {
namespace {

std::vector<std::pair<std::uint64_t, std::uint32_t>> random_entries(
    std::size_t n, std::uint64_t seed, std::uint64_t key_space = ~0ull) {
  seq::Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(key_space == ~0ull ? rng.next() : rng.below(key_space),
                     static_cast<std::uint32_t>(1 + rng.below(100)));
  }
  return out;
}

TEST(SortedCountArray, FindsEveryInsertedKey) {
  const auto entries = random_entries(5000, 1);
  std::map<std::uint64_t, std::uint64_t> reference;
  for (const auto& [k, c] : entries) reference[k] += c;
  const auto arr = SortedCountArray::from_entries(entries);
  EXPECT_EQ(arr.size(), reference.size());
  for (const auto& [k, c] : reference) {
    ASSERT_EQ(arr.find(k), static_cast<std::uint32_t>(c)) << k;
  }
}

TEST(SortedCountArray, MissesAbsentKeys) {
  const auto arr = SortedCountArray::from_entries(random_entries(1000, 2));
  seq::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t probe = rng.next();
    if (!arr.find(probe)) SUCCEED();
  }
  EXPECT_FALSE(SortedCountArray{}.find(42));
}

TEST(SortedCountArray, KeysAreSortedAscending) {
  const auto arr = SortedCountArray::from_entries(random_entries(2000, 4));
  for (std::size_t i = 1; i < arr.keys().size(); ++i) {
    ASSERT_LT(arr.keys()[i - 1], arr.keys()[i]);
  }
}

TEST(SortedCountArray, DuplicateKeysMerge) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries = {
      {5, 2}, {5, 3}, {7, 1}, {5, 10}};
  const auto arr = SortedCountArray::from_entries(entries);
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.find(5), 15u);
  EXPECT_EQ(arr.find(7), 1u);
}

class CacheAwareProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheAwareProperty, AgreesWithSortedArray) {
  const std::size_t n = GetParam();
  const auto entries = random_entries(n, 10 + n);
  const auto sorted = SortedCountArray::from_entries(entries);
  const auto cache = CacheAwareCountArray::from_sorted(sorted);
  EXPECT_EQ(cache.size(), sorted.size());
  // Every key present with the same count.
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(cache.find(sorted.keys()[i]), sorted.counts()[i])
        << "n=" << n << " i=" << i;
  }
  // Absent keys miss.
  seq::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t probe = rng.next();
    EXPECT_EQ(cache.find(probe).has_value(), sorted.find(probe).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheAwareProperty,
                         ::testing::Values(0, 1, 7, 8, 9, 63, 64, 65, 511,
                                           4096, 50000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(CacheAwareCountArray, HandlesMaxSentinelKeyAsRealEntry) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries = {
      {~std::uint64_t{0}, 7}, {1, 2}, {2, 3}};
  const auto cache = CacheAwareCountArray::from_entries(entries);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.find(~std::uint64_t{0}), 7u);
  EXPECT_EQ(cache.find(1), 2u);
  // And the sentinel is not reported present when absent.
  const auto without = CacheAwareCountArray::from_entries(
      {{1, 2}, {2, 3}});
  EXPECT_FALSE(without.find(~std::uint64_t{0}));
}

TEST(CacheAwareCountArray, BlocksAreCacheLineSized) {
  static_assert(CacheAwareCountArray::kBlock * sizeof(std::uint64_t) == 64,
                "one block of keys = one cache line");
  const auto cache = CacheAwareCountArray::from_entries(random_entries(100, 5));
  EXPECT_EQ(cache.blocks(), (100 + 7) / 8u);
}

}  // namespace
}  // namespace reptile::hash

namespace reptile::core {
namespace {

TEST(SpectrumLayouts, AllBackendsAnswerIdentically) {
  CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  seq::DatasetSpec spec{"fz", 800, 60, 1500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.012;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 77);

  LocalSpectrum live(p);
  for (const auto& r : ds.reads) live.add_read(r.bases);
  live.prune();

  // The same pruned spectrum in the prior art's two layouts answers every
  // live entry, and every neighbor, exactly as the hash table does.
  for (const hash::CountTable<>* table : {&live.kmers(), &live.tiles()}) {
    const auto sorted = hash::SortedCountArray::from_entries(table->entries());
    const auto cache =
        hash::CacheAwareCountArray::from_entries(table->entries());
    table->for_each([&](std::uint64_t id, std::uint32_t c) {
      ASSERT_EQ(sorted.find(id), c);
      ASSERT_EQ(cache.find(id), c);
      const std::uint64_t probe = id ^ 0x5;
      const auto expect = table->find(probe);
      ASSERT_EQ(sorted.find(probe), expect);
      ASSERT_EQ(cache.find(probe), expect);
    });
  }
}

TEST(SpectrumLayouts, PriorArtLayoutsAreDenser) {
  CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  seq::DatasetSpec spec{"fz3", 1000, 60, 2000};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 79);
  LocalSpectrum live(p);
  for (const auto& r : ds.reads) live.add_read(r.bases);
  live.prune();

  // Pruning leaves the tables at the frozen sizing (load <= 1/2).
  ASSERT_EQ(live.kmers().capacity(),
            hash::CountTable<>::frozen_capacity(live.kmer_entries()));
  ASSERT_EQ(live.tiles().capacity(),
            hash::CountTable<>::frozen_capacity(live.tile_entries()));
  const std::size_t hash_bytes =
      live.kmers().memory_bytes() + live.tiles().memory_bytes();
  const std::size_t sorted_bytes =
      hash::SortedCountArray::from_entries(live.kmers().entries())
          .memory_bytes() +
      hash::SortedCountArray::from_entries(live.tiles().entries())
          .memory_bytes();
  // Sorted arrays carry no empty slots; the hash table holds load-factor
  // headroom (the prior art's memory advantage, which the paper trades for
  // lookup speed and in-place construction).
  EXPECT_LT(sorted_bytes, hash_bytes);
}

}  // namespace
}  // namespace reptile::core
