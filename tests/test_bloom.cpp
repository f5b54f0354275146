// Unit tests: the Bloom filter behind bloom_construction (the paper's Step
// III singleton suppression), hash::OwnerFilter driven through insert().
#include <gtest/gtest.h>

#include <vector>

#include "hash/owner_filter.hpp"
#include "seq/rng.hpp"

namespace reptile::hash {
namespace {

TEST(BloomFilter, InsertReportsPriorPresence) {
  OwnerFilter f(1000, 0.01);
  EXPECT_FALSE(f.insert(42));  // first time: not all bits set
  EXPECT_TRUE(f.insert(42));   // second time: definitely all set
}

TEST(BloomFilter, SingletonSuppressionWorkflow) {
  // Only keys seen twice earn an exact-table entry; singletons cost only
  // filter bits.
  OwnerFilter f(2000, 0.01);
  seq::Rng rng(4);
  std::vector<std::uint64_t> keys(1500);  // the first 500 repeat
  for (auto& k : keys) k = rng.next();
  int admitted = 0;
  for (const auto k : keys) admitted += f.insert(k) ? 1 : 0;
  EXPECT_LT(admitted, 60);  // few false admissions of first sightings
  for (std::size_t i = 0; i < 500; ++i) EXPECT_TRUE(f.insert(keys[i]));
}

}  // namespace
}  // namespace reptile::hash
