// Property tests for the blocked Bloom filter behind the filter exchange
// (hash::OwnerFilter, DESIGN.md §9). The load-bearing properties, in order
// of how badly their failure would hurt:
//   1. zero false negatives — a false negative answers "absent" for an ID
//      the owner actually holds, silently miscorrecting reads;
//   2. measured FP rate within 2x the configured one — an inflated rate
//      quietly erases the traffic savings the exchange pays for;
//   3. byte-exact serialize/deserialize round trip with every-prefix
//      truncation rejection — the filter crosses the chaos-injected wire,
//      so a garbled buffer must throw (and be discarded), never decode to
//      a filter that answers differently than the one the owner built.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <unordered_set>
#include <vector>

#include "hash/count_table.hpp"
#include "hash/owner_filter.hpp"
#include "rtm_test_seed.hpp"

namespace reptile::hash {
namespace {

const bool kSeedReporter = rtm_test::install_seed_reporter("test_owner_filter");

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(rtm_test::derive(seed));
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    const std::uint64_t k = rng();
    if (seen.insert(k).second) keys.push_back(k);
  }
  return keys;
}

TEST(OwnerFilter, ZeroFalseNegatives) {
  // The one property the correction proof leans on: every inserted key
  // answers "possibly present", at every size and configured rate.
  for (const std::size_t n : {1u, 100u, 5000u, 60000u}) {
    for (const double fp : {0.001, 0.01, 0.2}) {
      const auto keys = random_keys(n, 11 + n);
      OwnerFilter f(n, fp);
      for (const auto k : keys) f.insert(k);
      EXPECT_EQ(f.key_count(), n);
      for (const auto k : keys) {
        ASSERT_TRUE(f.possibly_contains(k))
            << "false negative at n=" << n << " fp=" << fp << " key=" << k;
      }
    }
  }
}

TEST(OwnerFilter, SmallPackedIdsNeverFalseNegative) {
  // k-mer IDs are small dense integers (2 bits/base), not well-mixed
  // 64-bit words — the regime where a weak probe derivation would cluster.
  OwnerFilter f(1 << 16, 0.01);
  for (std::uint64_t id = 0; id < (1u << 16); ++id) f.insert(id);
  for (std::uint64_t id = 0; id < (1u << 16); ++id) {
    ASSERT_TRUE(f.possibly_contains(id)) << "id " << id;
  }
}

TEST(OwnerFilter, MeasuredFpRateWithinTwiceConfigured) {
  // 2x headroom covers the blocked-layout inflation the sizing already
  // compensates for plus sampling noise at 200k probes.
  for (const double fp : {0.005, 0.01, 0.05}) {
    const std::size_t n = 50000;
    const auto keys = random_keys(n, 23);
    std::unordered_set<std::uint64_t> inserted(keys.begin(), keys.end());
    OwnerFilter f(n, fp);
    for (const auto k : keys) f.insert(k);

    std::mt19937_64 rng(rtm_test::derive(29));
    const std::size_t probes = 200000;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      std::uint64_t k = rng();
      while (inserted.count(k) != 0) k = rng();
      hits += f.possibly_contains(k) ? 1 : 0;
    }
    const double measured =
        static_cast<double>(hits) / static_cast<double>(probes);
    EXPECT_LE(measured, 2.0 * fp)
        << "configured " << fp << " measured " << measured;
    // Sizing sanity from the other side: a healthy filter is not so
    // overbuilt that the rate collapses to zero (fill stays meaningful).
    EXPECT_GT(f.fill_ratio(), 0.05);
    EXPECT_LT(f.fill_ratio(), 0.6);
  }
}

TEST(OwnerFilter, OwnedSetKeyKeepsFpRateOverOneRanksIds) {
  // A filter over the IDs one rank owns, sized so every tested np divides
  // the block count: raw IDs would crowd into 1/np of the blocks (owner and
  // block both reduce mix64), owned_set_key spreads them over all of them.
  const double fp = 0.03;
  std::size_t n = 40000;
  while (OwnerFilter(n, fp).block_count() % 16 != 0) ++n;
  std::mt19937_64 rng(rtm_test::derive(67));
  for (const int np : {2, 4, 16}) {
    const auto owned_id = [&] {
      std::uint64_t k = rng();
      while (owner_of(k, np) != np - 1) k = rng();
      return k;
    };
    std::unordered_set<std::uint64_t> inserted;
    OwnerFilter f(n, fp);
    while (inserted.size() < n) {
      const std::uint64_t k = owned_id();
      if (inserted.insert(k).second) f.insert(owned_set_key(k));
    }
    const std::size_t probes = 100000;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      std::uint64_t k = owned_id();
      while (inserted.count(k) != 0) k = owned_id();
      hits += f.possibly_contains(owned_set_key(k)) ? 1 : 0;
    }
    const double measured =
        static_cast<double>(hits) / static_cast<double>(probes);
    EXPECT_LE(measured, 2.0 * fp) << "np " << np << " measured " << measured;
  }
}

TEST(OwnerFilter, BuildFromCountTableCoversEveryKey) {
  std::mt19937_64 rng(rtm_test::derive(37));
  CountTable<> table;
  for (int i = 0; i < 20000; ++i) {
    table.increment(rng() % 30000, static_cast<std::uint32_t>(1 + rng() % 5));
  }
  const OwnerFilter f = OwnerFilter::build_from(table, 0.01);
  EXPECT_EQ(f.key_count(), table.size());
  table.for_each([&](std::uint64_t id, std::uint32_t) {
    ASSERT_TRUE(f.possibly_contains(owned_set_key(id))) << "table key " << id;
  });
}

TEST(OwnerFilter, SerializeRoundTripIsByteExact) {
  for (const std::size_t n : {0u, 1u, 777u, 20000u}) {
    const auto keys = random_keys(n, 41 + n);
    OwnerFilter f(n, 0.01);
    for (const auto k : keys) f.insert(k);

    const std::vector<std::uint8_t> bytes = f.serialize();
    ASSERT_EQ(bytes.size(), f.wire_bytes());
    const OwnerFilter back = OwnerFilter::deserialize(std::as_bytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size())));

    // Byte-for-byte: re-serializing the decoded filter reproduces the
    // original buffer exactly, so the wire format is a total encoding of
    // the filter's state.
    EXPECT_EQ(back.serialize(), bytes);
    EXPECT_EQ(back.block_count(), f.block_count());
    EXPECT_EQ(back.hash_count(), f.hash_count());
    EXPECT_EQ(back.key_count(), f.key_count());
    EXPECT_EQ(back.memory_bytes(), f.memory_bytes());
    // And behaviourally identical on both members and non-members.
    for (const auto k : keys) EXPECT_TRUE(back.possibly_contains(k));
    std::mt19937_64 rng(rtm_test::derive(43));
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t k = rng();
      EXPECT_EQ(back.possibly_contains(k), f.possibly_contains(k));
    }
  }
}

TEST(OwnerFilter, SerializeIntoMatchesSerialize) {
  const auto keys = random_keys(300, 47);
  OwnerFilter f(300, 0.01);
  for (const auto k : keys) f.insert(k);
  std::vector<std::byte> buf(f.wire_bytes());
  f.serialize_into(buf.data());
  const auto expected = f.serialize();
  ASSERT_EQ(buf.size(), expected.size());
  EXPECT_EQ(std::memcmp(buf.data(), expected.data(), buf.size()), 0);
}

TEST(OwnerFilter, DeserializeRejectsEveryTruncation) {
  // The chaos injector truncates payloads to arbitrary prefixes: every
  // strict prefix must throw (test_wire_roundtrip.cpp idiom), as must a
  // buffer with trailing garbage.
  OwnerFilter f(500, 0.01);
  for (const auto k : random_keys(500, 53)) f.insert(k);
  std::vector<std::uint8_t> bytes = f.serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(OwnerFilter::deserialize(std::as_bytes(
                     std::span<const std::uint8_t>(bytes.data(), len))),
                 std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
  bytes.push_back(0);
  EXPECT_THROW(OwnerFilter::deserialize(std::as_bytes(
                   std::span<const std::uint8_t>(bytes.data(), bytes.size()))),
               std::runtime_error);
}

TEST(OwnerFilter, DeserializeRejectsGarbledHeaders) {
  OwnerFilter f(100, 0.01);
  for (const auto k : random_keys(100, 59)) f.insert(k);
  const std::vector<std::uint8_t> good = f.serialize();
  const auto decode = [](std::vector<std::uint8_t> bytes) {
    return OwnerFilter::deserialize(std::as_bytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size())));
  };

  auto bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode(bad), std::runtime_error);

  bad = good;
  bad[4] = 99;  // version
  EXPECT_THROW(decode(bad), std::runtime_error);

  bad = good;
  bad[8] = 0;  // nhashes = 0
  EXPECT_THROW(decode(bad), std::runtime_error);
  bad[8] = 200;  // nhashes beyond the max
  EXPECT_THROW(decode(bad), std::runtime_error);

  bad = good;
  std::uint64_t nblocks = 0;  // nblocks = 0 with a non-empty body
  std::memcpy(bad.data() + 16, &nblocks, sizeof(nblocks));
  EXPECT_THROW(decode(bad), std::runtime_error);
  nblocks = ~std::uint64_t{0};  // absurd block count
  std::memcpy(bad.data() + 16, &nblocks, sizeof(nblocks));
  EXPECT_THROW(decode(bad), std::runtime_error);

  // The untouched buffer still decodes — the rejections above are the
  // header checks, not some blanket failure.
  EXPECT_NO_THROW(decode(good));
}

TEST(OwnerFilter, SizingAndAccounting) {
  EXPECT_THROW(OwnerFilter(100, 0.0), std::invalid_argument);
  EXPECT_THROW(OwnerFilter(100, 1.0), std::invalid_argument);
  EXPECT_THROW(OwnerFilter(100, -0.5), std::invalid_argument);

  // memory_bytes is exactly the block array; wire adds one 32-byte header.
  OwnerFilter f(10000, 0.01);
  EXPECT_EQ(f.memory_bytes(),
            f.block_count() * OwnerFilter::kBlockWords * sizeof(std::uint64_t));
  EXPECT_EQ(f.wire_bytes(), f.memory_bytes() + 32);
  EXPECT_GE(f.hash_count(), 1);
  EXPECT_LE(f.hash_count(), 16);

  // A tighter target rate buys a bigger filter; an empty filter is legal
  // and answers nothing as present.
  EXPECT_GT(OwnerFilter(10000, 0.001).memory_bytes(),
            OwnerFilter(10000, 0.05).memory_bytes());
  OwnerFilter empty(0, 0.01);
  std::mt19937_64 rng(rtm_test::derive(61));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(empty.possibly_contains(rng()));
  }
}

TEST(OwnerFilter, SizingByBytesFitsTheBudget) {
  // fp_rate_for_bytes inverts the sizing rule at whole blocks: a filter
  // built at that rate takes at most the budget, a tighter budget costs a
  // higher rate, and a budget below one block allows no filter at all.
  for (const std::size_t n : {1u, 37u, 1000u, 250000u}) {
    double last = 0;
    for (std::size_t budget = 64; budget <= (std::size_t{1} << 22);
         budget = budget * 3 / 2 + 1) {
      const double rate = OwnerFilter::fp_rate_for_bytes(n, budget);
      ASSERT_GT(rate, 0.0);
      ASSERT_LE(rate, 1.0);
      if (last > 0) {
        EXPECT_LE(rate, last) << "n=" << n << " budget=" << budget;
      }
      last = rate;
      if (rate < 1e-6) break;  // far below any configured rate
      EXPECT_LE(OwnerFilter(n, rate).memory_bytes(), budget)
          << "n=" << n << " budget=" << budget << " rate=" << rate;
    }
    EXPECT_EQ(OwnerFilter::fp_rate_for_bytes(n, 63), 1.0);
    EXPECT_EQ(OwnerFilter::fp_rate_for_bytes(n, 0), 1.0);
  }
  EXPECT_NEAR(OwnerFilter::fp_rate_at(OwnerFilter::bits_per_key(0.01)), 0.01,
              1e-12);
}

TEST(OwnerFilter, CappedRateHoldsWithinTwice) {
  // A filter the byte cap squeezes runs at the rate fp_rate_for_bytes
  // names, which the property tests bound like a configured one.
  const std::size_t n = 20000;
  const auto keys = random_keys(n, 67);
  std::unordered_set<std::uint64_t> inserted(keys.begin(), keys.end());
  for (const std::size_t bits_per_key : {2u, 4u, 8u}) {
    const double rate =
        OwnerFilter::fp_rate_for_bytes(n, n * bits_per_key / 8);
    OwnerFilter f(n, rate);
    for (const auto k : keys) f.insert(k);
    std::mt19937_64 rng(rtm_test::derive(71));
    const std::size_t probes = 100000;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      std::uint64_t k = rng();
      while (inserted.count(k) != 0) k = rng();
      hits += f.possibly_contains(k) ? 1 : 0;
    }
    EXPECT_LE(static_cast<double>(hits) / probes, 2.0 * rate)
        << bits_per_key << " bits a key, capped rate " << rate;
  }
}

}  // namespace
}  // namespace reptile::hash
