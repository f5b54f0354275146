// Differential fuzz for parallel::ChunkCache against std::unordered_map.
//
// The chunk cache answers every remote lookup of a wavefront chunk: a
// wrong hit changes a correction, a lost entry turns into a scalar round
// trip, and a wrong size() moves the prefetch_capacity cut-off. Each test
// runs several "chunks" of seeded add / add_absent / find operations, with
// a clear() between chunks, and checks the cache against the model after
// every operation, including its bytes against the remote_cache ledger
// account.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "hash/hashing.hpp"
#include "obs/ledger.hpp"
#include "parallel/chunk_cache.hpp"
#include "rtm_test_seed.hpp"

namespace reptile::parallel {
namespace {

const bool kSeedReporter =
    rtm_test::install_seed_reporter("test_chunk_cache");

using obs::LedgerAccount;
using obs::ResourceLedger;

/// One model per kind: cached ID -> count (0 = cached absence).
using Model = std::unordered_map<std::uint64_t, std::uint32_t>;

std::uint64_t remote_cache_balance() {
  return ResourceLedger::global().bytes(LedgerAccount::kRemoteCache);
}

struct ChunkCacheFuzz : ::testing::Test {
  void SetUp() override { ResourceLedger::global().configure(true); }
  void TearDown() override { ResourceLedger::global().configure(false); }
};

/// Fills one chunk with `ops` random operations over IDs below `id_space`
/// (plus ID 0, the one whose mixed key is 0), checking every step.
void fuzz_chunk(ChunkCache& cache, Model (&model)[2], std::mt19937_64& rng,
                std::size_t ops, std::uint64_t id_space) {
  const auto random_id = [&]() -> std::uint64_t {
    return rng() % 16 == 0 ? 0 : rng() % id_space;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t id = random_id();
    const LookupKind kind = rng() % 2 == 0 ? LookupKind::kKmer
                                           : LookupKind::kTile;
    Model& m = model[kind == LookupKind::kKmer ? 0 : 1];
    const auto roll = rng() % 100;
    if (roll < 30) {
      // Filing only IDs not cached yet, as the view does.
      if (m.count(id) == 0) {
        const auto count = static_cast<std::uint32_t>(rng() % 4 == 0
                                                          ? 0
                                                          : 1 + rng() % 50);
        cache.add(id, kind, count);
        m[id] = count;
      }
    } else if (roll < 60) {
      if (m.count(id) == 0) {
        cache.add_absent(id, kind);
        m[id] = 0;
      }
    } else {
      const auto it = m.find(id);
      const auto found = cache.find(id, kind);
      ASSERT_EQ(found.has_value(), it != m.end()) << "id " << id;
      if (found) {
        EXPECT_EQ(*found, it->second) << "id " << id;
      }
    }
    ASSERT_EQ(cache.size(), model[0].size() + model[1].size());
    ASSERT_EQ(cache.memory_bytes(), remote_cache_balance());
  }
  for (std::size_t k = 0; k < 2; ++k) {
    const LookupKind kind = k == 0 ? LookupKind::kKmer : LookupKind::kTile;
    for (const auto& [id, count] : model[k]) {
      const auto found = cache.find(id, kind);
      ASSERT_TRUE(found.has_value()) << "id " << id << " lost";
      EXPECT_EQ(*found, count) << "id " << id;
    }
  }
}

TEST_F(ChunkCacheFuzz, MatchesModelAcrossChunks) {
  ASSERT_EQ(hash::mix64(0), 0u) << "ID 0 is no longer the zero key";
  std::mt19937_64 rng(rtm_test::derive(16));
  ChunkCache cache;
  for (const std::uint64_t id_space : {64u, 4096u, 1u << 20}) {
    for (int chunk = 0; chunk < 4; ++chunk) {
      Model model[2];
      fuzz_chunk(cache, model, rng, 6000, id_space);
      const std::size_t bytes = cache.memory_bytes();
      cache.clear();
      EXPECT_EQ(cache.size(), 0u);
      EXPECT_EQ(cache.memory_bytes(), bytes) << "clear() released capacity";
      EXPECT_EQ(remote_cache_balance(), bytes);
      for (std::size_t k = 0; k < 2; ++k) {
        const LookupKind kind = k == 0 ? LookupKind::kKmer : LookupKind::kTile;
        for (const auto& entry : model[k]) {
          EXPECT_FALSE(cache.find(entry.first, kind).has_value())
              << "id " << entry.first << " survived clear()";
        }
      }
    }
  }
}

TEST_F(ChunkCacheFuzz, RefillAfterClearKeepsTheSlots) {
  // The same chunk again after clear(): no growth, so the ledger balance
  // stays where the first fill left it.
  std::mt19937_64 rng(rtm_test::derive(17));
  std::vector<std::uint64_t> ids(25000);
  for (auto& id : ids) id = rng();
  ids[1] = 0;  // an absent tile
  ChunkCache cache;
  std::size_t bytes = 0;
  for (int chunk = 0; chunk < 3; ++chunk) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const LookupKind kind = i % 3 == 0 ? LookupKind::kKmer
                                         : LookupKind::kTile;
      if (i % 7 == 0) {
        cache.add(ids[i], kind, static_cast<std::uint32_t>(1 + i % 9));
      } else {
        cache.add_absent(ids[i], kind);
      }
    }
    ASSERT_EQ(cache.size(), ids.size());
    ASSERT_EQ(cache.memory_bytes(), remote_cache_balance());
    if (chunk == 0) bytes = cache.memory_bytes();
    EXPECT_EQ(cache.memory_bytes(), bytes) << "chunk " << chunk;
    EXPECT_EQ(cache.find(0, LookupKind::kTile), 0u);
    EXPECT_FALSE(cache.find(0, LookupKind::kKmer).has_value());
    cache.clear();
  }
  EXPECT_EQ(remote_cache_balance(), bytes);
}

TEST_F(ChunkCacheFuzz, DestroyingTheCacheReleasesItsBytes) {
  {
    ChunkCache cache;
    for (std::uint64_t id = 0; id < 1000; ++id) {
      cache.add_absent(id, LookupKind::kTile);
      cache.add(id, LookupKind::kKmer, 2);
    }
    EXPECT_GT(remote_cache_balance(), 0u);
    EXPECT_EQ(cache.memory_bytes(), remote_cache_balance());
  }
  EXPECT_EQ(remote_cache_balance(), 0u);
}

}  // namespace
}  // namespace reptile::parallel
