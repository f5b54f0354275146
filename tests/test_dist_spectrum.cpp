// Integration tests: distributed spectrum construction (Steps II-III).
#include "parallel/dist_spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <span>
#include <string>

#include "core/spectrum.hpp"
#include "seq/dataset.hpp"
#include "seq/rng.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 2;
  p.tile_threshold = 2;
  return p;
}

seq::SyntheticDataset make_dataset(std::uint64_t seed, std::uint64_t n = 600) {
  seq::DatasetSpec spec{"t", n, 50, 1500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.01;
  errors.error_rate_end = 0.02;
  return seq::SyntheticDataset::generate(spec, errors, seed);
}

/// Reference: global (unpruned) counts of `kind` from the sequential
/// extractor.
std::map<std::uint64_t, std::uint32_t> sequential_counts(
    const std::vector<seq::Read>& reads, const core::CorrectorParams& p,
    LookupKind kind = LookupKind::kKmer) {
  core::SpectrumExtractor ex(p);
  std::map<std::uint64_t, std::uint32_t> counts;
  std::vector<seq::kmer_id_t> kmers;
  std::vector<seq::tile_id_t> tiles;
  for (const auto& r : reads) {
    kmers.clear();
    tiles.clear();
    ex.extract(r.bases, kmers, tiles);
    for (auto id : kind == LookupKind::kKmer ? kmers : tiles) ++counts[id];
  }
  return counts;
}

/// Adds this rank's contiguous share of `reads`: rank r of np takes
/// [r*n/np, (r+1)*n/np).
void add_my_slice(DistSpectrum& spectrum, const std::vector<seq::Read>& reads,
                  const rtm::Comm& comm) {
  const std::size_t np = static_cast<std::size_t>(comm.size());
  const std::size_t r = static_cast<std::size_t>(comm.rank());
  for (std::size_t i = reads.size() * r / np; i < reads.size() * (r + 1) / np;
       ++i) {
    spectrum.add_read(reads[i].bases);
  }
}

/// Runs Step II+III across np ranks and returns each rank's owned tables'
/// union, as (id -> count).
std::map<std::uint64_t, std::uint32_t> distributed_kmer_counts(
    const std::vector<seq::Read>& reads, const core::CorrectorParams& p,
    int np, bool batch, unsigned prune_threshold) {
  std::map<std::uint64_t, std::uint32_t> merged;
  std::mutex merge_mutex;
  Heuristics heur;
  heur.batch_reads = batch;
  core::CorrectorParams params = p;
  params.kmer_threshold = prune_threshold;
  params.tile_threshold = prune_threshold;
  rtm::run_world({np, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(params, heur, comm);
    const std::size_t begin =
        reads.size() * static_cast<std::size_t>(comm.rank()) /
        static_cast<std::size_t>(np);
    const std::size_t end =
        reads.size() * static_cast<std::size_t>(comm.rank() + 1) /
        static_cast<std::size_t>(np);
    if (batch) {
      const std::size_t chunk = 37;
      const std::uint64_t mine = (end - begin + chunk - 1) / chunk;
      const std::uint64_t rounds = comm.allreduce_max(mine);
      std::size_t pos = begin;
      for (std::uint64_t b = 0; b < rounds; ++b) {
        for (std::size_t i = 0; i < chunk && pos < end; ++i, ++pos) {
          spectrum.add_read(reads[pos].bases);
        }
        spectrum.exchange_to_owners();
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        spectrum.add_read(reads[i].bases);
      }
      spectrum.exchange_to_owners();
    }
    if (prune_threshold > 1) spectrum.prune();
    std::lock_guard lock(merge_mutex);
    spectrum.owned_table(LookupKind::kKmer)
        .for_each([&](std::uint64_t id, std::uint32_t c) {
      // Each ID must live on exactly one rank.
      EXPECT_EQ(merged.count(id), 0u) << "id owned by two ranks";
      EXPECT_EQ(hash::owner_of(id, np), comm.rank());
      merged[id] = c;
    });
  });
  return merged;
}

TEST(DistSpectrum, GlobalCountsMatchSequential) {
  const auto ds = make_dataset(1);
  const auto p = small_params();
  const auto reference = sequential_counts(ds.reads, p);
  for (int np : {1, 2, 4, 8}) {
    const auto dist = distributed_kmer_counts(ds.reads, p, np, false, 1);
    EXPECT_EQ(dist, reference) << "np=" << np;
  }
}

TEST(DistSpectrum, BatchModeProducesSameSpectrum) {
  const auto ds = make_dataset(2);
  const auto p = small_params();
  const auto one_shot = distributed_kmer_counts(ds.reads, p, 4, false, 1);
  const auto batched = distributed_kmer_counts(ds.reads, p, 4, true, 1);
  EXPECT_EQ(batched, one_shot);
}

TEST(DistSpectrum, PruningMatchesSequentialThreshold) {
  const auto ds = make_dataset(3);
  const auto p = small_params();
  auto reference = sequential_counts(ds.reads, p);
  std::erase_if(reference, [](const auto& kv) { return kv.second < 3; });
  const auto dist = distributed_kmer_counts(ds.reads, p, 4, false, 3);
  EXPECT_EQ(dist, reference);
}

class DistSpectrumKind : public ::testing::TestWithParam<LookupKind> {};

TEST_P(DistSpectrumKind, OwnedLookupsAnswerOnlyOwnedIds) {
  const LookupKind kind = GetParam();
  const auto ds = make_dataset(4, 100);
  const auto p = small_params();
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    DistSpectrum spectrum(p, heur, comm);
    add_my_slice(spectrum, ds.reads, comm);
    spectrum.exchange_to_owners();
    EXPECT_GT(spectrum.owned_table(kind).size(), 0u);
    spectrum.owned_table(kind).for_each([&](std::uint64_t id, std::uint32_t) {
      EXPECT_TRUE(spectrum.owns(id));
      EXPECT_TRUE(spectrum.owned(kind, id).has_value());
    });
  });
}

TEST_P(DistSpectrumKind, ReplicationGathersWholeSpectrum) {
  const LookupKind kind = GetParam();
  const auto ds = make_dataset(5, 200);
  const auto p = small_params();
  const auto reference = sequential_counts(ds.reads, p, kind);
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    (kind == LookupKind::kKmer ? heur.allgather_kmers : heur.allgather_tiles) =
        true;
    DistSpectrum spectrum(p, heur, comm);
    add_my_slice(spectrum, ds.reads, comm);
    spectrum.exchange_to_owners();
    spectrum.replicate(kind);
    // Every rank sees every ID with its exact global count.
    for (const auto& [id, count] : reference) {
      ASSERT_EQ(spectrum.replica(kind, id), count);
    }
  });
}

TEST_P(DistSpectrumKind, ReadsTablesHoldGlobalCountsAfterFetch) {
  const LookupKind kind = GetParam();
  const auto ds = make_dataset(6, 300);
  auto p = small_params();
  p.kmer_threshold = 2;
  p.tile_threshold = p.kmer_threshold;  // one pruning bar for both kinds
  auto reference = sequential_counts(ds.reads, p, kind);
  rtm::run_world({4, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    heur.read_kmers = true;
    DistSpectrum spectrum(p, heur, comm);
    const std::size_t begin =
        ds.reads.size() * static_cast<std::size_t>(comm.rank()) / 4;
    const std::size_t end =
        ds.reads.size() * static_cast<std::size_t>(comm.rank() + 1) / 4;
    std::vector<seq::kmer_id_t> my_kmers;
    std::vector<seq::tile_id_t> my_tiles;
    core::SpectrumExtractor ex(p);
    for (std::size_t i = begin; i < end; ++i) {
      spectrum.add_read(ds.reads[i].bases);
      ex.extract(ds.reads[i].bases, my_kmers, my_tiles);
    }
    spectrum.exchange_to_owners();
    spectrum.prune();
    spectrum.fetch_global_reads_tables();
    // Every non-owned ID of this rank's reads is answerable locally, with
    // the global (pruned) count.
    for (auto id : kind == LookupKind::kKmer ? my_kmers : my_tiles) {
      if (spectrum.owns(id)) continue;
      const auto local = spectrum.reads(kind, id);
      ASSERT_TRUE(local.has_value());
      const auto it = reference.find(id);
      const std::uint32_t global =
          (it != reference.end() && it->second >= p.kmer_threshold)
              ? it->second
              : 0;
      EXPECT_EQ(*local, global);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, DistSpectrumKind,
                         ::testing::Values(LookupKind::kKmer,
                                           LookupKind::kTile),
                         [](const ::testing::TestParamInfo<LookupKind>& info) {
                           return info.param == LookupKind::kKmer ? "kmer"
                                                                  : "tile";
                         });

TEST(DistSpectrum, FootprintAccountsAllTables) {
  const auto ds = make_dataset(7, 100);
  const auto p = small_params();
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    Heuristics heur;
    DistSpectrum spectrum(p, heur, comm);
    for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    const auto before = spectrum.footprint();
    EXPECT_GT(before.reads_kmer_entries, 0u);
    EXPECT_GT(before.bytes, 0u);
    spectrum.exchange_to_owners();
    const auto after = spectrum.footprint();
    EXPECT_EQ(after.reads_kmer_entries, 0u);  // pending cleared
    EXPECT_GT(after.hash_kmer_entries, 0u);
    spectrum.drop_reads_tables();
    EXPECT_GT(spectrum.footprint().hash_tile_entries, 0u);
  });
}

// ---- exchanged filters -----------------------------------------------------

class ExchangedFilters : public ::testing::TestWithParam<int> {};

TEST_P(ExchangedFilters, HoldTheConfiguredFalsePositiveRate) {
  // An owner's filter holds only IDs it owns, and both ownership and the
  // filter's block index reduce mix64(id). Keyed by raw ID, the keys would
  // fill only the blocks congruent to the owner whenever np shares a factor
  // with the block count, and the realised rate would be a multiple of the
  // target. Keyed by hash::owned_set_key, it holds at every np and size.
  const int np = GetParam();
  core::CorrectorParams p;
  p.k = 12;
  p.tile_overlap = 4;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;
  constexpr int kProbes = 20000;
  for (const std::size_t nreads : {400u, 1500u, 6000u}) {
    seq::Rng rng(nreads);
    std::vector<seq::Read> reads(nreads);
    for (auto& r : reads) {
      r.bases.resize(60);
      for (char& b : r.bases) b = "ACGT"[rng.below(4)];
    }
    rtm::run_world({np, 1}, [&](rtm::Comm& comm) {
      Heuristics heur;
      heur.filter_lookups = true;
      DistSpectrum spectrum(p, heur, comm);
      add_my_slice(spectrum, reads, comm);
      spectrum.exchange_to_owners();
      spectrum.prune();
      spectrum.exchange_filters(RetryPolicy{});
      seq::Rng probe_rng(static_cast<std::uint64_t>(comm.rank()) + 1);
      for (const LookupKind kind : kLookupKinds) {
        for (int owner = 0; owner < np; ++owner) {
          if (owner == comm.rank()) continue;
          int maybe = 0;
          for (int probes = 0; probes < kProbes;) {
            // The top bit is beyond every k-mer (24-bit) and tile (40-bit)
            // ID at k = 12, so the owner's table cannot hold the ID.
            const std::uint64_t id = probe_rng.next() | (1ull << 63);
            if (hash::owner_of(id, np) != owner) continue;
            ++probes;
            const auto answer = spectrum.filter(kind, id, owner);
            ASSERT_NE(answer, DistSpectrum::FilterAnswer::kNoFilter);
            maybe += answer == DistSpectrum::FilterAnswer::kMaybePresent;
          }
          const double rate = static_cast<double>(maybe) / kProbes;
          EXPECT_LE(rate, 2 * heur.filter_fp_rate)
              << "np=" << np << " reads=" << nreads << " rank=" << comm.rank()
              << " owner=" << owner << " kind="
              << (kind == LookupKind::kKmer ? "kmer" : "tile") << " own_table="
              << spectrum.owned_table(kind).size();
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangedFilters, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "np" + std::to_string(info.param);
                         });

TEST(ExchangedFilters, StayWithinTheOwnedTableBudget) {
  // Every owner builds its filter of a kind at one rate, which every rank
  // computes alike from the smallest owned-table bytes / peers and the
  // largest owned entry count over all ranks (or filter_fp_rate, if
  // higher). So every filter fits every holder's share, no holder drops
  // one, and the filters of one kind a rank holds never take more bytes
  // than its owned table of that kind. A capped filter runs at the rate the
  // cap allows; where that rate reaches kMaxFilterFpRate no rank sends a
  // filter of that kind, none holds one, and the blocking exchange still
  // completes. 40 reads at 32 ranks force that regime. 2731 reads at 32
  // ranks cap filters, and put ~4,180 k-mers and ~512 tiles on each rank,
  // so a frozen table of either kind has 2^k slots on some ranks and
  // 2^(k+1) on others: the smaller tables set the rate.
  core::CorrectorParams p;
  p.k = 12;
  p.tile_overlap = 4;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;
  constexpr int kProbes = 4000;
  std::mutex mu;
  int capped = 0, forced_off = 0, dropped = 0;
  for (const int np : {2, 4, 8, 32}) {
    for (const std::size_t nreads : {40u, 2731u}) {
      seq::Rng rng(nreads);
      std::vector<seq::Read> reads(nreads);
      for (auto& r : reads) {
        r.bases.resize(60);
        for (char& b : r.bases) b = "ACGT"[rng.below(4)];
      }
      rtm::run_world({np, 1}, [&](rtm::Comm& comm) {
        const Heuristics heur;  // filters on by default
        DistSpectrum spectrum(p, heur, comm);
        add_my_slice(spectrum, reads, comm);
        spectrum.exchange_to_owners();
        spectrum.prune();
        spectrum.exchange_filters(RetryPolicy{});
        seq::Rng probe_rng(static_cast<std::uint64_t>(comm.rank()) + 7);
        for (const LookupKind kind : kLookupKinds) {
          const auto& own = spectrum.owned_table(kind);
          const auto peers = static_cast<std::size_t>(np - 1);
          // The one rate of this kind, decided the way every rank decides
          // it.
          const std::size_t share =
              comm.allreduce_min(own.memory_bytes()) / peers;
          const std::size_t entries = comm.allreduce_max(own.size());
          const double rate = std::max(
              heur.filter_fp_rate,
              hash::OwnerFilter::fp_rate_for_bytes(entries, share));
          std::size_t held = 0;
          for (int owner = 0; owner < np; ++owner) {
            if (owner == comm.rank()) continue;
            const hash::OwnerFilter* f = spectrum.peer_filter(kind, owner);
            if (rate >= kMaxFilterFpRate) {
              EXPECT_EQ(f, nullptr) << "np=" << np << " owner=" << owner;
              std::lock_guard<std::mutex> lock(mu);
              ++forced_off;
              continue;
            }
            if (f == nullptr) {
              std::lock_guard<std::mutex> lock(mu);
              ++dropped;
              continue;
            }
            EXPECT_LE(f->memory_bytes(), share)
                << "np=" << np << " reads=" << nreads << " owner=" << owner;
            held += f->memory_bytes();
            int maybe = 0;
            for (int i = 0; i < kProbes; ++i) {
              // Beyond every k-mer and tile ID at k = 12: never a member.
              const std::uint64_t id = probe_rng.next() | (1ull << 63);
              maybe += spectrum.filter(kind, id, owner) ==
                       DistSpectrum::FilterAnswer::kMaybePresent;
            }
            EXPECT_LE(static_cast<double>(maybe) / kProbes, 2 * rate)
                << "np=" << np << " reads=" << nreads << " owner=" << owner;
            if (rate > heur.filter_fp_rate) {
              std::lock_guard<std::mutex> lock(mu);
              ++capped;
            }
          }
          EXPECT_LE(held, own.memory_bytes())
              << "np=" << np << " reads=" << nreads
              << " rank=" << comm.rank();
        }
      });
    }
  }
  // Every regime was exercised, and no filter was dropped.
  EXPECT_GT(capped, 0);
  EXPECT_GT(forced_off, 0);
  EXPECT_EQ(dropped, 0);
}

}  // namespace
}  // namespace reptile::parallel
