// Unit + integration tests: the machine model and phase pricing — the
// modeled runs must reproduce the paper's qualitative findings.
#include "perfmodel/phase_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hash/owner_filter.hpp"
#include "seq/error_model.hpp"

namespace reptile::perfmodel {
namespace {

core::CorrectorParams small_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 2000;
  // Search more of each untrusted tile, as the original Reptile does; this
  // drives the per-read candidate-lookup volume toward the paper's regime
  // (tens of millions of remote tile lookups per rank).
  p.max_positions_per_tile = 6;
  return p;
}

struct Fixture {
  seq::ErrorModelParams errors;
  seq::SyntheticDataset ds;
  DatasetTraits traits;
  seq::DatasetSpec full = seq::DatasetSpec::ecoli();
  MachineModel machine = MachineModel::bluegene_q();

  Fixture() {
    errors.error_rate_start = 0.003;
    errors.error_rate_end = 0.01;
    errors.burst_fraction = 0.2;
    errors.burst_regions = 4;
    errors.burst_multiplier = 8.0;
    seq::DatasetSpec spec{"mini", 4000, 102, 4600};  // E.Coli geometry, tiny
    ds = seq::SyntheticDataset::generate(spec, errors, 47);
    traits = measure_traits(ds, small_params(), errors, /*np_ref=*/64);
  }
};

const Fixture& fx() {
  static const Fixture f;
  return f;
}

TEST(MachineModel, SlowdownsMonotoneInRanksPerNode) {
  const auto m = MachineModel::bluegene_q();
  EXPECT_DOUBLE_EQ(m.compute_slowdown(8), 1.0);  // 16 threads on 16 cores
  EXPECT_GT(m.compute_slowdown(16), 1.0);
  EXPECT_GT(m.compute_slowdown(32), m.compute_slowdown(16));
  EXPECT_DOUBLE_EQ(m.comm_slowdown(4), 1.0);
  EXPECT_GT(m.comm_slowdown(32), m.comm_slowdown(8));
}

TEST(MachineModel, AlltoallvCostGrowsWithBytesAndRanks) {
  const auto m = MachineModel::bluegene_q();
  EXPECT_GT(m.alltoallv_cost(1 << 20, 128, 32),
            m.alltoallv_cost(1 << 10, 128, 32));
  EXPECT_GT(m.alltoallv_cost(1 << 20, 1024, 32),
            m.alltoallv_cost(1 << 20, 16, 32));
}

TEST(PhaseModel, StrongScalingReducesTime) {
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto t1024 = model_run(f.machine, f.traits, f.full, 1024, 32, heur);
  const auto t8192 = model_run(f.machine, f.traits, f.full, 8192, 32, heur);
  EXPECT_LT(t8192.total_seconds(), t1024.total_seconds());
  // Fig. 6: parallel efficiency at 8x the ranks is high but below 1.
  const double eff = RunEstimate::parallel_efficiency(t1024, t8192);
  EXPECT_GT(eff, 0.5);
  EXPECT_LE(eff, 1.05);
}

TEST(PhaseModel, ConstructionIsNegligibleVsCorrection) {
  // Paper: "the k-mer construction time is a negligible percentage of the
  // error correction time".
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto run = model_run(f.machine, f.traits, f.full, 1024, 32, heur);
  EXPECT_LT(run.construct_seconds(), 0.15 * run.correct_seconds());
}

TEST(PhaseModel, CommunicationDominatesCorrection) {
  // Paper Fig. 2 discussion: most of the error-correction time is spent in
  // communication.
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto run = model_run(f.machine, f.traits, f.full, 1024, 32, heur);
  EXPECT_GT(run.max_comm_seconds(), 0.4 * run.correct_seconds());
}

TEST(PhaseModel, LoadBalancingHalvesImbalancedRuntime) {
  // Fig. 4 / Fig. 6: static load balancing about halves the total runtime
  // at lower node counts, and the slowest/fastest rank gap collapses.
  const auto& f = fx();
  parallel::Heuristics balanced;
  parallel::Heuristics imbalanced;
  imbalanced.load_balance = false;
  const auto rb = model_run(f.machine, f.traits, f.full, 128, 32, balanced);
  const auto ri = model_run(f.machine, f.traits, f.full, 128, 32, imbalanced);
  EXPECT_GT(ri.total_seconds(), 1.5 * rb.total_seconds());
  const double gap_imb =
      ri.slowest_rank_seconds() / std::max(1e-9, ri.fastest_rank_seconds());
  const double gap_bal =
      rb.slowest_rank_seconds() / std::max(1e-9, rb.fastest_rank_seconds());
  EXPECT_GT(gap_imb, 2.0);   // paper: 16000+ s vs 4948 s
  EXPECT_LT(gap_bal, 1.1);   // paper: "almost all ranks uniformly take 8886 s"
}

TEST(PhaseModel, MoreRanksPerNodeIsSlower) {
  // Fig. 2: 128 ranks on 4 nodes (32/node) is ~30% slower than on 16 nodes
  // (8/node), driven by communication.
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto rpn8 = model_run(f.machine, f.traits, f.full, 128, 8, heur);
  const auto rpn32 = model_run(f.machine, f.traits, f.full, 128, 32, heur);
  EXPECT_GT(rpn32.total_seconds(), 1.1 * rpn8.total_seconds());
  EXPECT_LT(rpn32.total_seconds(), 1.8 * rpn8.total_seconds());
  EXPECT_GT(rpn32.max_comm_seconds(), rpn8.max_comm_seconds());
}

TEST(PhaseModel, UniversalModeIsModestlyFaster) {
  // Fig. 5: universal mode gains ~8.8% with no extra memory.
  const auto& f = fx();
  parallel::Heuristics base;
  parallel::Heuristics uni = base;
  uni.universal = true;
  const auto rb = model_run(f.machine, f.traits, f.full, 1024, 32, base);
  const auto ru = model_run(f.machine, f.traits, f.full, 1024, 32, uni);
  EXPECT_LT(ru.total_seconds(), rb.total_seconds());
  const double gain = 1.0 - ru.total_seconds() / rb.total_seconds();
  EXPECT_GT(gain, 0.01);
  EXPECT_LT(gain, 0.25);
  EXPECT_NEAR(ru.max_memory_bytes(), rb.max_memory_bytes(),
              0.01 * rb.max_memory_bytes());
}

TEST(PhaseModel, TileReplicationBeatsKmerReplication) {
  // Fig. 5: replicating the tile spectrum cuts the dominant tile traffic;
  // replicating only k-mers barely helps. Both inflate memory.
  const auto& f = fx();
  parallel::Heuristics base;
  parallel::Heuristics agk = base;
  agk.allgather_kmers = true;
  parallel::Heuristics agt = base;
  agt.allgather_tiles = true;
  const auto rb = model_run(f.machine, f.traits, f.full, 1024, 32, base);
  const auto rk = model_run(f.machine, f.traits, f.full, 1024, 32, agk);
  const auto rt = model_run(f.machine, f.traits, f.full, 1024, 32, agt);
  EXPECT_LT(rt.correct_seconds(), rb.correct_seconds());
  EXPECT_LT(rt.correct_seconds(), rk.correct_seconds());
  EXPECT_GT(rk.max_memory_bytes(), rb.max_memory_bytes());
  EXPECT_GT(rt.max_memory_bytes(), rb.max_memory_bytes());
}

TEST(PhaseModel, FullReplicationEliminatesCommunication) {
  // Fig. 5: k-mers and tiles replicated -> correction in 58 s (vs 1178 s),
  // memory up to ~1.6 GB/rank.
  const auto& f = fx();
  parallel::Heuristics both;
  both.allgather_kmers = both.allgather_tiles = true;
  parallel::Heuristics base;
  const auto rb = model_run(f.machine, f.traits, f.full, 1024, 32, base);
  const auto rr = model_run(f.machine, f.traits, f.full, 1024, 32, both);
  EXPECT_EQ(rr.max_comm_seconds(), 0.0);
  EXPECT_LT(rr.correct_seconds(), 0.2 * rb.correct_seconds());
  EXPECT_GT(rr.max_memory_bytes(), 2 * rb.max_memory_bytes());
}

TEST(PhaseModel, BatchReadsLowersMemoryRaisesConstructionTime) {
  // Fig. 5 + Fig. 7 discussion: batch mode trades construction time for a
  // smaller construction-phase footprint.
  const auto& f = fx();
  parallel::Heuristics base;
  parallel::Heuristics batch = base;
  batch.batch_reads = true;
  const auto rb = model_run(f.machine, f.traits, f.full, 1024, 32, base);
  const auto rc = model_run(f.machine, f.traits, f.full, 1024, 32, batch);
  EXPECT_LT(rc.max_memory_bytes(), rb.max_memory_bytes());
  EXPECT_GT(rc.construct_seconds(), rb.construct_seconds());
  EXPECT_NEAR(rc.correct_seconds(), rb.correct_seconds(),
              0.01 * rb.correct_seconds());
}

TEST(PhaseModel, MemoryPerRankShrinksWithScale) {
  // Paper Section V: E.Coli footprint < 50 MB/rank at 256 nodes.
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto r32 = model_run(f.machine, f.traits, f.full, 1024, 32, heur);
  const auto r256 = model_run(f.machine, f.traits, f.full, 8192, 32, heur);
  EXPECT_LT(r256.max_memory_bytes(), r32.max_memory_bytes());
  EXPECT_LT(r256.max_memory_mb(), 100.0);
}

TEST(PhaseModel, LargerBatchesSpeedUpBatchedConstruction) {
  // Fig. 8 ran batch 5000 at 128/256 nodes and 10000 at 512/1024: fewer
  // exchange rounds amortize the collective latency.
  const auto& f = fx();
  parallel::Heuristics heur;
  heur.batch_reads = true;
  auto with_chunk = [&](std::size_t chunk) {
    auto traits = f.traits;
    traits.params.chunk_size = chunk;
    return model_run(f.machine, traits, f.full, 4096, 32, heur)
        .construct_seconds();
  };
  EXPECT_GT(with_chunk(1000), with_chunk(10000));
}

TEST(PhaseModel, PartialReplicationTradesMemoryForComm) {
  const auto& f = fx();
  parallel::Heuristics none;
  parallel::Heuristics half;
  half.partial_replication_group = 512;
  const auto base = model_run(f.machine, f.traits, f.full, 1024, 32, none);
  const auto grouped = model_run(f.machine, f.traits, f.full, 1024, 32, half);
  EXPECT_LT(grouped.max_comm_seconds(), 0.7 * base.max_comm_seconds());
  EXPECT_GT(grouped.max_memory_bytes(), 2 * base.max_memory_bytes());
}

TEST(PhaseModel, CommSplitTracksLookupMix) {
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto run = model_run(f.machine, f.traits, f.full, 1024, 32, heur);
  for (const auto& r : run.ranks) {
    EXPECT_NEAR(r.comm_kmer_seconds + r.comm_tile_seconds, r.comm_seconds,
                1e-9 + r.comm_seconds * 1e-9);
    // Tile candidates dominate the remote mix (paper Fig. 2 narrative).
    EXPECT_GT(r.comm_tile_seconds, 5 * r.comm_kmer_seconds);
  }
}

TEST(PhaseModel, PeerFiltersStayWithinTheOwnedTable) {
  // Exchanged filters at 1 % cost ~12.5 bits per out-of-group entry, capped
  // at the owned table (kFrozenTableBytesPerEntry a key) and dropped once
  // the cap forces a rate of 0.5: uncapped up to 25 ranks, capped from 26
  // to 160, none from 161 on.
  constexpr double kKept = 1e7;
  const double sized_per_key = hash::OwnerFilter::bits_per_key(0.01) / 8.0;
  for (int np = 2; np <= 400; ++np) {
    SCOPED_TRACE("np=" + std::to_string(np));
    const double owned = kKept / np * kFrozenTableBytesPerEntry;
    const double bytes = modeled_filter_bytes(kKept, np, 1, 0.01);
    if (np <= 25) {
      EXPECT_LT(bytes, owned);
      EXPECT_NEAR(bytes, kKept / np * (np - 1) * sized_per_key, 1e-6 * bytes);
    } else if (np <= 160) {
      EXPECT_DOUBLE_EQ(bytes, owned);
    } else {
      EXPECT_EQ(bytes, 0.0);
    }
  }
  // Replication groups shrink the peer set: with 4 ranks in a group, 28
  // ranks have 24 out-of-group peers and stay uncapped.
  EXPECT_LT(modeled_filter_bytes(kKept, 28, 4, 0.01),
            kKept / 28 * kFrozenTableBytesPerEntry);
  EXPECT_EQ(modeled_filter_bytes(kKept, 4, 4, 0.01), 0.0);

  // The modeled run holds them only with filter_lookups on, as part of the
  // steady-state memory (which the construction peak may still exceed).
  const auto& f = fx();
  parallel::Heuristics heur;
  heur.filter_lookups = false;
  const auto plain = model_run(f.machine, f.traits, f.full, 16, 8, heur);
  heur.filter_lookups = true;
  const auto filtered = model_run(f.machine, f.traits, f.full, 16, 8, heur);
  EXPECT_EQ(plain.max_filter_bytes(), 0.0);
  EXPECT_GT(filtered.max_filter_bytes(), 0.0);
  for (const auto& r : filtered.ranks) {
    EXPECT_GE(r.memory_bytes, r.filter_bytes);
  }
  EXPECT_GE(filtered.max_memory_bytes(), plain.max_memory_bytes());
  EXPECT_EQ(model_run(f.machine, f.traits, f.full, 1024, 32, heur)
                .max_filter_bytes(),
            0.0);
}

TEST(PhaseModel, AnchorMagnitudesInPaperRange) {
  // Soft calibration check: E.Coli at 128 ranks / 32 per node, balanced —
  // the paper reports ~8886 s total with ~5073-5268 s communication. The
  // model must land within a factor of ~2.5 on both (shape, not identity).
  const auto& f = fx();
  parallel::Heuristics heur;
  const auto run = model_run(f.machine, f.traits, f.full, 128, 32, heur);
  EXPECT_GT(run.total_seconds(), 8886.0 / 2.5);
  EXPECT_LT(run.total_seconds(), 8886.0 * 2.5);
  EXPECT_GT(run.max_comm_seconds(), 5170.0 / 2.5);
  EXPECT_LT(run.max_comm_seconds(), 5170.0 * 2.5);
}

}  // namespace
}  // namespace reptile::perfmodel
