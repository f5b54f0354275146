#pragma once
// Shared setup for the per-figure benchmark binaries.
//
// Every bench measures workload traits on a scaled synthetic replica of a
// Table I dataset (same read length, coverage, bursty error layout) and
// models the full dataset on the BlueGene/Q machine model. Functional
// sections run the real distributed pipeline at small rank counts over the
// in-process runtime.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "obs/trace.hpp"
#include "parallel/dist_pipeline.hpp"
#include "perfmodel/phase_model.hpp"
#include "seq/dataset.hpp"
#include "stats/table.hpp"

namespace reptile::bench {

/// Shared bench CLI. Every driver accepts:
///
///   --trace PREFIX   span tracing + the metrics registry for the functional
///                    (real-runtime) sections: one Chrome-trace shard per
///                    rank, PREFIX.rankN.json (the last functional section
///                    wins); merge/validate them with tools/trace_merge.
///   --ledger         arm the resource ledger (obs::ResourceLedger) for the
///                    functional sections. Off by default — the default run
///                    must be byte-identical to an uninstrumented one.
///   --json PATH      drivers with a machine-readable summary only: write
///                    it to PATH for tools/bench_gate.py.
///
/// Anything else — including --json on a driver that writes no JSON —
/// exits with usage, so a typo never silently runs the default setup. A
/// driver that spawns no runtime says so when given --trace or --ledger.
struct BenchArgs {
  obs::TraceConfig trace;
  std::string json_path;  ///< empty = no JSON emission
};

/// What a driver does with the shared flags.
struct BenchCli {
  bool json = true;     ///< writes a JSON summary (--json)
  bool runtime = true;  ///< runs the real runtime (--trace, --ledger)
};

inline BenchArgs parse_bench_args(int argc, char** argv, BenchCli cli = {}) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      args.trace.enabled = true;
      args.trace.metrics = true;
      args.trace.path = argv[++i];
    } else if (cli.json && std::strcmp(argv[i], "--json") == 0 &&
               i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ledger") == 0) {
      args.trace.ledger = true;
    } else {
      std::fprintf(stderr, "usage: %s [--trace PREFIX] [--ledger]%s\n",
                   argv[0], cli.json ? " [--json PATH]" : "");
      std::exit(2);
    }
  }
  if (!cli.runtime && (args.trace.enabled || args.trace.ledger)) {
    std::printf("note: --trace/--ledger accepted for CLI uniformity, but this "
                "driver spawns no runtime to observe\n");
  }
  return args;
}

// --- scaling JSON (fig6/fig7/fig8 --json; BENCH_scaling.json) --------------
//
// One document per driver: functional rows measured on the real runtime
// (fig6; counters deterministic, timings host-dependent) and modeled rows
// from the BlueGene/Q performance model (all three figures; calibrated on
// host-measured traits, so every modeled number is warn-only in the gate).

/// One real-runtime rank-count row of the scaling trajectory.
struct ScalingFunctionalRow {
  int ranks = 0;
  // Exact (seeded dataset, fixed topology, deterministic table capacities):
  std::uint64_t max_remote_lookups = 0;  ///< worst rank, kmer + tile
  std::uint64_t substitutions = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t construction_peak_bytes = 0;  ///< worst rank
  // Warn-only (host wall times; ledger/RSS only populated with --ledger):
  double construct_seconds = 0;  ///< worst rank
  double correct_seconds = 0;    ///< worst rank
  std::uint64_t ledger_total_peak_bytes = 0;
  std::uint64_t rss_peak_bytes = 0;
};

/// One modeled rank-count row (perfmodel; warn-only throughout).
struct ScalingModeledRow {
  int ranks = 0;
  double construct_seconds = 0;
  double correct_seconds = 0;
  double total_seconds = 0;
  double mb_per_rank = 0;
  double efficiency = 0;
  /// Peer filters per rank had the row run with filter_lookups on
  /// (modeled_filter_mb).
  double filter_mb_per_rank = 0;
};

/// Writes the scaling JSON consumed by tools/bench_gate.py (`scaling`
/// handler). Returns false (after printing to stderr) when PATH is not
/// writable, so drivers can exit non-zero.
inline bool write_scaling_json(const std::string& path, const char* figure,
                               const std::vector<ScalingFunctionalRow>& fn,
                               const std::vector<ScalingModeledRow>& modeled) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::fprintf(out,
               "{\n  \"schema\": \"reptile-bench-scaling-v1\",\n"
               "  \"figure\": \"%s\",\n  \"functional\": {\n",
               figure);
  for (std::size_t i = 0; i < fn.size(); ++i) {
    const ScalingFunctionalRow& r = fn[i];
    std::fprintf(
        out,
        "    \"%d\": {\"max_remote_lookups\": %llu, \"substitutions\": %llu, "
        "\"reads_changed\": %llu, \"construction_peak_bytes\": %llu, "
        "\"construct_seconds\": %.6f, \"correct_seconds\": %.6f, "
        "\"ledger_total_peak_bytes\": %llu, \"rss_peak_bytes\": %llu}%s\n",
        r.ranks, u64(r.max_remote_lookups), u64(r.substitutions),
        u64(r.reads_changed), u64(r.construction_peak_bytes),
        r.construct_seconds, r.correct_seconds, u64(r.ledger_total_peak_bytes),
        u64(r.rss_peak_bytes), i + 1 < fn.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"modeled\": {\n");
  for (std::size_t i = 0; i < modeled.size(); ++i) {
    const ScalingModeledRow& r = modeled[i];
    std::fprintf(out,
                 "    \"%d\": {\"construct_seconds\": %.3f, "
                 "\"correct_seconds\": %.3f, \"total_seconds\": %.3f, "
                 "\"mb_per_rank\": %.3f, \"efficiency\": %.4f, "
                 "\"filter_mb_per_rank\": %.3f}%s\n",
                 r.ranks, r.construct_seconds, r.correct_seconds,
                 r.total_seconds, r.mb_per_rank, r.efficiency,
                 r.filter_mb_per_rank, i + 1 < modeled.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// Modeled peer-filter MB per rank of `heur` with filter_lookups on: what
/// the default mode would add to a paper row. The byte cap (DESIGN.md §9)
/// allows no filter from 161 ranks on, so at the paper's scale this is 0.
inline double modeled_filter_mb(const perfmodel::MachineModel& machine,
                                const perfmodel::DatasetTraits& traits,
                                const seq::DatasetSpec& full, int np,
                                int ranks_per_node, parallel::Heuristics heur) {
  heur.filter_lookups = true;
  return perfmodel::model_run(machine, traits, full, np, ranks_per_node, heur)
      .max_filter_mb();
}

/// The paper's heuristics defaults: the base mode with load balancing and
/// the scalar, unfiltered lookup protocol (one blocking round trip per
/// remote lookup), which is what the modeled figures and their functional
/// checks reproduce. The chunk wavefront and the peer filters
/// (batch_lookups and filter_lookups, both on by default) are extensions;
/// fig5 measures them in their own rows.
inline parallel::Heuristics paper_heuristics() {
  parallel::Heuristics h;
  h.batch_lookups = false;
  h.filter_lookups = false;
  return h;
}

/// Corrector parameters used across the reproduction benches. k=12 tiles of
/// 20 bp, threshold 3, and a wide per-tile search (the paper's workload is
/// dominated by candidate-tile lookups).
inline core::CorrectorParams bench_params() {
  core::CorrectorParams p;
  p.k = 12;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.max_positions_per_tile = 6;
  p.chunk_size = 2000;
  return p;
}

/// Error model with bursts localized in file regions — the cause of the
/// paper's load imbalance (Section III-A).
inline seq::ErrorModelParams bench_errors() {
  seq::ErrorModelParams e;
  e.error_rate_start = 0.003;
  e.error_rate_end = 0.01;
  e.burst_fraction = 0.2;
  e.burst_regions = 4;
  e.burst_multiplier = 8.0;
  return e;
}

/// Per-dataset error profiles. The three SRA datasets have very different
/// per-read correction workloads (the paper corrects 10.8x more Drosophila
/// reads in only 3x the E.Coli time, so its per-read cost is ~3.5x lower;
/// its imbalance is also harsher — the imbalanced runs never finished).
/// These profiles reproduce those relative workloads.
inline seq::ErrorModelParams bench_errors_for(const std::string& dataset) {
  seq::ErrorModelParams e = bench_errors();
  if (dataset == "Drosophila") {
    e.error_rate_start = 0.001;   // cleaner reads: less work per read ...
    e.error_rate_end = 0.0035;
    e.burst_fraction = 0.08;      // ... but errors concentrated harder
    e.burst_regions = 2;
    e.burst_multiplier = 16.0;
  } else if (dataset == "Human") {
    e.error_rate_start = 0.0015;
    e.error_rate_end = 0.006;
    e.burst_fraction = 0.15;
    e.burst_regions = 4;
    e.burst_multiplier = 8.0;
  }
  return e;
}

/// Scaled replica of `full` with about `target_reads` reads, corrupted with
/// the dataset's error profile.
inline seq::SyntheticDataset scaled_replica(const seq::DatasetSpec& full,
                                            std::uint64_t target_reads,
                                            std::uint64_t seed) {
  const auto spec = full.scaled(static_cast<double>(target_reads) /
                                static_cast<double>(full.n_reads));
  return seq::SyntheticDataset::generate(spec, bench_errors_for(full.name),
                                         seed);
}

/// Measures traits for a Table I dataset on a scaled replica.
inline perfmodel::DatasetTraits bench_traits(const seq::DatasetSpec& full,
                                             std::uint64_t target_reads = 4000,
                                             std::uint64_t seed = 20160523) {
  const auto replica = scaled_replica(full, target_reads, seed);
  return perfmodel::measure_traits(replica, bench_params(),
                                   bench_errors_for(full.name),
                                   /*np_ref=*/64);
}

inline void print_header(const char* figure, const char* paper_summary) {
  std::printf("==================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", paper_summary);
  std::printf("==================================================================\n");
}

}  // namespace reptile::bench
