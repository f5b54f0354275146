// Tour of the paper's heuristics (Section III-B) on one dataset.
//
//   $ ./examples/heuristics_tour [reads] [ranks]
//
// Runs the same dataset through every heuristic configuration Fig. 5
// evaluates and prints what each one trades: remote lookups and probe calls
// (communication) against table memory. All configurations produce
// IDENTICAL corrected reads — the knobs only move where the spectrum lives
// and how messages are shaped.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "parallel/dist_pipeline.hpp"
#include "seq/dataset.hpp"
#include "stats/table.hpp"

namespace {

struct Mode {
  const char* name;
  reptile::parallel::Heuristics heur;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace reptile;

  const std::uint64_t n_reads =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 3000;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 8;

  seq::DatasetSpec spec{"tour", n_reads, 80, n_reads / 2};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.012;
  errors.burst_fraction = 0.15;
  errors.burst_regions = 3;
  errors.burst_multiplier = 6.0;
  const auto dataset = seq::SyntheticDataset::generate(spec, errors, 99);

  parallel::DistConfig base;
  base.params.k = 12;
  base.params.tile_overlap = 4;
  base.params.chunk_size = 256;
  base.ranks = ranks;
  base.ranks_per_node = 4;

  auto with = [&](auto setup) {
    parallel::Heuristics h;  // load_balance defaults on
    h.batch_lookups = false;  // the paper's scalar, unfiltered protocol
    h.filter_lookups = false;
    setup(h);
    return h;
  };
  const Mode modes[] = {
      {"base", with([](auto&) {})},
      {"universal", with([](auto& h) { h.universal = true; })},
      {"read_kmers", with([](auto& h) { h.read_kmers = true; })},
      {"add_remote", with([](auto& h) { h.read_kmers = h.add_remote = true; })},
      {"allgather_kmers", with([](auto& h) { h.allgather_kmers = true; })},
      {"allgather_tiles", with([](auto& h) { h.allgather_tiles = true; })},
      {"allgather_both",
       with([](auto& h) { h.allgather_kmers = h.allgather_tiles = true; })},
      {"batch_reads", with([](auto& h) { h.batch_reads = true; })},
      {"no_load_balance", with([](auto& h) { h.load_balance = false; })},
      // Extensions beyond the paper's Fig. 5 matrix:
      {"partial_repl(4)",
       with([](auto& h) { h.partial_replication_group = 4; })},
      {"bloom_construction",
       with([](auto& h) { h.bloom_construction = true; })},
      {"batch_lookups", with([](auto& h) { h.batch_lookups = true; })},
      {"filter_lookups", with([](auto& h) { h.filter_lookups = true; })},
      {"defaults", parallel::Heuristics{}},
  };

  std::printf("dataset: %llu reads, %d ranks — identical output expected in "
              "every mode\n\n",
              static_cast<unsigned long long>(n_reads), ranks);

  stats::TextTable table({"mode", "remote kmer", "remote tile", "reads-table hits",
                          "probes", "peak table MB", "identical"});
  std::vector<seq::Read> reference;
  for (const Mode& mode : modes) {
    parallel::DistConfig config = base;
    config.heuristics = mode.heur;
    const auto result = parallel::run_distributed(dataset.reads, config);
    // Bloom construction is deliberately approximate; every other mode
    // must be bit-identical to the first run.
    const bool approximate = mode.heur.bloom_construction;
    if (reference.empty()) reference = result.corrected;

    std::uint64_t rk = 0, rt = 0, hits = 0, probes = 0;
    std::size_t peak = 0;
    for (const auto& r : result.ranks) {
      rk += r.remote.remote_kmer_lookups;
      rt += r.remote.remote_tile_lookups;
      hits += r.remote.reads_table_hits;
      probes += r.service.probe_calls;
      peak = std::max(
          {peak, r.construction_peak_bytes, r.footprint_after_correction.bytes});
    }
    table.row()
        .cell(mode.name)
        .cell(rk)
        .cell(rt)
        .cell(hits)
        .cell(probes)
        .cell_fixed(static_cast<double>(peak) / (1 << 20), 2)
        .cell(result.corrected == reference ? "yes"
              : approximate                 ? "approx (by design)"
                                            : "NO");
  }
  table.print(std::cout);
  std::printf(
      "\nReading the table like the paper's Fig. 5:\n"
      " - universal removes every probe at no memory cost;\n"
      " - read_kmers/add_remote trade reads-table memory for fewer remote "
      "lookups;\n"
      " - allgather_tiles kills the dominant tile traffic, allgather_both "
      "kills all of it, both at a large memory cost;\n"
      " - batch_reads caps the construction-phase peak memory;\n"
      " - batch_lookups (the chunk wavefront) sends every remote lookup\n"
      "   inside vectored batches: no scalar round trips at all;\n"
      " - filter_lookups answers most absent lookups from the owners'\n"
      "   filters, held to at most the rank's own table bytes;\n"
      " - defaults is what the program runs outside this tour: both\n"
      "   extensions on.\n");
  return 0;
}
