// Figure 5: time and memory footprint of each heuristic (E.Coli, 32 nodes).
//
// Paper findings to reproduce (1024 ranks on 32 nodes unless noted):
//   - universal: 8.8% faster, no extra memory;
//   - allgather k-mers (run at 256 ranks / 8 per node): SLOWER overall
//     because fewer, busier ranks; memory up to 928 MB/rank;
//   - allgather tiles (256 ranks): correction 975 s vs 1178 s base;
//     948 MB/rank — replicating tiles beats replicating k-mers;
//   - add remote lookups: no runtime gain, memory 119 -> 199 MB;
//   - batch reads table: lower memory, slightly higher construction time;
//   - full replication (1 rank/node, 64 threads): correction only 58 s,
//     1648 MB/rank.
//
// The modeled table mirrors those configurations. A functional section
// compares heuristics with measured counters at 8 ranks.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "parallel/report.hpp"

int main(int argc, char** argv) {
  using namespace reptile;
  const auto args = bench::parse_bench_args(argc, argv);
  const auto& trace = args.trace;
  bench::print_header(
      "Figure 5 — heuristics: execution time and memory footprint (E.Coli)",
      "universal -8.8%; allgather tiles 975s vs 1178s; full replication 58s");

  const auto full = seq::DatasetSpec::ecoli();
  const auto traits = bench::bench_traits(full);
  const auto machine = perfmodel::MachineModel::bluegene_q();

  struct Row {
    const char* name;
    int ranks;
    int ranks_per_node;
    parallel::Heuristics heur;
    const char* slug = nullptr;  ///< key in BENCH_fig5.json (nullptr = omit)
  };
  // Every row starts from the paper's defaults (scalar lookups); the
  // batched rows turn the chunk wavefront on themselves.
  auto h = [](auto setup) {
    parallel::Heuristics x = bench::paper_heuristics();
    setup(x);
    return x;
  };
  const Row rows[] = {
      {"base", 1024, 32, h([](auto&) {})},
      {"universal", 1024, 32, h([](auto& x) { x.universal = true; })},
      {"read kmers/tiles", 1024, 32, h([](auto& x) { x.read_kmers = true; })},
      {"add remote lookups", 1024, 32,
       h([](auto& x) { x.read_kmers = x.add_remote = true; })},
      // The paper ran the replication modes with 8 ranks/node (256 ranks)
      // because of their memory footprint.
      {"allgather kmers (256r)", 256, 8,
       h([](auto& x) { x.allgather_kmers = true; })},
      {"allgather tiles (256r)", 256, 8,
       h([](auto& x) { x.allgather_tiles = true; })},
      {"batch reads table", 1024, 32, h([](auto& x) { x.batch_reads = true; })},
      // Full replication ran with 1 rank/node; our model keeps 2 threads
      // per rank, so we model 8 ranks/node as the closest no-SMT point.
      {"allgather both (256r)", 256, 8,
       h([](auto& x) { x.allgather_kmers = x.allgather_tiles = true; })},
      // Extensions beyond the paper's Fig. 5 matrix (Section V future work
      // and the Section III Bloom note):
      {"partial repl (node)", 1024, 32,
       h([](auto& x) { x.partial_replication_group = 32; })},
      {"partial repl (g=512)", 1024, 32,
       h([](auto& x) { x.partial_replication_group = 512; })},
      {"bloom construction", 1024, 32,
       h([](auto& x) { x.bloom_construction = true; })},
  };

  stats::TextTable table({"heuristic", "ranks", "construct s", "correct s",
                          "comm s", "MB/rank", "vs base"});
  double base_correct = 0;
  for (const Row& row : rows) {
    const auto run = perfmodel::model_run(machine, traits, full, row.ranks,
                                          row.ranks_per_node, row.heur);
    if (base_correct == 0) base_correct = run.correct_seconds();
    table.row()
        .cell(row.name)
        .cell(row.ranks)
        .cell_fixed(run.construct_seconds(), 1)
        .cell_fixed(run.correct_seconds(), 1)
        .cell_fixed(run.max_comm_seconds(), 1)
        .cell_fixed(run.max_memory_mb(), 1)
        .cell_fixed(run.correct_seconds() / base_correct, 2);
  }
  table.print(std::cout);

  // --- functional comparison at 8 ranks -------------------------------------
  std::printf("\nfunctional comparison (8 ranks, scaled replica, measured):\n");
  const auto ds = bench::scaled_replica(full, 3000, 5);
  parallel::DistConfig config;
  config.params = bench::bench_params();
  config.trace = trace;
  config.run_options.check.enabled = false;  // benchmark: no rtm-check hooks
  config.params.chunk_size = 256;
  config.ranks = 8;
  config.ranks_per_node = 4;

  stats::TextTable fn({"heuristic", "remote lookups", "wire IDs", "probes",
                       "served", "prefetch hits", "filter neg",
                       "peak MB (max rank)"});
  const Row fn_rows[] = {
      {"base", 8, 4, h([](auto&) {}), "base"},
      {"universal", 8, 4, h([](auto& x) { x.universal = true; }), "universal"},
      {"read kmers", 8, 4, h([](auto& x) { x.read_kmers = true; }),
       "read_kmers"},
      {"add remote", 8, 4,
       h([](auto& x) { x.read_kmers = x.add_remote = true; }), "add_remote"},
      {"allgather tiles", 8, 4, h([](auto& x) { x.allgather_tiles = true; }),
       "allgather_tiles"},
      {"allgather both", 8, 4,
       h([](auto& x) { x.allgather_kmers = x.allgather_tiles = true; }),
       "allgather_both"},
      {"batch reads", 8, 4, h([](auto& x) { x.batch_reads = true; }),
       "batch_reads"},
      // Extension: the chunk wavefront (DESIGN.md §4b), the default mode.
      {"batched lookups", 8, 4, h([](auto& x) { x.batch_lookups = true; }),
       "batched_lookups"},
      {"batched + read kmers", 8, 4,
       h([](auto& x) { x.batch_lookups = x.read_kmers = true; }),
       "batched_read_kmers"},
      // Extension: filter exchange (DESIGN.md §9) — definite absences are
      // answered from the peer's Bloom filter without touching the wire.
      {"filtered lookups", 8, 4, h([](auto& x) { x.filter_lookups = true; }),
       "filtered"},
      {"filtered + batched", 8, 4,
       h([](auto& x) { x.filter_lookups = x.batch_lookups = true; }),
       "filtered_batched"},
  };
  // wire_ids: every ID that crossed the wire, scalar round trips plus IDs
  // in batch requests. The wavefront rows send ~no scalar lookups, so this
  // is where a filter's saving shows for them.
  struct JsonRow {
    const char* slug;
    std::uint64_t remote_lookups;
    std::uint64_t wire_ids;
    std::uint64_t filter_neg_hits;
    std::uint64_t filter_false_positives;
    std::uint64_t substitutions;
    std::uint64_t reads_changed;
    std::uint64_t sent_msgs;
  };
  std::vector<JsonRow> json_rows;
  parallel::DistResult batched_result;
  for (const Row& row : fn_rows) {
    config.heuristics = row.heur;
    auto result = parallel::run_distributed(ds.reads, config);
    stats::PhaseTimeline total;  // counters summed over ranks
    std::uint64_t sent_msgs = 0;
    std::size_t peak = 0;
    for (const auto& r : result.ranks) {
      total += r.timeline();
      sent_msgs += r.traffic.sent_msgs();
      peak = std::max({peak, r.construction_peak_bytes,
                       r.footprint_after_correction.bytes});
    }
    const std::uint64_t remote = total.remote.remote_lookups();
    const std::uint64_t wire_ids = remote + total.remote.batch_ids();
    fn.row()
        .cell(row.name)
        .cell(remote)
        .cell(wire_ids)
        .cell(total.service.probe_calls)
        .cell(total.service.requests_served)
        .cell(total.remote.prefetch_hits)
        .cell(total.remote.filter_neg_hits)
        .cell_fixed(static_cast<double>(peak) / (1 << 20), 2);
    if (row.slug != nullptr) {
      json_rows.push_back({row.slug, remote, wire_ids,
                           total.remote.filter_neg_hits,
                           total.remote.filter_false_positives,
                           total.substitutions, total.reads_changed,
                           sent_msgs});
    }
    if (row.slug != nullptr && std::strcmp(row.slug, "batched_lookups") == 0) {
      batched_result = std::move(result);
    }
  }
  fn.print(std::cout);

  // Machine-readable summary for the CI bench gate: every counter here is
  // deterministic (seeded dataset, fixed topology, fault-free run), so the
  // gate does exact comparison against bench/baselines/BENCH_fig5.json.
  if (!args.json_path.empty()) {
    std::FILE* out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"schema\": \"reptile-bench-fig5-v1\",\n"
                      "  \"rows\": {\n");
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const JsonRow& r = json_rows[i];
      std::fprintf(
          out,
          "    \"%s\": {\"remote_lookups\": %llu, \"wire_ids\": %llu, "
          "\"filter_neg_hits\": %llu, "
          "\"filter_false_positives\": %llu, \"substitutions\": %llu, "
          "\"reads_changed\": %llu, \"sent_msgs\": %llu}%s\n",
          r.slug, static_cast<unsigned long long>(r.remote_lookups),
          static_cast<unsigned long long>(r.wire_ids),
          static_cast<unsigned long long>(r.filter_neg_hits),
          static_cast<unsigned long long>(r.filter_false_positives),
          static_cast<unsigned long long>(r.substitutions),
          static_cast<unsigned long long>(r.reads_changed),
          static_cast<unsigned long long>(r.sent_msgs),
          i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s\n", args.json_path.c_str());
  }

  // Machine-readable per-rank report of the batched-lookups run (batch and
  // prefetch counters included).
  std::printf("\n%s\n",
              parallel::to_report(batched_result, "fig5_batched_lookups")
                  .to_json()
                  .c_str());
  return 0;
}
