// Micro-benchmarks of the substrate data structures (google-benchmark).
//
// Includes the paper's Section II design contrast: Jammula et al. store the
// spectrum as sorted arrays searched by repeated binary search (improved to
// a cache-aware layout); this implementation uses hash tables instead,
// "prevent[ing] any need for sorting the arrays or for repeated binary
// searches". BM_SpectrumLookup_* quantifies that choice.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/corrector.hpp"
#include "core/spectrum.hpp"
#include "hash/count_table.hpp"
#include "hash/owner_filter.hpp"
#include "hash/sorted_spectrum.hpp"
#include "obs/metrics.hpp"
#include "parallel/chunk_cache.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/remote_spectrum.hpp"
#include "parallel/wire.hpp"
#include "rtm/mailbox.hpp"
#include "seq/dataset.hpp"
#include "seq/fasta_io.hpp"
#include "seq/kmer.hpp"
#include "seq/rng.hpp"
#include "stats/report.hpp"
#include "stats/stopwatch.hpp"
#include "stats/table.hpp"

namespace {

using namespace reptile;

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  seq::Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  return keys;
}

// --- hash table vs sorted-array binary search (paper Section II-B) --------

void BM_SpectrumLookup_HashTable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = random_keys(n, 1);
  auto table = hash::CountTable<>::frozen(n);  // a pruned spectrum's sizing
  for (auto k : keys) table.increment(k, 3);
  const auto probes = random_keys(n, 2);  // ~all misses, like candidate tiles
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i % n]));
    benchmark::DoNotOptimize(table.find(probes[i % n]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SpectrumLookup_HashTable)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_SpectrumLookup_SortedArray(benchmark::State& state) {
  // Shah et al.'s layout: (id, count) pairs sorted by id, binary search.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = random_keys(n, 1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  entries.reserve(n);
  for (auto k : keys) entries.emplace_back(k, 3);
  const auto table = hash::SortedCountArray::from_entries(std::move(entries));
  const auto probes = random_keys(n, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i % n]));
    benchmark::DoNotOptimize(table.find(probes[i % n]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SpectrumLookup_SortedArray)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Arg(1 << 22);

void BM_SpectrumLookup_CacheAware(benchmark::State& state) {
  // Jammula et al.'s improvement: (B+1)-ary cache-line-blocked layout,
  // O(log_{B+1} N) cache misses per search.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = random_keys(n, 1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  entries.reserve(n);
  for (auto k : keys) entries.emplace_back(k, 3);
  const auto table =
      hash::CacheAwareCountArray::from_entries(std::move(entries));
  const auto probes = random_keys(n, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i % n]));
    benchmark::DoNotOptimize(table.find(probes[i % n]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SpectrumLookup_CacheAware)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Arg(1 << 22);

// --- construction-side primitives ------------------------------------------

void BM_CountTableInsert(benchmark::State& state) {
  const auto keys = random_keys(1 << 16, 3);
  for (auto _ : state) {
    hash::CountTable<> table;
    for (auto k : keys) table.increment(k);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_CountTableInsert);

/// One CountTable lookup in a replicated tile table's shape: 101,010 keys
/// inserted by increment. Shape 0 is the frozen sizing every table read
/// after construction gets (CountTable::frozen, 262,144 slots, load 0.39);
/// shape 1 is the growing sizing those tables had before (131,072 slots,
/// load 0.77), kept so the ratio of the two is measured in one process.
/// BM_SpectrumLookup_HashTable mixes hits and misses 1:1; this row splits
/// them, and the miss row is the path ~95 % of the corrector's tile lookups
/// take. Arg miss0_hit1 = 0 looks up absent keys, 1 present ones.
void BM_CountTableFind(benchmark::State& state) {
  constexpr std::size_t kKeys = 101010;
  const bool frozen = state.range(0) == 0;
  const auto keys = random_keys(kKeys, 11);
  auto table = frozen ? hash::CountTable<>::frozen(kKeys)
                      : hash::CountTable<>(kKeys);
  for (const auto k : keys) table.increment(k, 3);
  if (table.capacity() != (frozen ? 262144u : 131072u)) {
    state.SkipWithError("table is not at the replica shape's slot count");
    return;
  }
  const auto& ids = state.range(1) == 0 ? random_keys(kKeys, 12) : keys;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(ids[i]));
    if (++i == ids.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountTableFind)
    ->ArgNames({"frozen0_growing1", "miss0_hit1"})
    ->ArgsProduct({{0, 1}, {0, 1}});

void BM_KmerExtraction(benchmark::State& state) {
  seq::DatasetSpec spec{"bench", 200, 102, 10000};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 4);
  const seq::KmerCodec codec(12);
  std::vector<seq::kmer_id_t> out;
  for (auto _ : state) {
    out.clear();
    for (const auto& r : ds.reads) codec.extract(r.bases, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(200 * (102 - 12 + 1)));
}
BENCHMARK(BM_KmerExtraction);

void BM_BloomFilterInsert(benchmark::State& state) {
  const auto keys = random_keys(1 << 16, 5);
  for (auto _ : state) {
    hash::OwnerFilter bf(1 << 16, 0.01);
    for (auto k : keys) benchmark::DoNotOptimize(bf.insert(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_BloomFilterInsert);

// --- correction throughput ---------------------------------------------------

void BM_CorrectRead(benchmark::State& state) {
  core::CorrectorParams params;
  params.k = 12;
  params.tile_overlap = 4;
  seq::DatasetSpec spec{"bench", 3000, 102, 4000};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.003;
  errors.error_rate_end = 0.01;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 6);
  core::LocalSpectrum spectrum(params);
  for (const auto& r : ds.reads) spectrum.add_read(r.bases);
  spectrum.prune();
  core::TileCorrector corrector(params);
  std::size_t i = 0;
  for (auto _ : state) {
    seq::Read copy = ds.reads[i % ds.reads.size()];
    benchmark::DoNotOptimize(corrector.correct(copy, spectrum));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CorrectRead);

// --- wavefront lookup layers (ungated ns/op) --------------------------------

/// One lookup in a chunk cache filled like a wavefront chunk: 25k cached
/// absences and a few hundred present counts. Arg 0 looks up present IDs,
/// 1 cached absences, 2 IDs the chunk never fetched.
void BM_ChunkCacheFind(benchmark::State& state) {
  const auto absent = random_keys(25000, 7);
  const auto present = random_keys(500, 8);
  const auto missing = random_keys(25000, 9);
  constexpr auto kTile = parallel::LookupKind::kTile;
  parallel::ChunkCache cache;
  for (const auto id : absent) cache.add_absent(id, kTile);
  for (const auto id : present) cache.add(id, kTile, 5);
  const std::vector<std::uint64_t>& ids =
      state.range(0) == 0 ? present : state.range(0) == 1 ? absent : missing;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(ids[i], kTile));
    if (++i == ids.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChunkCacheFind)
    ->ArgName("present0_absent1_miss2")
    ->DenseRange(0, 2);

/// The substitution positions of one untrusted tile (tile length 20, the
/// default four positions).
void BM_PickPositions(benchmark::State& state) {
  core::CorrectorParams params;
  const auto tile_len = static_cast<std::size_t>(params.tile_length());
  seq::Rng rng(10);
  std::vector<seq::qual_t> quals(4096);
  for (auto& q : quals) q = static_cast<seq::qual_t>(2 + rng.next() % 39);
  core::TilePositions out{};
  std::size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pick_positions(
        std::span<const seq::qual_t>(quals).subspan(at, tile_len), params,
        out));
    benchmark::DoNotOptimize(out.data());
    at = (at + 7) % (quals.size() - tile_len);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PickPositions);

// --- Step I input (ungated bytes/s) -----------------------------------------

/// A generated 20k-read FASTA + quality pair in a temporary directory,
/// written on first use and removed at exit.
struct ReadFiles {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "reptile_microbench_reads";
  std::filesystem::path fasta = dir / "reads.fa";
  std::filesystem::path qual = dir / "reads.qual";

  ReadFiles() {
    std::filesystem::create_directories(dir);
    seq::DatasetSpec spec{"bench", 20000, 102, 200000};
    seq::write_read_files(fasta, qual,
                          seq::SyntheticDataset::generate(spec, {}, 11).reads);
  }
  ReadFiles(const ReadFiles&) = delete;
  ReadFiles& operator=(const ReadFiles&) = delete;
  ~ReadFiles() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// One full pass of a single-rank PartitionedReadSource (the Step I parser);
/// bytes are base + quality bytes delivered, as perfbench's
/// seq.parse_mb_per_s counts them.
void BM_ReadPartition(benchmark::State& state) {
  static const ReadFiles files;
  seq::PartitionedReadSource source(files.fasta, files.qual, 0, 1);
  seq::ReadBatch batch;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    source.reset();
    while (source.next_chunk(1024, batch)) {
      for (const seq::Read& r : batch) {
        bytes += static_cast<std::int64_t>(r.bases.size() + r.quals.size());
      }
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ReadPartition)->Unit(benchmark::kMillisecond);

// --- messaging ----------------------------------------------------------------

void BM_MailboxPushPop(benchmark::State& state) {
  rtm::Mailbox mb;
  for (auto _ : state) {
    mb.push(rtm::Message::of_value(0, 1, std::uint64_t{42}));
    benchmark::DoNotOptimize(mb.try_pop({0, 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MailboxPushPop);

// --- scalar vs batched remote lookups ----------------------------------------

/// One measured configuration of the remote-lookup protocol comparison.
struct LookupRow {
  std::size_t batch_size = 1;  ///< 1 = scalar request/reply
  std::size_t lookups = 0;
  std::size_t messages = 0;  ///< request messages sent by the driver
  double seconds = 0;
};

/// Times `lookups` remote k-mer resolutions against a live LookupService
/// over a 2-rank world: the scalar one-request-per-ID protocol vs one
/// vectored request per `batch` IDs (the batch_lookups wire path). Same
/// IDs, same service, same runtime — the difference is purely the number of
/// round trips the driver blocks on.
std::vector<LookupRow> measure_remote_lookups(
    std::size_t lookups, const std::vector<std::size_t>& batch_sizes) {
  using namespace reptile::parallel;
  seq::DatasetSpec spec{"mb_remote", 2000, 70, 4000};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 97);
  core::CorrectorParams params;
  params.k = 12;
  params.tile_overlap = 4;
  params.kmer_threshold = 2;
  params.tile_threshold = 2;

  std::vector<LookupRow> rows;
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    // Rank 1 owns a populated shard and serves; rank 0 drives lookups.
    DistSpectrum spectrum(params, Heuristics{}, comm);
    if (comm.rank() == 1) {
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    }
    spectrum.exchange_to_owners();
    spectrum.prune();

    if (comm.rank() == 1) {
      std::vector<std::uint64_t> owned;
      spectrum.owned_table(LookupKind::kKmer).for_each(
          [&](std::uint64_t id, std::uint32_t) { owned.push_back(id); });
      comm.send<std::uint64_t>(
          0, 97, std::span<const std::uint64_t>(owned.data(), owned.size()));
      LookupService service(comm, spectrum, spectrum.heuristics().universal);
      std::thread server([&service] { service.serve(); });
      end_correction_phase(comm, /*stop_service=*/true);
      server.join();
    } else {
      auto ids = comm.recv(1, 97).as<std::uint64_t>();
      stats::Stopwatch clock;

      // Scalar baseline: one blocking round trip per lookup.
      LookupRow scalar;
      scalar.batch_size = 1;
      clock.restart();
      for (std::size_t i = 0; i < lookups; ++i) {
        LookupRequest req;
        req.id = ids[i % ids.size()];
        comm.send_value(1, kTagKmerRequest, req);
        benchmark::DoNotOptimize(
            comm.recv(1, kTagKmerReply).as_value<LookupReply>().count);
        ++scalar.messages;
        ++scalar.lookups;
      }
      scalar.seconds = clock.seconds();
      rows.push_back(scalar);

      // Batched: one vectored round trip per `batch` lookups, encoded
      // straight into an arena payload like the wavefront's requests.
      std::vector<std::uint64_t> group;
      for (const std::size_t batch : batch_sizes) {
        LookupRow row;
        row.batch_size = batch;
        clock.restart();
        for (std::size_t done = 0; done < lookups; done += group.size()) {
          group.clear();
          for (std::size_t j = 0; j < batch && done + j < lookups; ++j) {
            group.push_back(ids[(done + j) % ids.size()]);
          }
          rtm::Payload payload =
              comm.make_payload(batch_request_bytes(group.size()));
          encode_batch_request_into(
              payload.data(), LookupKind::kKmer,
              batch_reply_tag(LookupKind::kKmer),
              std::span<const std::uint64_t>(group.data(), group.size()));
          comm.send_payload(1, kTagBatchRequest, std::move(payload));
          const rtm::Message msg =
              comm.recv(1, batch_reply_tag(LookupKind::kKmer));
          const BatchReplyView reply = view_batch_reply(msg.payload);
          benchmark::DoNotOptimize(reply.counts);
          ++row.messages;
          row.lookups += reply.count;
        }
        row.seconds = clock.seconds();
        rows.push_back(row);
      }
      end_correction_phase(comm, /*stop_service=*/false);
    }
    comm.barrier();
  }, [] {
    rtm::RunOptions options;
    options.check.enabled = false;  // benchmark: no rtm-check hooks
    return options;
  }());
  return rows;
}

void report_remote_lookups() {
  std::printf("\n--- remote lookups: scalar request/reply vs batched "
              "(batch_lookups wire path) ---\n");
  const auto rows = measure_remote_lookups(20000, {16, 64, 256, 1024});
  const double scalar_ns =
      rows.front().seconds * 1e9 / static_cast<double>(rows.front().lookups);
  stats::TextTable table(
      {"mode", "batch_size", "lookups", "messages", "ns/lookup", "speedup"});
  stats::RunReport report("microbench_remote_lookups");
  for (const auto& r : rows) {
    const double ns =
        r.seconds * 1e9 / static_cast<double>(std::max<std::size_t>(r.lookups, 1));
    table.row()
        .cell(r.batch_size == 1 ? "scalar" : "batched")
        .cell(r.batch_size)
        .cell(r.lookups)
        .cell(r.messages)
        .cell_fixed(ns, 1)
        .cell_fixed(scalar_ns / ns, 2);
    report.record()
        .add("batch_size", static_cast<double>(r.batch_size))
        .add("lookups", static_cast<double>(r.lookups))
        .add("messages", static_cast<double>(r.messages))
        .add("seconds", r.seconds)
        .add("ns_per_lookup", ns);
  }
  table.print(std::cout);
  std::printf("%s\n", report.to_json().c_str());
}

// --- BENCH_rtm.json: the rtm runtime's recorded perf baseline ---------------
//
// Written by `microbench --rtm-json=PATH` and diffed against the checked-in
// bench/baselines/BENCH_rtm.json by tools/bench_gate.py in CI. The gate only
// compares machine-independent fields — the fast/locked REDUCTION ratios and
// the exact message/byte counts of the seeded workloads; absolute
// nanoseconds are recorded for the trajectory but never gated.

/// Single-thread push/try_pop round trips through one mailbox; the purest
/// view of the per-message mailbox cost on each path.
double mailbox_loop_ns(bool fast, std::size_t iters) {
  rtm::Mailbox mb;
  mb.set_fast_path(fast);
  stats::Stopwatch clock;
  for (std::size_t i = 0; i < iters; ++i) {
    mb.push(rtm::Message::of_value(0, 1, static_cast<std::uint64_t>(i)));
    benchmark::DoNotOptimize(mb.try_pop({0, 1}));
  }
  return clock.seconds() * 1e9 / static_cast<double>(iters);
}

struct PingPongResult {
  double ns_per_msg = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  rtm::MailboxStats mailbox;  ///< rank 1's (the echo side's) path counters
};

/// Two-rank blocking ping-pong through the full send/recv stack (arena
/// payloads, traffic counters, blocked receives) — the realistic
/// per-message cost including the wakeup machinery.
PingPongResult pingpong(bool fast, int rounds) {
  rtm::RunOptions options;
  options.check.enabled = false;
  options.mailbox_fast_path = fast;
  PingPongResult res;
  double seconds = 0;
  auto world = rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        comm.barrier();  // exclude thread spawn from the timed window
        stats::Stopwatch clock;
        if (comm.rank() == 0) {
          for (int i = 0; i < rounds; ++i) {
            comm.send_value(1, 3, static_cast<std::uint64_t>(i));
            benchmark::DoNotOptimize(comm.recv(1, 4));
          }
          seconds = clock.seconds();
        } else {
          for (int i = 0; i < rounds; ++i) {
            const rtm::Message m = comm.recv(0, 3);
            comm.send_value(0, 4, m.as_value<std::uint64_t>());
          }
        }
        comm.barrier();
      },
      options);
  res.ns_per_msg = seconds * 1e9 / (2.0 * rounds);
  const auto t0 = world->traffic().snapshot(0);
  const auto t1 = world->traffic().snapshot(1);
  res.msgs = t0.sent_msgs() + t1.sent_msgs();
  res.bytes = t0.sent_bytes() + t1.sent_bytes();
  res.mailbox = world->mailbox(1).stats();
  return res;
}

struct RttResult {
  std::uint64_t lookups = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  obs::HistogramSummary rtt;      ///< reptile_lookup_rtt_us, requester rank
  obs::HistogramSummary wait;     ///< reptile_mailbox_wait_us, requester rank
};

/// Scalar remote lookups against a live LookupService with the obs registry
/// armed: populates the lookup-RTT and mailbox-wait histograms the baseline
/// records its latency quantiles from.
RttResult measure_lookup_rtt(std::size_t lookups) {
  using namespace reptile::parallel;
  seq::DatasetSpec spec{"rtm_rtt", 2000, 70, 4000};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 97);
  core::CorrectorParams params;
  params.k = 12;
  params.tile_overlap = 4;

  obs::Registry::global().configure(true);
  RttResult res;
  res.lookups = lookups;
  auto world = rtm::run_world(
      {2, 1},
      [&](rtm::Comm& comm) {
        DistSpectrum spectrum(params, Heuristics{}, comm);
        if (comm.rank() == 1) {
          for (const auto& r : ds.reads) spectrum.add_read(r.bases);
        }
        spectrum.exchange_to_owners();
        if (comm.rank() == 1) {
          std::vector<std::uint64_t> owned;
          spectrum.owned_table(LookupKind::kKmer).for_each(
              [&](std::uint64_t id, std::uint32_t) { owned.push_back(id); });
          comm.send<std::uint64_t>(
              0, 97, std::span<const std::uint64_t>(owned.data(), owned.size()));
          LookupService service(comm, spectrum,
                                spectrum.heuristics().universal);
          std::thread server([&service] { service.serve(); });
          end_correction_phase(comm, /*stop_service=*/true);
          server.join();
        } else {
          const auto ids = comm.recv(1, 97).as<std::uint64_t>();
          RemoteSpectrumView view(comm, spectrum);
          for (std::size_t i = 0; i < lookups; ++i) {
            benchmark::DoNotOptimize(view.kmer_count(ids[i % ids.size()]));
          }
          end_correction_phase(comm, /*stop_service=*/false);
        }
        comm.barrier();
      },
      [] {
        rtm::RunOptions options;
        options.check.enabled = false;
        return options;
      }());
  const auto t0 = world->traffic().snapshot(0);
  const auto t1 = world->traffic().snapshot(1);
  res.msgs = t0.sent_msgs() + t1.sent_msgs();
  res.bytes = t0.sent_bytes() + t1.sent_bytes();
  res.rtt = obs::Registry::global().histogram_summary("reptile_lookup_rtt_us", 0);
  res.wait =
      obs::Registry::global().histogram_summary("reptile_mailbox_wait_us", 0);
  obs::Registry::global().configure(false);
  return res;
}

void write_histogram_json(std::ofstream& out, const char* key,
                          const obs::HistogramSummary& h, const char* indent) {
  out << indent << "\"" << key << "\": {\"count\": " << h.count
      << ", \"p50_us\": " << h.p50 << ", \"p99_us\": " << h.p99
      << ", \"max_us\": " << h.max << "}";
}

int emit_rtm_json(const std::string& path) {
  constexpr std::size_t kLoopIters = 200000;
  constexpr int kPingPongRounds = 20000;
  constexpr std::size_t kRttLookups = 5000;
  const auto best_of = [](int reps, const auto& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) best = std::min(best, fn());
    return best;
  };

  std::printf("\n--- rtm runtime baseline (BENCH_rtm.json) ---\n");
  (void)mailbox_loop_ns(true, kLoopIters / 4);  // warm up allocators
  const double locked_loop_ns =
      best_of(3, [&] { return mailbox_loop_ns(false, kLoopIters); });
  const double fast_loop_ns =
      best_of(3, [&] { return mailbox_loop_ns(true, kLoopIters); });
  const double loop_reduction =
      100.0 * (locked_loop_ns - fast_loop_ns) / locked_loop_ns;

  PingPongResult locked_pp;
  PingPongResult fast_pp;
  locked_pp.ns_per_msg = 1e300;
  fast_pp.ns_per_msg = 1e300;
  for (int i = 0; i < 3; ++i) {
    PingPongResult r = pingpong(false, kPingPongRounds);
    if (r.ns_per_msg < locked_pp.ns_per_msg) locked_pp = r;
    r = pingpong(true, kPingPongRounds);
    if (r.ns_per_msg < fast_pp.ns_per_msg) fast_pp = r;
  }
  const double pp_reduction = 100.0 *
                              (locked_pp.ns_per_msg - fast_pp.ns_per_msg) /
                              locked_pp.ns_per_msg;
  const RttResult rtt = measure_lookup_rtt(kRttLookups);

  std::printf("mailbox loop : locked %.1f ns/msg, fast %.1f ns/msg "
              "(%.1f%% reduction)\n",
              locked_loop_ns, fast_loop_ns, loop_reduction);
  std::printf("ping-pong    : locked %.1f ns/msg, fast %.1f ns/msg "
              "(%.1f%% reduction), %llu msgs, %llu bytes\n",
              locked_pp.ns_per_msg, fast_pp.ns_per_msg, pp_reduction,
              static_cast<unsigned long long>(fast_pp.msgs),
              static_cast<unsigned long long>(fast_pp.bytes));
  std::printf("lookup rtt   : p50 <= %llu us, p99 <= %llu us over %llu lookups\n",
              static_cast<unsigned long long>(rtt.rtt.p50),
              static_cast<unsigned long long>(rtt.rtt.p99),
              static_cast<unsigned long long>(rtt.lookups));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"schema\": 1,\n";
  out << "  \"mailbox_loop\": {\"iters\": " << kLoopIters
      << ", \"locked_ns_per_msg\": " << locked_loop_ns
      << ", \"fast_ns_per_msg\": " << fast_loop_ns
      << ", \"reduction_pct\": " << loop_reduction << "},\n";
  out << "  \"pingpong\": {\"rounds\": " << kPingPongRounds
      << ", \"msgs\": " << fast_pp.msgs << ", \"bytes\": " << fast_pp.bytes
      << ", \"locked_ns_per_msg\": " << locked_pp.ns_per_msg
      << ", \"fast_ns_per_msg\": " << fast_pp.ns_per_msg
      << ", \"reduction_pct\": " << pp_reduction
      << ", \"fast_pushes\": " << fast_pp.mailbox.fast_pushes
      << ", \"locked_run_fast_pushes\": " << locked_pp.mailbox.fast_pushes
      << "},\n";
  out << "  \"lookup\": {\"lookups\": " << rtt.lookups
      << ", \"msgs\": " << rtt.msgs << ", \"bytes\": " << rtt.bytes << "},\n";
  write_histogram_json(out, "lookup_rtt_us", rtt.rtt, "  ");
  out << ",\n";
  write_histogram_json(out, "mailbox_wait_us", rtt.wait, "  ");
  out << "\n}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --rtm-json=PATH is ours, not google-benchmark's: strip it before
  // Initialize so ReportUnrecognizedArguments stays clean.
  std::string rtm_json;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--rtm-json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      rtm_json = argv[i] + std::strlen(kFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!rtm_json.empty()) return emit_rtm_json(rtm_json);
  report_remote_lookups();
  return 0;
}
