// Batched remote lookups (batch_lookups, the chunk wavefront): wire format,
// the service's vectored reply path, identity of the wavefront-cached
// correction with the sequential baseline, multi-worker reply routing, the
// one-pass chunk correction against the two-pass composition, and the
// bounded caches' eviction behaviour. The full identity sweep is in
// test_wavefront.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/spectrum.hpp"
#include "hash/hashing.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/wire.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams test_params() {
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  p.chunk_size = 64;
  return p;
}

const seq::SyntheticDataset& dataset() {
  static const seq::SyntheticDataset ds = [] {
    seq::DatasetSpec spec{"batch", 1200, 70, 2000};
    seq::ErrorModelParams errors;
    errors.error_rate_start = 0.005;
    errors.error_rate_end = 0.012;
    return seq::SyntheticDataset::generate(spec, errors, 4242);
  }();
  return ds;
}

const core::SequentialResult& sequential_reference() {
  static const core::SequentialResult ref =
      core::run_sequential(dataset().reads, test_params());
  return ref;
}

void expect_identical_to_sequential(const DistResult& result) {
  const auto& ref = sequential_reference();
  ASSERT_EQ(result.corrected.size(), ref.corrected.size());
  for (std::size_t i = 0; i < ref.corrected.size(); ++i) {
    ASSERT_EQ(result.corrected[i].number, ref.corrected[i].number);
    ASSERT_EQ(result.corrected[i].bases, ref.corrected[i].bases)
        << "read " << ref.corrected[i].number;
  }
  EXPECT_EQ(result.total_substitutions(), ref.substitutions);
}

// ---- wire format -----------------------------------------------------------

/// Encodes one batch request into a buffer of exactly its wire size.
std::vector<std::byte> encode_request(LookupKind kind, int reply_to,
                                      const std::vector<std::uint64_t>& ids) {
  std::vector<std::byte> buf(batch_request_bytes(ids.size()));
  encode_batch_request_into(
      buf.data(), kind, reply_to,
      std::span<const std::uint64_t>(ids.data(), ids.size()));
  return buf;
}

std::span<const std::byte> prefix(const std::vector<std::byte>& buf,
                                  std::size_t len) {
  return std::span<const std::byte>(buf.data(), len);
}

TEST(BatchWire, RoundTripsIdsAndHeader) {
  const std::vector<std::uint64_t> ids = {0, 1, 42, ~std::uint64_t{0},
                                          0xdeadbeefcafe1234ull};
  const auto buf = encode_request(LookupKind::kTile, 1027, ids);
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader) + ids.size() * 8);
  const BatchRequestView req = view_batch_request(buf);
  EXPECT_EQ(req.kind, LookupKind::kTile);
  EXPECT_EQ(req.reply_to, 1027);
  ASSERT_EQ(req.count, ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(req.id(i), ids[i]);
}

TEST(BatchWire, RoundTripsEmptyRequest) {
  const auto buf = encode_request(LookupKind::kKmer, kTagBatchReplyBase, {});
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader));
  const BatchRequestView req = view_batch_request(buf);
  EXPECT_EQ(req.kind, LookupKind::kKmer);
  EXPECT_EQ(req.count, 0u);
}

TEST(BatchWire, RejectsMalformedBuffers) {
  auto buf = encode_request(LookupKind::kKmer, kTagBatchReplyBase, {1, 2, 3});
  // Truncated header.
  EXPECT_THROW(view_batch_request(prefix(buf, sizeof(BatchLookupHeader) - 1)),
               std::runtime_error);
  // Body shorter than the header's count promises.
  EXPECT_THROW(view_batch_request(prefix(buf, buf.size() - 8)),
               std::runtime_error);
  // Trailing garbage beyond count * 8.
  buf.push_back(std::byte{0});
  EXPECT_THROW(view_batch_request(buf), std::runtime_error);
  buf.pop_back();
  // Unknown kind.
  buf[0] = std::byte{7};
  EXPECT_THROW(view_batch_request(buf), std::runtime_error);
}

// ---- service protocol ------------------------------------------------------

TEST(BatchProtocol, ServiceAnswersVectoredRequest) {
  seq::DatasetSpec spec{"svc", 100, 40, 400};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 123);
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;

  ServiceStats stats;
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(p, Heuristics{}, comm);
    if (comm.rank() == 0) {
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    }
    spectrum.exchange_to_owners();

    // Rank 0 tells the driver a k-mer it owns, and its count.
    std::uint64_t probe_id = 0;
    std::uint32_t probe_count = 0;
    if (comm.rank() == 0) {
      spectrum.owned_table(LookupKind::kKmer)
          .for_each([&](std::uint64_t id, std::uint32_t c) {
        if (probe_count == 0) {
          probe_id = id;
          probe_count = c;
        }
      });
      comm.send_value(1, 99, probe_id);
      comm.send_value(1, 98, static_cast<std::uint64_t>(probe_count));
    } else {
      probe_id = comm.recv(0, 99).as_value<std::uint64_t>();
      probe_count = static_cast<std::uint32_t>(
          comm.recv(0, 98).as_value<std::uint64_t>());
    }

    if (comm.rank() == 0) {
      LookupService service(comm, spectrum, spectrum.heuristics().universal);
      std::thread server([&service] { service.serve(); });
      end_correction_phase(comm, /*stop_service=*/true);
      server.join();
      stats = service.stats();
    } else {
      const std::vector<std::uint64_t> ids = {probe_id, ~std::uint64_t{0}};
      const int reply_to = batch_reply_tag(LookupKind::kKmer, 0);
      rtm::Payload payload = comm.make_payload(batch_request_bytes(ids.size()));
      encode_batch_request_into(
          payload.data(), LookupKind::kKmer, reply_to,
          std::span<const std::uint64_t>(ids.data(), ids.size()));
      comm.send_payload(0, kTagBatchRequest, std::move(payload));
      const rtm::Message msg = comm.recv(0, reply_to);
      const BatchReplyView reply = view_batch_reply(msg.payload);
      EXPECT_EQ(reply.seq, 0u);  // unsequenced request echoes seq 0
      ASSERT_EQ(reply.count, 2u);
      EXPECT_EQ(reply.count_at(0), static_cast<std::int32_t>(probe_count));
      EXPECT_EQ(reply.count_at(1), -1);  // absent IDs reply -1, index-aligned
      end_correction_phase(comm, /*stop_service=*/false);
    }
    comm.barrier();
  });
  EXPECT_EQ(stats.batch_requests, 1u);
  EXPECT_EQ(stats.batch_ids_served, 2u);
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_EQ(stats.absent_replies, 1u);
}

// ---- identity with the sequential baseline ---------------------------------

struct BatchedCase {
  const char* name;
  int ranks;
  Heuristics heur;
};

class BatchedIdentity : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(BatchedIdentity, MatchesSequential) {
  DistConfig config;
  config.params = test_params();
  config.ranks = GetParam().ranks;
  config.ranks_per_node = 2;
  config.heuristics = GetParam().heur;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
  if (config.heuristics.add_remote) {
    // Fault-free, the wavefront leaves no scalar reply for add_remote to
    // cache: correction writes nothing into the reads tables.
    for (const auto& r : result.ranks) {
      EXPECT_EQ(r.footprint_after_correction.reads_kmer_entries,
                r.footprint_after_construction.reads_kmer_entries)
          << "rank " << r.rank;
      EXPECT_EQ(r.footprint_after_correction.reads_tile_entries,
                r.footprint_after_construction.reads_tile_entries)
          << "rank " << r.rank;
    }
  }
}

Heuristics with_flags(bool universal, bool read_kmers, bool add_remote,
                      int group = 1) {
  Heuristics h;
  h.universal = universal;
  h.read_kmers = read_kmers;
  h.add_remote = add_remote;
  h.partial_replication_group = group;
  return h;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchedIdentity,
    ::testing::Values(
        BatchedCase{"r2_base", 2, with_flags(false, false, false)},
        BatchedCase{"r4_base", 4, with_flags(false, false, false)},
        BatchedCase{"r8_base", 8, with_flags(false, false, false)},
        BatchedCase{"r4_read_kmers", 4, with_flags(false, true, false)},
        BatchedCase{"r4_universal", 4, with_flags(true, false, false)},
        BatchedCase{"r4_add_remote", 4, with_flags(false, true, true)},
        BatchedCase{"r4_partial_repl", 4, with_flags(false, false, false, 2)}),
    [](const ::testing::TestParamInfo<BatchedCase>& info) {
      return info.param.name;
    });

TEST(BatchedLookups, TinyPrefetchCapacityStaysIdentical) {
  // When the cap truncates the prefetch set, the overflow must simply fall
  // back to scalar lookups — never change the output.
  DistConfig config;
  config.params = test_params();
  config.params.prefetch_capacity = 8;
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

TEST(BatchedLookups, ChaosDeliveryStaysIdentical) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  config.run_options.chaos.seed = 7;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

// ---- multi-worker routing --------------------------------------------------

TEST(BatchedLookups, MultiWorkerRepliesRouteToRightSlot) {
  DistConfig config;
  config.params = test_params();
  config.params.chunk_size = 32;  // plenty of worker interleaving
  config.ranks = 4;
  config.worker_threads = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
  std::uint64_t batch_requests = 0;
  for (const auto& r : result.ranks) {
    batch_requests += r.remote.batch_requests;
  }
  EXPECT_GT(batch_requests, 0u);
}

TEST(BatchedLookups, AddRemoteNeedsOneWorker) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  config.worker_threads = 2;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  // add_remote writes the shared reads tables, which are not thread-safe
  // to write, with or without the wavefront.
  for (const bool batch : {false, true}) {
    config.heuristics.batch_lookups = batch;
    EXPECT_THROW(run_distributed(dataset().reads, config),
                 std::invalid_argument)
        << "batch_lookups " << batch;
  }
  // With one worker the combination runs.
  config.worker_threads = 1;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

// ---- stats -----------------------------------------------------------------

TEST(BatchedLookups, PrefetchAbsorbsScalarLookups) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = false;  // the paper's scalar protocol
  const auto scalar = run_distributed(dataset().reads, config);
  config.heuristics.batch_lookups = true;
  const auto batched = run_distributed(dataset().reads, config);

  std::uint64_t scalar_remote = 0;
  for (const auto& r : scalar.ranks) {
    scalar_remote += r.remote.remote_lookups();
    EXPECT_EQ(r.remote.batch_requests, 0u);
    EXPECT_EQ(r.remote.prefetch_hits, 0u);
  }
  std::uint64_t batched_remote = 0, requests = 0, ids = 0, ids_raw = 0,
                 hits = 0, served = 0;
  for (const auto& r : batched.ranks) {
    batched_remote += r.remote.remote_lookups();
    requests += r.remote.batch_requests;
    ids += r.remote.batch_ids();
    ids_raw += r.remote.batch_ids_raw();
    hits += r.remote.prefetch_hits;
    served += r.service.batch_requests;
    EXPECT_GE(r.remote.dedup_ratio(), 0.0);
    EXPECT_LE(r.remote.prefetch_hit_rate(), 1.0);
  }
  // Every remote lookup moves into vectored wavefront requests.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(batched_remote, scalar_remote);
  // A chunk repeats k-mers across overlapping reads: dedup must bite.
  EXPECT_LT(ids, ids_raw);
  // Vectored requests are far fewer than the IDs they carry.
  EXPECT_LT(requests, ids / 4);
}

TEST(BatchedLookups, DedupStatsSplitPerKind) {
  // Chunk dedup runs per kind (one seen-set per table): an ID numerically
  // present in both the k-mer and the tile request vectors of one chunk is
  // two distinct spectrum entries, so it must be counted — and sent — in
  // both tables. A merged counter would let a cross-kind dedup bug hide;
  // the per-kind split pins it.
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = true;
  const auto result = run_distributed(dataset().reads, config);
  std::uint64_t kmer_ids = 0, tile_ids = 0, kmer_raw = 0, tile_raw = 0;
  for (const auto& r : result.ranks) {
    kmer_ids += r.remote.batch_kmer_ids;
    tile_ids += r.remote.batch_tile_ids;
    kmer_raw += r.remote.batch_kmer_ids_raw;
    tile_raw += r.remote.batch_tile_ids_raw;
    // The summing accessors are definitionally the per-kind totals.
    EXPECT_EQ(r.remote.batch_ids(),
              r.remote.batch_kmer_ids + r.remote.batch_tile_ids);
    EXPECT_EQ(r.remote.batch_ids_raw(),
              r.remote.batch_kmer_ids_raw + r.remote.batch_tile_ids_raw);
    // Dedup can only shrink a kind's ID stream, never move IDs across
    // kinds: each kind's sent count is bounded by its own raw count.
    EXPECT_LE(r.remote.batch_kmer_ids, r.remote.batch_kmer_ids_raw);
    EXPECT_LE(r.remote.batch_tile_ids, r.remote.batch_tile_ids_raw);
  }
  // Both tables produce remote traffic on this dataset.
  EXPECT_GT(kmer_ids, 0u);
  EXPECT_GT(tile_ids, 0u);
  EXPECT_LE(kmer_ids, kmer_raw);
  EXPECT_LE(tile_ids, tile_raw);
}

/// Records the canonical ID of every lookup owned by `owner` before
/// answering from a local spectrum.
class OwnedLookupRecorder final : public core::SpectrumView {
 public:
  OwnedLookupRecorder(core::LocalSpectrum& base, int owner, int np)
      : base_(&base), owner_(owner), np_(np) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    const auto c = base_->canon_kmer(id);
    if (hash::owner_of(c, np_) == owner_) kmers.insert(c);
    return base_->kmer_count(id);
  }
  std::uint32_t tile_count(seq::tile_id_t id) override {
    const auto c = base_->canon_tile(id);
    if (hash::owner_of(c, np_) == owner_) tiles.insert(c);
    return base_->tile_count(id);
  }
  const core::LookupStats& stats() const override { return base_->stats(); }

  std::set<std::uint64_t> kmers;
  std::set<std::uint64_t> tiles;

 private:
  core::LocalSpectrum* base_;
  int owner_;
  int np_;
};

TEST(BatchedLookups, CrossKindIdCountedInBothTables) {
  // The chunk cache and the round buckets are per kind: an ID numerically
  // present as both a k-mer and a tile is two distinct spectrum entries
  // and must be fetched, counted and cached once PER KIND. With k=8 and
  // tile_overlap=2 a tile spans 14 bases, so the tile of a read AAAAAA+S
  // packs to the same number as the k-mer S. That tile (count 2) is below
  // the tile threshold, and the candidate CAAAAA+S (count 3) is solid, so
  // correcting the read looks up tile AAAAAA+S and, through the candidate,
  // k-mer S: one number, two kinds. The wavefront must send exactly the
  // remote IDs a local corrector looks up, per kind, and the corrected
  // bytes must match it.
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 3;
  p.canonical = false;  // keep the packed-ID construction literal

  const char* kSuffixes[] = {"CGTCAGGT", "GATTACAG", "TTGACCAA", "CCATGGTC",
                             "GTTCAAGC", "ACCTGTTG", "TGGCATCA", "CAGTTGCA"};
  seq::ReadBatch batch;
  std::vector<std::string> solid;
  for (const char* s : kSuffixes) {
    seq::Read r;
    r.number = static_cast<seq::seq_num_t>(batch.size() + 1);
    r.bases = std::string("AAAAAA") + s;
    r.quals.assign(r.bases.size(), 40);
    batch.push_back(r);
    batch.push_back(r);  // duplicate: raw counts grow, sent counts don't
    for (int i = 0; i < 3; ++i) solid.push_back(std::string("CAAAAA") + s);
  }

  // The reference: a local corrector, recording what it asks rank 0.
  core::LocalSpectrum local(p);
  for (const auto& r : batch) local.add_read(r.bases);
  for (const auto& b : solid) local.add_read(b);
  OwnedLookupRecorder recorder(local, /*owner=*/0, /*np=*/2);
  const core::TileCorrector corrector(p);
  seq::ReadBatch expected = batch;
  for (auto& r : expected) corrector.correct(r, recorder);
  // Some suffix is owned by rank 0, so its number is in both kinds' sets —
  // the exact case a cache or bucket shared across kinds corrupts.
  std::size_t overlap = 0;
  for (const auto id : recorder.tiles) overlap += recorder.kmers.count(id);
  ASSERT_GT(overlap, 0u);

  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    Heuristics h;
    h.batch_lookups = true;
    DistSpectrum spectrum(p, h, comm);
    if (comm.rank() == 0) {
      for (const auto& r : batch) spectrum.add_read(r.bases);
      for (const auto& b : solid) spectrum.add_read(b);
    }
    spectrum.exchange_to_owners();
    if (comm.rank() == 0) {
      LookupService service(comm, spectrum, spectrum.heuristics().universal);
      std::thread server([&service] { service.serve(); });
      end_correction_phase(comm, /*stop_service=*/true);
      server.join();
    } else {
      RemoteSpectrumView view(comm, spectrum);
      view.prefetch_chunk(batch);
      const auto& stats = view.remote_stats();
      EXPECT_EQ(stats.batch_kmer_ids, recorder.kmers.size());
      EXPECT_EQ(stats.batch_tile_ids, recorder.tiles.size());
      // Duplicated reads queue every ID twice; the round dedupe sends it
      // once.
      EXPECT_GT(stats.batch_kmer_ids_raw, stats.batch_kmer_ids);
      EXPECT_GT(stats.batch_tile_ids_raw, stats.batch_tile_ids);

      seq::ReadBatch got = batch;
      for (auto& r : got) corrector.correct(r, view);
      EXPECT_EQ(view.remote_stats().remote_lookups(), 0u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bases, expected[i].bases) << "read " << i;
      }
      end_correction_phase(comm, /*stop_service=*/false);
    }
    comm.barrier();
  });
}

TEST(BatchedLookups, FewerMessagesAndLargerPayloadsThanScalar) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 4;
  config.heuristics.batch_lookups = false;  // the paper's scalar protocol
  const auto scalar = run_distributed(dataset().reads, config);
  config.heuristics.batch_lookups = true;
  const auto batched = run_distributed(dataset().reads, config);
  std::uint64_t scalar_msgs = 0, batched_msgs = 0;
  std::uint64_t scalar_largest = 0, batched_largest = 0;
  for (const auto& r : scalar.ranks) {
    scalar_msgs += r.traffic.sent_msgs();
    scalar_largest = std::max(scalar_largest, r.traffic.largest_msg_bytes);
  }
  for (const auto& r : batched.ranks) {
    batched_msgs += r.traffic.sent_msgs();
    batched_largest = std::max(batched_largest, r.traffic.largest_msg_bytes);
  }
  EXPECT_LT(batched_msgs, scalar_msgs);
  EXPECT_GT(batched_largest, scalar_largest);
}

// ---- one-pass chunk correction --------------------------------------------

/// Expects every counter of `a` and `b` to be equal.
template <class S>
void expect_same_counters(const S& a, const S& b) {
  stats::for_each_counter(
      [](const auto& row, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << row.column;
      },
      a, b);
}

using ChunkCase = std::tuple<bool, bool>;  // read_kmers, filter_lookups

class OnePassChunk : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(OnePassChunk, EqualsPrefetchThenCorrect) {
  // correct_chunk lets the wavefront's final tile decisions stand as the
  // correction. It must equal the two-pass composition the tracing
  // decorators still run: prefetch_chunk, then correct() for each read,
  // each way through a fresh view on the same ranks. A second comparison
  // cuts prefetch_capacity to 3/4 of what the chunk fetches, so the
  // wavefront ends early and held reads continue on the view.
  const auto [read_kmers, filter] = GetParam();
  const core::CorrectorParams p = test_params();
  Heuristics h;
  h.read_kmers = read_kmers;
  h.filter_lookups = filter;
  const auto& all = dataset().reads;
  const seq::ReadBatch batch(all.begin(), all.begin() + 256);

  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(p, h, comm);
    for (std::size_t i = static_cast<std::size_t>(comm.rank());
         i < all.size(); i += 2) {
      spectrum.add_read(all[i].bases);
    }
    spectrum.exchange_to_owners();
    spectrum.prune();
    if (read_kmers) {
      spectrum.fetch_global_reads_tables();
    } else {
      spectrum.drop_reads_tables();
    }
    spectrum.exchange_filters(RetryPolicy{});
    LookupService service(comm, spectrum, spectrum.heuristics().universal);
    std::thread server([&service] { service.serve(); });
    // Corrects the batch both ways with `params`; returns the two-pass
    // view's remote counters.
    const auto compare = [&](const core::CorrectorParams& params) {
      seq::ReadBatch one_pass = batch;
      std::vector<core::ReadCorrection> got;
      RemoteSpectrumView a(comm, spectrum, 0, {}, nullptr, &params);
      a.correct_chunk(one_pass, got);

      seq::ReadBatch two_pass = batch;
      std::vector<core::ReadCorrection> want;
      RemoteSpectrumView b(comm, spectrum, 0, {}, nullptr, &params);
      b.prefetch_chunk(two_pass);
      const core::TileCorrector corrector(params);
      for (seq::Read& r : two_pass) want.push_back(corrector.correct(r, b));

      EXPECT_EQ(got.size(), want.size());
      std::size_t changed = 0;
      for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
        EXPECT_EQ(one_pass[i].bases, two_pass[i].bases) << "read " << i;
        EXPECT_EQ(got[i].substitutions, want[i].substitutions) << "read " << i;
        EXPECT_EQ(got[i].tiles_untrusted, want[i].tiles_untrusted)
            << "read " << i;
        EXPECT_EQ(got[i].tiles_fixed, want[i].tiles_fixed) << "read " << i;
        EXPECT_EQ(got[i].tiles_degraded, want[i].tiles_degraded)
            << "read " << i;
        changed += want[i].changed() ? 1 : 0;
      }
      EXPECT_GT(changed, 0u);
      expect_same_counters(a.stats(), b.stats());
      expect_same_counters(a.remote_stats(), b.remote_stats());
      EXPECT_GT(b.remote_stats().prefetch_hits, 0u);
      return b.remote_stats();
    };
    if (comm.rank() == 1) {
      const RemoteLookupStats full = compare(p);
      EXPECT_EQ(full.remote_lookups(), 0u);
      core::CorrectorParams early = p;
      early.prefetch_capacity = full.batch_ids() * 3 / 4;
      SCOPED_TRACE("prefetch_capacity " +
                   std::to_string(early.prefetch_capacity));
      const RemoteLookupStats ended = compare(early);
      // Reads advanced before the end, and lookups were left for the wire.
      EXPECT_GE(ended.wavefront_rounds, 2u);
      EXPECT_GT(ended.remote_lookups(), 0u);
    }
    end_correction_phase(comm, /*stop_service=*/true);
    server.join();
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Chains, OnePassChunk, ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ChunkCase>& info) {
      return std::string(std::get<0>(info.param) ? "read_kmers" : "no_reads") +
             (std::get<1>(info.param) ? "_filter" : "_no_filter");
    });

// ---- bounded caches --------------------------------------------------------

class RemoteCache : public ::testing::TestWithParam<LookupKind> {};

TEST_P(RemoteCache, EvictsOldestBeyondCapacityAndResetsPerJob) {
  const LookupKind kind = GetParam();
  const LookupKind other =
      kind == LookupKind::kKmer ? LookupKind::kTile : LookupKind::kKmer;
  core::CorrectorParams p = test_params();
  p.remote_cache_capacity = 4;
  rtm::run_world({1, 1}, [&](rtm::Comm& comm) {
    Heuristics h;
    h.read_kmers = true;
    h.add_remote = true;
    DistSpectrum spectrum(p, h, comm);
    for (std::uint64_t id = 0; id < 10; ++id) {
      spectrum.cache_remote(kind, id, static_cast<std::uint32_t>(id + 1));
    }
    // FIFO: only the 4 newest replies survive.
    for (std::uint64_t id = 0; id < 6; ++id) {
      EXPECT_FALSE(spectrum.reads(kind, id).has_value()) << "id " << id;
    }
    for (std::uint64_t id = 6; id < 10; ++id) {
      const auto c = spectrum.reads(kind, id);
      ASSERT_TRUE(c.has_value()) << "id " << id;
      EXPECT_EQ(*c, static_cast<std::uint32_t>(id + 1));
      // The other kind's table is a different spectrum.
      EXPECT_FALSE(spectrum.reads(other, id).has_value()) << "id " << id;
    }
    // Re-caching an evicted ID readmits it (and evicts the then-oldest).
    spectrum.cache_remote(kind, 0, 1);
    EXPECT_TRUE(spectrum.reads(kind, 0).has_value());
    EXPECT_FALSE(spectrum.reads(kind, 6).has_value());
    // A new job starts from the end-of-construction reads tables: every
    // cached reply is evicted, and the cache refills from empty.
    spectrum.reset_for_job();
    for (std::uint64_t id = 0; id < 10; ++id) {
      EXPECT_FALSE(spectrum.reads(kind, id).has_value()) << "id " << id;
    }
    spectrum.cache_remote(kind, 3, 7);
    EXPECT_EQ(spectrum.reads(kind, 3), 7u);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, RemoteCache,
                         ::testing::Values(LookupKind::kKmer,
                                           LookupKind::kTile),
                         [](const ::testing::TestParamInfo<LookupKind>& info) {
                           return info.param == LookupKind::kKmer ? "kmer"
                                                                  : "tile";
                         });

TEST(RemoteCacheConfig, CapacityOneIsLegalAndIdentical) {
  DistConfig config;
  config.params = test_params();
  config.params.remote_cache_capacity = 1;
  config.ranks = 4;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

TEST(RemoteCacheConfig, ZeroCapacitiesRejected) {
  core::CorrectorParams p = test_params();
  p.prefetch_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.remote_cache_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace reptile::parallel
