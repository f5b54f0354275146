// Batched remote lookups (batch_lookups, the chunk wavefront): wire format,
// the service's vectored reply path, identity of the wavefront-cached
// correction with the sequential baseline, multi-worker reply routing, and
// the bounded caches' eviction behaviour. The full identity sweep is in
// test_wavefront.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

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

TEST(BatchWire, RoundTripsIdsAndHeader) {
  const std::vector<std::uint64_t> ids = {0, 1, 42, ~std::uint64_t{0},
                                          0xdeadbeefcafe1234ull};
  std::vector<std::uint8_t> buf;
  encode_batch_request(LookupKind::kTile, 1027,
                       std::span<const std::uint64_t>(ids.data(), ids.size()),
                       buf);
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader) + ids.size() * 8);
  const BatchLookupRequest req = decode_batch_request(buf.data(), buf.size());
  EXPECT_EQ(req.kind, LookupKind::kTile);
  EXPECT_EQ(req.reply_to, 1027);
  EXPECT_EQ(req.ids, ids);
}

TEST(BatchWire, RoundTripsEmptyRequest) {
  std::vector<std::uint8_t> buf;
  encode_batch_request(LookupKind::kKmer, kTagBatchReplyBase, {}, buf);
  EXPECT_EQ(buf.size(), sizeof(BatchLookupHeader));
  const BatchLookupRequest req = decode_batch_request(buf.data(), buf.size());
  EXPECT_EQ(req.kind, LookupKind::kKmer);
  EXPECT_TRUE(req.ids.empty());
}

TEST(BatchWire, RejectsMalformedBuffers) {
  std::vector<std::uint8_t> buf;
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  encode_batch_request(LookupKind::kKmer, kTagBatchReplyBase,
                       std::span<const std::uint64_t>(ids.data(), ids.size()),
                       buf);
  // Truncated header.
  EXPECT_THROW(decode_batch_request(buf.data(), sizeof(BatchLookupHeader) - 1),
               std::runtime_error);
  // Body shorter than the header's count promises.
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size() - 8),
               std::runtime_error);
  // Trailing garbage beyond count * 8.
  buf.push_back(0);
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size()),
               std::runtime_error);
  buf.pop_back();
  // Unknown kind.
  buf[0] = 7;
  EXPECT_THROW(decode_batch_request(buf.data(), buf.size()),
               std::runtime_error);
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
      spectrum.hash_kmers().for_each([&](std::uint64_t id, std::uint32_t c) {
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

    comm.reset_done();
    if (comm.rank() == 0) {
      LookupService service(comm, spectrum);
      std::thread server([&service] { service.serve(); });
      comm.signal_done();
      server.join();
      stats = service.stats();
    } else {
      const std::vector<std::uint64_t> ids = {probe_id, ~std::uint64_t{0}};
      std::vector<std::uint8_t> buf;
      const int reply_to = batch_reply_tag(LookupKind::kKmer, 0);
      encode_batch_request(
          LookupKind::kKmer, reply_to,
          std::span<const std::uint64_t>(ids.data(), ids.size()), buf);
      comm.send<std::uint8_t>(
          0, kTagBatchRequest,
          std::span<const std::uint8_t>(buf.data(), buf.size()));
      const auto reply = decode_batch_reply(comm.recv(0, reply_to).payload);
      EXPECT_EQ(reply.seq, 0u);  // unsequenced request echoes seq 0
      ASSERT_EQ(reply.counts.size(), 2u);
      EXPECT_EQ(reply.counts[0], static_cast<std::int32_t>(probe_count));
      EXPECT_EQ(reply.counts[1], -1);  // absent IDs reply -1, index-aligned
      comm.signal_done();
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

TEST(BatchedLookups, AddRemoteWithWorkersNeedsBatchLookups) {
  DistConfig config;
  config.params = test_params();
  config.ranks = 2;
  config.worker_threads = 2;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  // Without batch_lookups the shared reads-table cache is not thread-safe.
  config.heuristics.batch_lookups = false;
  EXPECT_THROW(run_distributed(dataset().reads, config),
               std::invalid_argument);
  // With it, replies go to worker-private caches and the combination runs.
  config.heuristics.batch_lookups = true;
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
    comm.reset_done();
    if (comm.rank() == 0) {
      LookupService service(comm, spectrum);
      std::thread server([&service] { service.serve(); });
      comm.signal_done();
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
      comm.signal_done();
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

// ---- bounded caches --------------------------------------------------------

TEST(RemoteCache, EvictsOldestBeyondCapacity) {
  core::CorrectorParams p = test_params();
  p.remote_cache_capacity = 4;
  rtm::run_world({1, 1}, [&](rtm::Comm& comm) {
    Heuristics h;
    h.read_kmers = true;
    h.add_remote = true;
    DistSpectrum spectrum(p, h, comm);
    for (std::uint64_t id = 0; id < 10; ++id) {
      spectrum.cache_remote_kmer(id, static_cast<std::uint32_t>(id + 1));
    }
    // FIFO: only the 4 newest replies survive.
    for (std::uint64_t id = 0; id < 6; ++id) {
      EXPECT_FALSE(spectrum.reads_kmer(id).has_value()) << "id " << id;
    }
    for (std::uint64_t id = 6; id < 10; ++id) {
      const auto c = spectrum.reads_kmer(id);
      ASSERT_TRUE(c.has_value()) << "id " << id;
      EXPECT_EQ(*c, static_cast<std::uint32_t>(id + 1));
    }
    // Re-caching an evicted ID readmits it (and evicts the then-oldest).
    spectrum.cache_remote_kmer(0, 1);
    EXPECT_TRUE(spectrum.reads_kmer(0).has_value());
    EXPECT_FALSE(spectrum.reads_kmer(6).has_value());
  });
}

TEST(RemoteCache, CapacityOneIsLegalAndIdentical) {
  DistConfig config;
  config.params = test_params();
  config.params.remote_cache_capacity = 1;
  config.ranks = 4;
  config.heuristics.read_kmers = true;
  config.heuristics.add_remote = true;
  const auto result = run_distributed(dataset().reads, config);
  expect_identical_to_sequential(result);
}

TEST(RemoteCache, ZeroCapacitiesRejected) {
  core::CorrectorParams p = test_params();
  p.prefetch_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.remote_cache_capacity = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace reptile::parallel
