// obs::ResourceLedger — differential exactness of the byte accounts.
//
// The contract under test:
//   * every instrumented structure's memory_bytes() equals the ledger
//     balance of its account at all times — across growth, shrinkage,
//     clear() and destruction (the "one source of truth" fold: the ad-hoc
//     construction-peak field now reads the same charge);
//   * LedgerCharge handles re-base across configure() generations, carry
//     their balance through moves and bind(), and track recorded()/
//     local_peak() unconditionally (ledger on or off);
//   * peaks are high-water marks per account AND for the live total;
//   * disabled ledger: add/sub are no-ops and balances stay zero;
//   * the chunk wavefront bills its buffers to remote_cache and a serve
//     job releases them when it ends;
//   * RssSampler records an OS-observed peak and keeps sampling until
//     stop(); publish_ledger_metrics renders the labelled gauges.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hash/count_table.hpp"
#include "hash/owner_filter.hpp"
#include "hash/sorted_spectrum.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "parallel/admission.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/lookup_service.hpp"
#include "parallel/remote_spectrum.hpp"
#include "parallel/serve.hpp"
#include "rtm/comm.hpp"
#include "rtm/mailbox.hpp"
#include "rtm/message.hpp"
#include "seq/chunk_stream.hpp"
#include "seq/dataset.hpp"
#include "seq/read.hpp"

namespace reptile {
namespace {

using obs::LedgerAccount;
using obs::LedgerCharge;
using obs::ResourceLedger;

std::uint64_t balance(LedgerAccount account) {
  return ResourceLedger::global().bytes(account);
}

/// Arms a fresh ledger epoch for the test and disarms it afterwards, so
/// the process-wide singleton never leaks state across tests.
struct LedgerTest : ::testing::Test {
  void SetUp() override { ResourceLedger::global().configure(true); }
  void TearDown() override {
    ResourceLedger::global().configure(false);
    obs::Registry::global().configure(false);
  }
};

// --- the ledger itself -----------------------------------------------------

TEST_F(LedgerTest, AccountsTrackBalancesTotalsAndPeaks) {
  ResourceLedger& ledger = ResourceLedger::global();
  ledger.add(LedgerAccount::kCountTable, 100);
  ledger.add(LedgerAccount::kOwnerFilters, 40);
  EXPECT_EQ(ledger.bytes(LedgerAccount::kCountTable), 100u);
  EXPECT_EQ(ledger.total_bytes(), 140u);
  EXPECT_EQ(ledger.total_peak_bytes(), 140u);

  ledger.sub(LedgerAccount::kCountTable, 60);
  EXPECT_EQ(ledger.bytes(LedgerAccount::kCountTable), 40u);
  EXPECT_EQ(ledger.peak_bytes(LedgerAccount::kCountTable), 100u);
  EXPECT_EQ(ledger.total_bytes(), 80u);
  EXPECT_EQ(ledger.total_peak_bytes(), 140u);  // hwm survives the shrink

  // Defensive clamp: an excess release floors at zero, never wraps.
  ledger.sub(LedgerAccount::kOwnerFilters, 1000);
  EXPECT_EQ(ledger.bytes(LedgerAccount::kOwnerFilters), 0u);

  const obs::LedgerSnapshot snap = ledger.snapshot();
  EXPECT_EQ(snap.account(LedgerAccount::kCountTable).bytes, 40u);
  EXPECT_EQ(snap.account(LedgerAccount::kCountTable).peak_bytes, 100u);
  EXPECT_EQ(snap.total_peak_bytes, 140u);
}

TEST_F(LedgerTest, DisabledLedgerIgnoresChargesButHandlesStillRecord) {
  ResourceLedger::global().configure(false);
  LedgerCharge charge(LedgerAccount::kCountTable);
  charge.set(4096);
  charge.set(1024);
  // recorded()/local_peak() are unconditional — the construction-peak fold
  // reads them even in uninstrumented runs.
  EXPECT_EQ(charge.recorded(), 1024u);
  EXPECT_EQ(charge.local_peak(), 4096u);
  EXPECT_EQ(ResourceLedger::global().total_bytes(), 0u);
  EXPECT_EQ(ResourceLedger::global().total_peak_bytes(), 0u);
}

TEST_F(LedgerTest, ChargeRebasesAcrossConfigureGenerations) {
  LedgerCharge charge(LedgerAccount::kReadBuffers);
  charge.set(100);
  ASSERT_EQ(balance(LedgerAccount::kReadBuffers), 100u);

  // A new run: configure() zeroes the balances. The surviving handle must
  // charge its full footprint into the new epoch, not just the delta.
  ResourceLedger::global().configure(true);
  EXPECT_EQ(balance(LedgerAccount::kReadBuffers), 0u);
  charge.set(150);
  EXPECT_EQ(balance(LedgerAccount::kReadBuffers), 150u);

  // And a handle destroyed in a later epoch never underflows it.
  charge.set(0);
  EXPECT_EQ(balance(LedgerAccount::kReadBuffers), 0u);
}

TEST_F(LedgerTest, BindMovesTheBalanceToTheNewAccount) {
  LedgerCharge charge(LedgerAccount::kCountTable);
  charge.set(64);
  ASSERT_EQ(balance(LedgerAccount::kCountTable), 64u);

  charge.bind(LedgerAccount::kRemoteCache);
  EXPECT_EQ(balance(LedgerAccount::kCountTable), 0u);
  EXPECT_EQ(balance(LedgerAccount::kRemoteCache), 64u);
  EXPECT_EQ(charge.recorded(), 64u);
}

TEST_F(LedgerTest, MoveTransfersTheChargeWithoutDoubleCounting) {
  LedgerCharge a(LedgerAccount::kPayloadArena);
  a.set(512);
  LedgerCharge b = std::move(a);
  EXPECT_EQ(balance(LedgerAccount::kPayloadArena), 512u);
  EXPECT_EQ(b.recorded(), 512u);

  // Move-assign settles the destination's old charge first.
  LedgerCharge c(LedgerAccount::kPayloadArena);
  c.set(100);
  c = std::move(b);
  EXPECT_EQ(balance(LedgerAccount::kPayloadArena), 512u);
  c.set(0);
  EXPECT_EQ(balance(LedgerAccount::kPayloadArena), 0u);
}

// --- differential exactness per instrumented structure ---------------------

TEST_F(LedgerTest, CountTableBalanceEqualsMemoryBytesAcrossGrowAndClear) {
  {
    hash::CountTable<> table(8);
    EXPECT_EQ(balance(LedgerAccount::kCountTable), table.memory_bytes());
    for (std::uint64_t k = 0; k < 5000; ++k) {
      table.increment(k * 2654435761u);  // forces several rehash growths
    }
    EXPECT_EQ(balance(LedgerAccount::kCountTable), table.memory_bytes());

    table.prune_below(2);  // compacts into a smaller table
    EXPECT_EQ(balance(LedgerAccount::kCountTable), table.memory_bytes());

    table.clear();
    EXPECT_EQ(table.memory_bytes(), 0u);
    EXPECT_EQ(balance(LedgerAccount::kCountTable), 0u);

    table.increment(7);
    EXPECT_EQ(balance(LedgerAccount::kCountTable), table.memory_bytes());
  }
  // Destruction releases the charge in full.
  EXPECT_EQ(balance(LedgerAccount::kCountTable), 0u);
}

TEST_F(LedgerTest, SortedSpectrumBalanceEqualsMemoryBytes) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    entries.emplace_back(k * 11400714819323198485ull, 3);
  }
  {
    auto sorted = hash::SortedCountArray::from_entries(entries);
    EXPECT_EQ(balance(LedgerAccount::kSortedSpectrum), sorted.memory_bytes());

    auto cache = hash::CacheAwareCountArray::from_sorted(sorted);
    EXPECT_EQ(balance(LedgerAccount::kSortedSpectrum),
              sorted.memory_bytes() + cache.memory_bytes());

    // Moves carry the balance, they never duplicate it.
    auto moved = std::move(cache);
    EXPECT_EQ(balance(LedgerAccount::kSortedSpectrum),
              sorted.memory_bytes() + moved.memory_bytes());
  }
  EXPECT_EQ(balance(LedgerAccount::kSortedSpectrum), 0u);
}

TEST_F(LedgerTest, OwnerFilterBalanceEqualsMemoryBytes) {
  {
    hash::OwnerFilter filter(10000, 0.01);
    EXPECT_GT(filter.memory_bytes(), 0u);
    EXPECT_EQ(balance(LedgerAccount::kOwnerFilters), filter.memory_bytes());
    for (std::uint64_t k = 0; k < 100; ++k) filter.insert(k);
    // Inserts flip bits in place; the footprint (and balance) is fixed.
    EXPECT_EQ(balance(LedgerAccount::kOwnerFilters), filter.memory_bytes());
  }
  EXPECT_EQ(balance(LedgerAccount::kOwnerFilters), 0u);
}

TEST_F(LedgerTest, PayloadArenaBalanceEqualsMemoryBytes) {
  {
    rtm::PayloadArena arena;
    EXPECT_EQ(balance(LedgerAccount::kPayloadArena), 0u);
    const auto p1 = arena.allocate(1000);
    EXPECT_EQ(balance(LedgerAccount::kPayloadArena), arena.memory_bytes());
    // Force a second slab: more than one slab's worth of live payloads.
    std::vector<rtm::Payload> live;
    for (int i = 0; i < 3; ++i) {
      live.push_back(arena.allocate(rtm::PayloadArena::kSlabBytes / 2));
    }
    EXPECT_EQ(balance(LedgerAccount::kPayloadArena), arena.memory_bytes());
    EXPECT_GE(arena.memory_bytes(), 2 * rtm::PayloadArena::kSlabBytes);
  }
  EXPECT_EQ(balance(LedgerAccount::kPayloadArena), 0u);
}

TEST_F(LedgerTest, MailboxChargesItsRingOnConstruction) {
  {
    rtm::Mailbox mailbox;
    EXPECT_GT(balance(LedgerAccount::kMailboxRings), 0u);
  }
  EXPECT_EQ(balance(LedgerAccount::kMailboxRings), 0u);
}

TEST_F(LedgerTest, AdmissionQueueBalanceEqualsMemoryBytes) {
  parallel::AdmissionQueue<std::uint64_t> queue(8);
  EXPECT_EQ(balance(LedgerAccount::kAdmissionQueue), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.submit(i));
    EXPECT_EQ(balance(LedgerAccount::kAdmissionQueue), queue.memory_bytes());
  }
  while (true) {
    queue.close();
    const auto item = queue.pop();
    EXPECT_EQ(balance(LedgerAccount::kAdmissionQueue), queue.memory_bytes());
    if (!item.has_value()) break;
  }
  EXPECT_EQ(balance(LedgerAccount::kAdmissionQueue), 0u);
}

TEST_F(LedgerTest, ChunkStreamBalanceEqualsBatchBytes) {
  std::vector<seq::Read> reads(10);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    reads[i].number = i;
    reads[i].bases = std::string(60, 'A');
    reads[i].quals.assign(60, 30);
  }
  seq::VectorReadSource source(reads);
  {
    seq::ChunkStream stream(source, 4);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
      EXPECT_EQ(balance(LedgerAccount::kReadBuffers),
                seq::batch_memory_bytes(batch));
    }
    // Exhausted: the stream no longer retains the batch's bytes.
    EXPECT_EQ(balance(LedgerAccount::kReadBuffers), 0u);
  }
  EXPECT_EQ(balance(LedgerAccount::kReadBuffers), 0u);
}

TEST_F(LedgerTest, WavefrontBuffersBalanceEqualsViewMemoryBytes) {
  // The chunk wavefront's cache, owner buckets and base copies all bill
  // remote_cache: the account balance is the view's memory_bytes(), and
  // destroying the view releases it.
  core::CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  seq::DatasetSpec spec{"ledger", 200, 60, 600};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.01;
  errors.error_rate_end = 0.02;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 8);
  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    parallel::DistSpectrum spectrum(p, parallel::Heuristics{}, comm);
    if (comm.rank() == 0) {
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    }
    spectrum.exchange_to_owners();
    comm.reset_done();
    if (comm.rank() == 0) {
      parallel::LookupService service(comm, spectrum);
      std::thread server([&service] { service.serve(); });
      comm.signal_done();
      server.join();
    } else {
      {
        parallel::RemoteSpectrumView view(comm, spectrum);
        view.prefetch_chunk(ds.reads);
        EXPECT_GT(view.remote_stats().batch_requests, 0u);
        EXPECT_GT(view.memory_bytes(), 0u);
        EXPECT_EQ(balance(LedgerAccount::kRemoteCache), view.memory_bytes());
      }
      EXPECT_EQ(balance(LedgerAccount::kRemoteCache), 0u);
      comm.signal_done();
    }
    comm.barrier();
  });
}

TEST_F(LedgerTest, ServeJobReleasesItsWavefrontBuffers) {
  seq::DatasetSpec spec{"ledger-serve", 300, 60, 900};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.015;
  const auto reads = seq::SyntheticDataset::generate(spec, errors, 9).reads;
  parallel::DistConfig config;
  config.params.k = 10;
  config.params.tile_overlap = 4;
  config.params.chunk_size = 64;
  config.ranks = 2;
  config.trace.ledger = true;
  parallel::CorrectionServer server(reads, config);
  for (int job = 0; job < 2; ++job) {
    parallel::JobRequest request;
    request.reads = reads;
    const parallel::JobReport report = server.submit(std::move(request)).get();
    for (const parallel::RankReport& rank : report.ranks) {
      std::uint64_t peak = 0;
      for (const auto& row : rank.ledger) {
        if (std::string(row.account) == "remote_cache") peak = row.peak_bytes;
      }
      EXPECT_GT(peak, 0u) << "job " << job << " rank " << rank.rank;
    }
    // The job's views, and with them every wavefront buffer, are gone.
    EXPECT_EQ(balance(LedgerAccount::kRemoteCache), 0u) << "job " << job;
  }
  server.shutdown();
}

// --- RSS sampler and gauges ------------------------------------------------

TEST_F(LedgerTest, RssSamplerRecordsAnOsObservedPeak) {
  ASSERT_GT(obs::read_rss_bytes(), 0u) << "/proc/self/statm must be readable";

  obs::RssSampler sampler(1);
  std::thread thread([&sampler] { sampler.run(); });
  while (sampler.samples() < 3) {
    std::this_thread::yield();
  }
  sampler.stop();
  thread.join();
  EXPECT_GE(sampler.samples(), 3u);
  // The sampled peak is a real resident set: at least a few pages.
  EXPECT_GT(ResourceLedger::global().rss_peak_bytes(), 4096u);
  EXPECT_EQ(ResourceLedger::global().snapshot().rss_peak_bytes,
            ResourceLedger::global().rss_peak_bytes());
}

TEST_F(LedgerTest, PublishLedgerMetricsRendersLabelledGauges) {
  obs::Registry::global().configure(true);
  ResourceLedger& ledger = ResourceLedger::global();
  ledger.add(LedgerAccount::kCountTable, 12345);
  ledger.note_rss(1 << 20);
  obs::publish_ledger_metrics(ledger.snapshot());

  const std::string text = obs::Registry::global().prometheus_text();
  EXPECT_NE(text.find("reptile_ledger_bytes{account=\"count_table\"} 12345"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("reptile_ledger_peak_bytes{account=\"count_table\"} 12345"),
      std::string::npos);
  EXPECT_NE(text.find("reptile_ledger_total_peak_bytes 12345"),
            std::string::npos);
  EXPECT_NE(text.find("reptile_rss_peak_bytes 1048576"), std::string::npos);
}

}  // namespace
}  // namespace reptile
