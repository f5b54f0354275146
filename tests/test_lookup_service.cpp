// Protocol-level tests: the communication thread's request/reply contract,
// exercised directly (no corrector in the loop).
#include "parallel/lookup_service.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "parallel/protocol.hpp"
#include "seq/dataset.hpp"

namespace reptile::parallel {
namespace {

core::CorrectorParams params() {
  core::CorrectorParams p;
  p.k = 8;
  p.tile_overlap = 2;
  p.kmer_threshold = 1;
  p.tile_threshold = 1;
  return p;
}

/// Builds a 2-rank world where rank 0 owns a populated spectrum shard and
/// runs a LookupService; rank 1 is the test driver issuing raw protocol
/// messages. `driver` receives (comm, an id owned by rank 0 with its count).
void run_protocol_test(
    const Heuristics& heur,
    const std::function<void(rtm::Comm&, std::uint64_t, std::uint32_t)>&
        driver,
    ServiceStats* stats_out = nullptr) {
  seq::DatasetSpec spec{"svc", 100, 40, 400};
  const auto ds = seq::SyntheticDataset::generate(spec, {}, 123);

  rtm::run_world({2, 1}, [&](rtm::Comm& comm) {
    DistSpectrum spectrum(params(), heur, comm);
    if (comm.rank() == 0) {
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
    }
    spectrum.exchange_to_owners();  // collective: both ranks participate

    // Pick a k-mer owned by rank 0 for the driver to query.
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
      // Rank 0 has no correction work of its own.
      end_correction_phase(comm, /*stop_service=*/true);
      server.join();
      if (stats_out) *stats_out = service.stats();
    } else {
      driver(comm, probe_id, probe_count);
      end_correction_phase(comm, /*stop_service=*/false);
    }
    comm.barrier();
  });
}

TEST(LookupService, AnswersKmerRequestWithCount) {
  run_protocol_test({}, [](rtm::Comm& comm, std::uint64_t id,
                           std::uint32_t count) {
    comm.send_value(0, kTagKmerRequest, LookupRequest{id});
    const auto reply =
        comm.recv(0, kTagKmerReply).as_value<LookupReply>();
    EXPECT_EQ(reply.count, static_cast<std::int32_t>(count));
  });
}

TEST(LookupService, AbsentIdYieldsMinusOne) {
  // Paper: "The response is either the count ... or a response like (-1)
  // implying that the k-mer or tile does not exist."
  run_protocol_test({}, [](rtm::Comm& comm, std::uint64_t, std::uint32_t) {
    // An ID that cannot be in an 8-mer spectrum shard: beyond the mask.
    LookupRequest req;
    req.id = ~std::uint64_t{0};
    req.reply_to = kTagTileReply;
    comm.send_value(0, kTagTileRequest, req);
    const auto reply =
        comm.recv(0, kTagTileReply).as_value<LookupReply>();
    EXPECT_EQ(reply.count, -1);
  });
}

TEST(LookupService, UniversalModeCarriesKindInPayload) {
  Heuristics heur;
  heur.universal = true;
  ServiceStats stats;
  run_protocol_test(
      heur,
      [](rtm::Comm& comm, std::uint64_t id, std::uint32_t count) {
        UniversalLookupRequest kmer_req;
        kmer_req.kind = LookupKind::kKmer;
        kmer_req.id = id;
        comm.send_value(0, kTagUniversalRequest, kmer_req);
        EXPECT_EQ(comm.recv(0, kTagKmerReply).as_value<LookupReply>().count,
                  static_cast<std::int32_t>(count));

        UniversalLookupRequest tile_req;
        tile_req.kind = LookupKind::kTile;
        tile_req.reply_to = kTagTileReply;
        tile_req.id = id;  // k-mer id is (almost surely) not a tile
        comm.send_value(0, kTagUniversalRequest, tile_req);
        const auto r = comm.recv(0, kTagTileReply).as_value<LookupReply>();
        EXPECT_TRUE(r.count == -1 || r.count > 0);
      },
      &stats);
  EXPECT_EQ(stats.probe_calls, 0u);  // universal mode never probes
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(stats.kmer_requests, 1u);
  EXPECT_EQ(stats.tile_requests, 1u);
}

TEST(LookupService, TaggedModeCountsProbes) {
  ServiceStats stats;
  run_protocol_test(
      {},
      [](rtm::Comm& comm, std::uint64_t id, std::uint32_t) {
        for (int i = 0; i < 10; ++i) {
          comm.send_value(0, kTagKmerRequest, LookupRequest{id});
          (void)comm.recv(0, kTagKmerReply);
        }
      },
      &stats);
  EXPECT_EQ(stats.requests_served, 10u);
  EXPECT_GT(stats.probe_calls, 0u);
}

TEST(LookupService, ServesManyInterleavedRequests) {
  ServiceStats stats;
  run_protocol_test(
      {},
      [](rtm::Comm& comm, std::uint64_t id, std::uint32_t count) {
        // Fire a burst of pipelined requests before reading any reply; the
        // reply stream must preserve per-(source, tag) FIFO order.
        constexpr int kBurst = 200;
        for (int i = 0; i < kBurst; ++i) {
          comm.send_value(0, kTagKmerRequest, LookupRequest{id});
          LookupRequest tile_req;
          tile_req.id = ~std::uint64_t{0};
          tile_req.reply_to = kTagTileReply;
          comm.send_value(0, kTagTileRequest, tile_req);
        }
        for (int i = 0; i < kBurst; ++i) {
          EXPECT_EQ(
              comm.recv(0, kTagKmerReply).as_value<LookupReply>().count,
              static_cast<std::int32_t>(count));
          EXPECT_EQ(
              comm.recv(0, kTagTileReply).as_value<LookupReply>().count, -1);
        }
      },
      &stats);
  EXPECT_EQ(stats.requests_served, 400u);
  EXPECT_EQ(stats.absent_replies, 200u);
}

TEST(LookupService, DrainsRequestsQueuedAtShutdown) {
  // Requests already queued when the last rank signals done must still be
  // answered (the service's final drain loop).
  ServiceStats stats;
  run_protocol_test(
      {},
      [](rtm::Comm& comm, std::uint64_t id, std::uint32_t) {
        for (int i = 0; i < 50; ++i) {
          comm.send_value(0, kTagKmerRequest, LookupRequest{id});
        }
        for (int i = 0; i < 50; ++i) {
          (void)comm.recv(0, kTagKmerReply);
        }
      },
      &stats);
  EXPECT_EQ(stats.requests_served, 50u);
}

}  // namespace
}  // namespace reptile::parallel
