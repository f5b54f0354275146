// rtm-check negative tests: each seeds one real concurrency or protocol bug
// and proves the checker names it — a deadlock aborts with a wait-for cycle
// instead of hanging, a leaked message and a malformed tag are reported
// with rank/tag detail — plus positive tests pinning that clean runs stay
// clean and that the pipeline surfaces the audit counters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "parallel/dist_pipeline.hpp"
#include "parallel/protocol.hpp"
#include "parallel/protocol_table.hpp"
#include "parallel/wire.hpp"
#include "rtm/check/check.hpp"
#include "rtm/comm.hpp"
#include "seq/dataset.hpp"

namespace {

using namespace reptile;

/// Options tuned for negative tests: short grace so seeded deadlocks are
/// diagnosed in tens of milliseconds rather than the production quarter
/// second.
rtm::RunOptions fast_check_options() {
  rtm::RunOptions options;
  options.check.grace_ms = 60;
  options.check.poll_ms = 10;
  return options;
}

rtm::RunOptions lint_options() {
  rtm::RunOptions options = fast_check_options();
  options.check.tags = parallel::lookup_tag_table();
  options.check.strict_tags = true;
  return options;
}

// --- deadlock detection ---------------------------------------------------

TEST(RtmCheckDeadlock, MutualRecvReportsWaitForCycle) {
  // Rank 0 waits for rank 1 and vice versa; nobody ever sends. Without the
  // watchdog this hangs forever; with it every blocked rank throws a
  // DeadlockError whose report names both ranks and the wait-for chain.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      (void)comm.recv(1 - comm.rank(), 77);
    }, fast_check_options());
    FAIL() << "seeded deadlock was not detected";
  } catch (const rtm::check::DeadlockError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
  EXPECT_NE(what.find("wait-for chain"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("tag=77"), std::string::npos) << what;
}

TEST(RtmCheckDeadlock, RecvFromExitedRankAborts) {
  // Rank 1 exits immediately; rank 0 waits for a message that can never
  // come. The report must point at the exited dependency.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) (void)comm.recv(1, 5);
    }, fast_check_options());
    FAIL() << "recv from an exited rank was not detected";
  } catch (const rtm::check::DeadlockError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("rank 1 (exited)"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(source=1 tag=5)"), std::string::npos) << what;
}

TEST(RtmCheckDeadlock, BarrierVersusRecvMixAborts) {
  // Rank 0 enters the barrier; rank 1 blocks in a recv first — the classic
  // mismatched-collective hang. Both waits appear in the state dump.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) {
        comm.barrier();
      } else {
        (void)comm.recv(0, 9);
      }
    }, fast_check_options());
    FAIL() << "barrier/recv mismatch was not detected";
  } catch (const rtm::check::DeadlockError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("blocked in barrier"), std::string::npos) << what;
  EXPECT_NE(what.find("blocked in recv(source=0 tag=9)"), std::string::npos)
      << what;
}

TEST(RtmCheckDeadlock, HealthyPingPongIsNotFlagged) {
  // Steady traffic that individually blocks each rank for short periods
  // must never trip the watchdog, even with an aggressive grace period.
  rtm::RunOptions options = fast_check_options();
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    const int peer = 1 - comm.rank();
    for (int i = 0; i < 50; ++i) {
      if (comm.rank() == 0) {
        comm.send_value(peer, 3, i);
        (void)comm.recv(peer, 4);
      } else {
        (void)comm.recv(peer, 3);
        comm.send_value(peer, 4, i);
      }
    }
    comm.barrier();
  }, options);
  const auto s0 = world->checker()->snapshot(0);
  const auto s1 = world->checker()->snapshot(1);
  EXPECT_EQ(s0.fifo_violations + s1.fifo_violations, 0u);
  EXPECT_EQ(s0.leaked_messages + s1.leaked_messages, 0u);
  // Someone must have blocked at least once for the other side to produce.
  EXPECT_GT(s0.waits_registered + s1.waits_registered, 0u);
}

// --- mailbox audit --------------------------------------------------------

TEST(RtmCheckAudit, LeakedMessageIsReportedWithRankAndTag) {
  // Rank 0 sends a message rank 1 never consumes: the run finishes, but
  // finalize() must flag the unconsumed message with its envelope.
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) comm.send_value(1, 7, 123);
    comm.barrier();
  }, fast_check_options());
  const auto snapshot = world->checker()->snapshot(1);
  EXPECT_EQ(snapshot.leaked_messages, 1u);
  EXPECT_EQ(world->checker()->snapshot(0).leaked_messages, 0u);
  const std::string report = world->checker()->final_report();
  EXPECT_NE(report.find("rank 1: leaked message"), std::string::npos)
      << report;
  EXPECT_NE(report.find("source=0 tag=7"), std::string::npos) << report;
}

TEST(RtmCheckAudit, LeakedReplyIsClassifiedAsOrphan) {
  // With the protocol table installed, a leaked message on a reply-range
  // tag is an orphaned reply — a requester that gave up on its answer.
  rtm::RunOptions options = lint_options();
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) {
      // A legal request/reply exchange whose reply is never consumed.
      parallel::LookupRequest req;
      req.id = 42;
      req.reply_to = parallel::kTagKmerReply;
      comm.send_value(1, parallel::kTagKmerRequest, req);
    } else {
      const auto msg = comm.recv(0, parallel::kTagKmerRequest);
      const auto req = msg.as_value<parallel::LookupRequest>();
      parallel::LookupReply reply;
      comm.send_value(0, req.reply_to, reply);
    }
    comm.barrier();
  }, options);
  const auto snapshot = world->checker()->snapshot(0);
  EXPECT_EQ(snapshot.leaked_messages, 1u);
  EXPECT_EQ(snapshot.orphaned_replies, 1u);
  EXPECT_NE(world->checker()->final_report().find("orphaned reply"),
            std::string::npos);
}

TEST(RtmCheckAudit, TruncatedLeftoverReplyIsStaleNotOrphan) {
  // The fault injector cuts every message short. A reply nobody consumed
  // is a leftover either way; when the cut leaves too few bytes to read
  // its seq, only the truncation explains it — never an orphan.
  bool unreadable_seen = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rtm::RunOptions options = lint_options();
    options.chaos.seed = seed;
    options.chaos.max_delay_us = 0;
    options.chaos.truncate_rate = 1.0;
    auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) {
        parallel::LookupRequest req;
        req.id = 42;
        req.seq = 5;
        req.reply_to = parallel::kTagKmerReply;
        comm.send_value(1, parallel::kTagKmerRequest, req);
        // Wait for the reply to land (finalize audits mailboxes, not the
        // injector's queue), but leave it there.
        while (!comm.iprobe(1, parallel::kTagKmerReply)) {
          std::this_thread::yield();
        }
      } else {
        (void)comm.recv(0, parallel::kTagKmerRequest);  // truncated bytes
        parallel::LookupReply reply;
        reply.seq = 5;
        comm.send_value(0, parallel::kTagKmerReply, reply);
      }
      comm.barrier();
    }, options);
    const auto snapshot = world->checker()->snapshot(0);
    EXPECT_EQ(snapshot.leaked_messages, 0u) << "seed " << seed;
    EXPECT_EQ(snapshot.orphaned_replies, 0u) << "seed " << seed;
    EXPECT_EQ(snapshot.stale_leaks, 1u) << "seed " << seed;
    const std::string report = world->checker()->final_report();
    for (int bytes = 0; bytes < 8; ++bytes) {
      const std::string unreadable =
          "tag=" + std::to_string(parallel::kTagKmerReply) + ", " +
          std::to_string(bytes) + " bytes";
      unreadable_seen = unreadable_seen ||
                        report.find(unreadable) != std::string::npos;
    }
  }
  // Some seed cut the reply below its 8-byte seq.
  EXPECT_TRUE(unreadable_seen);
}

TEST(RtmCheckAudit, UnansweredRequestIsReported) {
  // The request reaches rank 1 and is consumed, but no reply is ever sent:
  // the pairing ledger must show rank 0 still waiting at run end.
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) {
      parallel::LookupRequest req;
      req.reply_to = parallel::kTagKmerReply;
      comm.send_value(1, parallel::kTagKmerRequest, req);
    } else {
      (void)comm.recv(0, parallel::kTagKmerRequest);
    }
    comm.barrier();
  }, lint_options());
  EXPECT_EQ(world->checker()->snapshot(0).unanswered_requests, 1u);
  const std::string report = world->checker()->final_report();
  EXPECT_NE(report.find("never answered"), std::string::npos) << report;
}

TEST(RtmCheckAudit, FifoSequenceNumbersSurviveSelectiveConsumption) {
  // Selective pops across interleaved streams must not trip the FIFO
  // audit: per-stream order is what the guarantee (and the audit) is about.
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        comm.send_value(1, 100 + (i % 2), i);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        (void)comm.recv(0, 101);  // drain the odd stream first
      }
      for (int i = 0; i < 10; ++i) {
        (void)comm.recv(0, 100);
      }
    }
    comm.barrier();
  }, fast_check_options());
  EXPECT_EQ(world->checker()->snapshot(1).fifo_violations, 0u);
  EXPECT_EQ(world->checker()->snapshot(1).msgs_consumed, 20u);
}

// --- protocol linter ------------------------------------------------------

TEST(RtmCheckLint, MalformedRequestPayloadThrowsAtSendSite) {
  // A kmer request must be exactly sizeof(LookupRequest); sending a bare
  // int is a protocol violation named with rank and tag.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_value(1, parallel::kTagKmerRequest, std::uint32_t{7});
      }
    }, lint_options());
    FAIL() << "malformed request was not rejected";
  } catch (const rtm::check::ProtocolError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("rank 0 -> rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 11"), std::string::npos) << what;
  EXPECT_NE(what.find("payload size out of bounds"), std::string::npos)
      << what;
}

TEST(RtmCheckLint, UnknownTagThrowsUnderStrictTags) {
  EXPECT_THROW(
      rtm::run_world({2, 1}, [](rtm::Comm& comm) {
        if (comm.rank() == 0) comm.send_value(1, 5, 1);  // tag 5: not in table
      }, lint_options()),
      rtm::check::ProtocolError);
}

TEST(RtmCheckLint, OrphanedReplyThrows) {
  // A reply with no outstanding request is a protocol bug on the spot.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) {
        parallel::LookupReply reply;
        comm.send_value(1, parallel::kTagKmerReply, reply);
      }
    }, lint_options());
    FAIL() << "orphaned reply was not rejected";
  } catch (const rtm::check::ProtocolError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("orphaned reply"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 21"), std::string::npos) << what;
}

TEST(RtmCheckLint, BatchHeaderCountMismatchThrows) {
  // A batch request whose header promises more IDs than the body carries
  // mirrors the view_batch_request check, but fails at the send site.
  std::string what;
  try {
    rtm::run_world({2, 1}, [](rtm::Comm& comm) {
      if (comm.rank() == 0) {
        parallel::BatchLookupHeader h;
        h.kind = 0;
        h.reply_to = parallel::kTagBatchReplyBase;
        h.count = 3;  // ...but no IDs follow
        comm.send_value(1, parallel::kTagBatchRequest, h);
      }
    }, lint_options());
    FAIL() << "bad batch header was not rejected";
  } catch (const rtm::check::ProtocolError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("header declares 3 ids"), std::string::npos) << what;
}

TEST(RtmCheckLint, ReplySizeMismatchThrows) {
  // The reply to a scalar request must be exactly one LookupReply; answer
  // with two and the pairing check fires.
  EXPECT_THROW(
      rtm::run_world({2, 1}, [](rtm::Comm& comm) {
        if (comm.rank() == 0) {
          parallel::LookupRequest req;
          req.reply_to = parallel::kTagKmerReply;
          comm.send_value(1, parallel::kTagKmerRequest, req);
          (void)comm.recv(1, parallel::kTagKmerReply);
        } else {
          (void)comm.recv(0, parallel::kTagKmerRequest);
          const parallel::LookupReply two[2] = {};
          comm.send<parallel::LookupReply>(
              0, parallel::kTagKmerReply,
              std::span<const parallel::LookupReply>(two, 2));
        }
      }, lint_options()),
      rtm::check::ProtocolError);
}

TEST(RtmCheckLint, ServiceStopIsSelfAddressedOnly) {
  // The stop that ends a rank's communication thread is posted to the
  // rank's own mailbox. Sending it, to a peer or over the wire at all, is a
  // violation, and so is posting a tag not declared self-addressed.
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send<std::byte>(1, parallel::kTagServiceStop, {}),
                   rtm::check::ProtocolError);
      EXPECT_THROW(comm.send<std::byte>(0, parallel::kTagServiceStop, {}),
                   rtm::check::ProtocolError);
      EXPECT_THROW(comm.post_self(parallel::kTagKmerRequest),
                   rtm::check::ProtocolError);
      EXPECT_THROW(comm.post_self(4242), rtm::check::ProtocolError);
      comm.post_self(parallel::kTagServiceStop);
      EXPECT_TRUE(comm.try_recv(0, parallel::kTagServiceStop).has_value());
    }
    comm.barrier();
  }, lint_options());
  const auto s0 = world->checker()->snapshot(0);
  EXPECT_EQ(s0.leaked_messages, 0u);
  EXPECT_EQ(world->checker()->snapshot(1).msgs_delivered, 0u);
  EXPECT_EQ(world->traffic().snapshot(0).sent_msgs(), 0u);
}

TEST(RtmCheckLint, WellFormedExchangeIsAccepted) {
  // The canonical request/reply exchange sails through the strict table.
  auto world = rtm::run_world({2, 1}, [](rtm::Comm& comm) {
    if (comm.rank() == 0) {
      parallel::LookupRequest req;
      req.id = 99;
      req.reply_to = parallel::kTagKmerReply;
      comm.send_value(1, parallel::kTagKmerRequest, req);
      const auto reply =
          comm.recv(1, parallel::kTagKmerReply).as_value<parallel::LookupReply>();
      EXPECT_EQ(reply.count, -1);
    } else {
      const auto msg = comm.recv(0, parallel::kTagKmerRequest);
      const auto req = msg.as_value<parallel::LookupRequest>();
      parallel::LookupReply reply;
      comm.send_value(0, req.reply_to, reply);
    }
    comm.barrier();
  }, lint_options());
  const auto s0 = world->checker()->snapshot(0);
  EXPECT_EQ(s0.lint_checked, 1u);
  EXPECT_EQ(s0.unanswered_requests, 0u);
  EXPECT_EQ(s0.leaked_messages, 0u);
}

// --- pipeline integration -------------------------------------------------

TEST(RtmCheckPipeline, DistributedRunIsCleanAndSurfacesCounters) {
  // A real 4-rank pipeline run under the strict lookup table: no leaks, no
  // FIFO violations, no unanswered requests — and the per-rank report
  // carries the linter's message counts.
  const auto ds = seq::SyntheticDataset::generate({"check_pipe", 300, 60, 600},
                                                  {}, 2026);
  parallel::DistConfig config;
  config.params.k = 10;
  config.params.tile_overlap = 4;
  config.params.kmer_threshold = 2;
  config.params.tile_threshold = 2;
  config.params.chunk_size = 64;
  config.ranks = 4;
  config.ranks_per_node = 2;
  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.ranks.size(), 4u);
  std::uint64_t linted = 0;
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.check.fifo_violations, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.check.leaked_messages, 0u) << "rank " << r.rank;
    EXPECT_EQ(r.check.unanswered_requests, 0u) << "rank " << r.rank;
    linted += r.check.lint_checked;
  }
  // Every point-to-point message of the run went through the linter.
  std::uint64_t sent = 0;
  for (const auto& r : result.ranks) sent += r.traffic.sent_msgs();
  EXPECT_EQ(linted, sent);
  EXPECT_GT(linted, 0u);
}

TEST(RtmCheckPipeline, CheckingOffLeavesZeroCounters) {
  const auto ds = seq::SyntheticDataset::generate({"check_off", 120, 50, 240},
                                                  {}, 7);
  parallel::DistConfig config;
  config.params.k = 10;
  config.params.tile_overlap = 4;
  config.params.kmer_threshold = 2;
  config.params.tile_threshold = 2;
  config.params.chunk_size = 64;
  config.ranks = 2;
  config.run_options.check.enabled = false;
  const auto result = parallel::run_distributed(ds.reads, config);
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.check.lint_checked, 0u);
    EXPECT_EQ(r.check.msgs_delivered, 0u);
  }
}

}  // namespace
