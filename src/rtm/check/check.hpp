#pragma once
// rtm-check: concurrency and protocol analysis for the threaded MPI runtime.
//
// Three cooperating detectors watch a run through lightweight hooks in
// Mailbox, Barrier, Comm and the communication threads:
//
//  1. Wait-for-graph deadlock detector. Every blocking receive and barrier
//     wait registers a (rank, peer, tag) edge; a watchdog thread
//     periodically computes the set of ranks whose every live thread is
//     provably stuck — a greatest fixpoint over the wait-for graph, with
//     each candidate wait re-verified against the live mailbox / barrier
//     state so scheduler lag can never yield a false verdict. On detection
//     the run aborts with a wait-for cycle and a full per-thread state dump
//     instead of hanging.
//
//  2. Mailbox audit. Deliveries are stamped with per-(source, tag) sequence
//     numbers and pops verify the FIFO non-overtaking guarantee documented
//     in mailbox.hpp. Queue depth is sampled at phase boundaries (barriers),
//     and messages still unconsumed when the run ends are reported as leaks
//     (orphaned replies are classified separately via the tag table).
//
//  3. Protocol linter. Every point-to-point send is checked against a
//     declarative tag table (direction, payload size bounds, request/reply
//     pairing); malformed traffic throws ProtocolError at the send site,
//     naming rank and tag. The table for the correction-phase lookup
//     protocol lives in parallel/protocol_table.hpp, derived from
//     parallel/protocol.hpp and parallel/wire.hpp.
//
//     Sequenced traffic (requests carrying a non-zero protocol sequence
//     number, see parallel::RetryPolicy) is audited rather than merely
//     FIFO-paired: retransmissions of an outstanding request are counted,
//     duplicate replies to an already-answered request are recognised as
//     stale (not flagged as orphans), and the fault injector reports its
//     own drops/duplicates/truncations through the on_chaos_* hooks so a
//     dropped request is not misreported as unanswered at finalize.
//
// Enabled per run through rtm::RunOptions::check — on by default so every
// test runs checked; benchmarks switch it off. Hook state is either guarded
// by the owning mailbox's mutex, atomic, or behind the checker's own mutex,
// keeping the checker itself ThreadSanitizer-clean.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "rtm/message.hpp"

namespace reptile::rtm {

class Mailbox;
class Barrier;
class World;

namespace check {

/// Thrown by Comm::send when a message violates the protocol tag table.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of blocking waits once the watchdog has diagnosed a deadlock;
/// what() carries the wait-for cycle and the per-thread state dump.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// kSelf marks a control tag a rank only ever posts to its own mailbox
/// (Comm::post_self): sending it with Comm::send, to any rank, is a
/// violation.
enum class TagDir { kRequest, kReply, kSelf };

/// One row of the declarative protocol table: a contiguous tag range with a
/// direction, payload size bounds, and — for requests — a parser that
/// yields the reply envelope the receiver must answer with.
struct TagRule {
  int first_tag = 0;
  int last_tag = 0;  ///< inclusive
  const char* name = "";
  TagDir dir = TagDir::kRequest;
  std::size_t min_bytes = 0;
  std::size_t max_bytes = std::numeric_limits<std::size_t>::max();
  /// Request rules only: extracts the reply tag, the exact reply payload
  /// size, and the protocol sequence number (0 = unsequenced) from a
  /// request payload (request/reply pairing). Returns false with *err
  /// describing the malformation.
  bool (*pair)(std::span<const std::byte> payload, int* reply_tag,
               std::size_t* reply_bytes, std::uint64_t* seq,
               std::string* err) = nullptr;
  /// Reply rules only: extracts the echoed sequence number from a reply
  /// payload (0 = unsequenced). Returns false when the payload is too short
  /// to carry one.
  bool (*seq_of)(std::span<const std::byte> payload,
                 std::uint64_t* seq) = nullptr;
  /// Fire-and-forget best-effort messages (e.g. the filter exchange): a
  /// receiver may legally stop listening before every copy arrives — chaos
  /// drops and stall-delayed stragglers are part of the contract — so a
  /// leftover in a mailbox at finalize is audited as stale, not as a leak.
  bool best_effort = false;
};

using TagTable = std::vector<TagRule>;

/// Per-run configuration, carried by rtm::RunOptions.
struct Options {
  bool enabled = true;   ///< master switch for all three detectors
  bool audit = true;     ///< mailbox FIFO / leak audit
  bool lint = true;      ///< protocol linter (idle while `tags` is empty)
  bool deadlock = true;  ///< wait-for-graph watchdog
  /// Treat tags absent from `tags` as protocol violations. Only sane when
  /// the table covers every tag the run may legally send; the distributed
  /// pipeline turns this on together with the lookup protocol table.
  bool strict_tags = false;
  /// Minimum age of a blocking wait before it can enter a deadlock verdict.
  int grace_ms = 250;
  /// Watchdog sampling period; also the poll slice of checked blocking
  /// waits, i.e. the abort latency once a deadlock is diagnosed.
  int poll_ms = 20;
  TagTable tags;  ///< linter table; empty disables per-tag checks
};

/// What a registered thread contributes to a rank (state dumps only).
enum class ThreadRole { kMain, kWorker, kService, kOther };

/// Live per-rank counters, surfaced into the per-rank stats report.
struct CheckSnapshot {
  std::uint64_t msgs_delivered = 0;   ///< pushes into this rank's mailbox
  std::uint64_t msgs_consumed = 0;    ///< pops out of this rank's mailbox
  std::uint64_t fifo_violations = 0;  ///< non-overtaking violations seen
  std::uint64_t lint_checked = 0;     ///< sends by this rank the linter saw
  std::uint64_t waits_registered = 0;  ///< blocking waits entered
  std::uint64_t max_pending_at_barrier = 0;  ///< queue depth at phase bounds
  // Sequenced-protocol audit (0 everywhere for fault-free runs):
  std::uint64_t retransmits = 0;  ///< requests re-sent with a known seq
  std::uint64_t stale_reply_sends = 0;  ///< replies to already-answered seqs
  // Fault-injector activity, attributed to the SENDING rank:
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_truncated = 0;
  // Filled in by finalize(), after every rank thread has joined:
  std::uint64_t leaked_messages = 0;  ///< unconsumed at run end
  std::uint64_t orphaned_replies = 0;  ///< leaks carrying a reply-range tag
  std::uint64_t unanswered_requests = 0;  ///< requests sent, never replied
  std::uint64_t stale_leaks = 0;  ///< leaks explained by retries/duplication
};

class RunChecker;

/// RAII registration of the calling thread with the checker, so the
/// deadlock detector knows which threads belong to which rank and can tell
/// "every thread of rank r is blocked" from "rank r has work in flight".
/// No-op (but safe) when the thread is already registered.
class ThreadScope {
 public:
  ThreadScope(RunChecker& check, int rank, ThreadRole role);
  ~ThreadScope();

  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  RunChecker* check_;
  bool registered_;
};

/// One checker instance per World, owned by it (see World::enable_check).
/// Mailbox / Barrier hooks attach on construction and detach in the
/// destructor, so late deliveries (e.g. the chaos drain) stay safe.
class RunChecker {
 public:
  RunChecker(const Options& options, int nranks, World* world);
  ~RunChecker();

  RunChecker(const RunChecker&) = delete;
  RunChecker& operator=(const RunChecker&) = delete;

  const Options& options() const noexcept { return opts_; }

  std::chrono::milliseconds poll_interval() const noexcept {
    return std::chrono::milliseconds(opts_.poll_ms);
  }

  // --- abort flag (deadlock verdict) ------------------------------------

  /// True once the watchdog has diagnosed a deadlock; blocking waits poll
  /// this and unwind through throw_abort().
  bool aborted() const noexcept {
    // mo: acquire pairs with the release store that publishes the abort
    // report; a `true` here guarantees throw_abort() sees the full text.
    return aborted_.load(std::memory_order_acquire);
  }

  [[noreturn]] void throw_abort() const;

  // --- thread registry ---------------------------------------------------

  /// Returns false if the calling thread is already registered.
  bool register_thread(int rank, ThreadRole role);
  void unregister_thread();

  /// Marks the calling thread as making progress (communication threads
  /// call this when they pick up a request)...
  void thread_active();
  /// ...and as idle-polling when a timed receive comes back empty. An
  /// idle-polling communication thread does not keep its rank "live" for
  /// deadlock purposes: it only reacts to messages that will never come.
  void thread_idle_poll();

  // --- mailbox hooks (called with the mailbox mutex held) ---------------

  void on_push(int rank, Message& m);
  void on_pop(int rank, const Message& m);

  // --- blocking-wait hooks ----------------------------------------------

  std::uint64_t begin_recv_wait(int rank, int source, int tag,
                                const Mailbox* mailbox);
  void end_recv_wait(std::uint64_t ticket);

  /// `released` marks the arrival that completed generation `gen`.
  void on_barrier_arrive(int rank, std::uint64_t gen, bool released);
  std::uint64_t begin_barrier_wait(int rank, std::uint64_t gen);
  void end_barrier_wait(std::uint64_t ticket);

  // --- linter / phase hooks ---------------------------------------------

  /// Lints one point-to-point send; throws ProtocolError on violation.
  void on_send(int src, int dst, int tag,
               std::span<const std::byte> payload);
  /// Lints one Comm::post_self: with a tag table, `tag` must be declared
  /// TagDir::kSelf. Not a send, so lint_checked does not count it.
  void on_post_self(int rank, int tag);

  // --- chaos hooks (called by the fault injector, see rtm/chaos.hpp) -----

  /// A send from m.source to `dst` was discarded. Removes the matching
  /// outstanding-request ledger entry (if the message was a sequenced
  /// request) so the drop is not misreported as unanswered at finalize.
  void on_chaos_drop(int dst, const Message& m);
  /// A send from m.source to `dst` was queued twice.
  void on_chaos_duplicate(int dst, const Message& m);
  /// A send from m.source to `dst` had its payload truncated (m carries the
  /// already-truncated payload).
  void on_chaos_truncate(int dst, const Message& m);

  /// Called at every barrier entry with the rank's queued-message count.
  void on_phase_boundary(int rank, std::size_t pending);

  // --- wiring (World::enable_check) -------------------------------------

  void attach_mailbox(int rank, Mailbox* mailbox);
  void attach_barrier(Barrier* barrier);
  /// Starts the watchdog thread (after the hooks are attached).
  void start();

  // --- end of run --------------------------------------------------------

  /// Run-end audit: stops the watchdog, flags unconsumed messages (leaks /
  /// orphaned replies) and unanswered requests. Called by run_world after
  /// the rank threads joined; idempotent.
  void finalize();

  /// Per-rank counters; includes finalize() results once it ran.
  CheckSnapshot snapshot(int rank) const;

  /// Human-readable audit summary (empty string before finalize()).
  std::string final_report() const;

 private:
  struct WaitInfo {
    enum class Kind { kRecv, kBarrier };
    std::uint64_t ticket = 0;
    int rank = -1;
    Kind kind = Kind::kRecv;
    int source = kAnySource;  ///< recv waits
    int tag = kAnyTag;        ///< recv waits
    const Mailbox* mailbox = nullptr;  ///< recv waits
    std::uint64_t gen = 0;    ///< barrier waits
    std::chrono::steady_clock::time_point since{};
  };

  enum class ThreadState { kRunning, kRecvWait, kBarrierWait, kIdlePoll };

  struct ThreadInfo {
    int rank = -1;
    ThreadRole role = ThreadRole::kOther;
    ThreadState state = ThreadState::kRunning;
    std::chrono::steady_clock::time_point since{};
    std::uint64_t ticket = 0;  ///< wait ticket while in a wait state
  };

  struct Stream {
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
  };

  struct RankCounters {
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> fifo_violations{0};
    std::atomic<std::uint64_t> lint_checked{0};
    std::atomic<std::uint64_t> waits{0};
    std::atomic<std::uint64_t> max_pending_barrier{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> stale_reply_sends{0};
    std::atomic<std::uint64_t> chaos_dropped{0};
    std::atomic<std::uint64_t> chaos_duplicated{0};
    std::atomic<std::uint64_t> chaos_truncated{0};
  };

  static std::uint64_t stream_key(int source, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  const TagRule* rule_for(int tag) const noexcept;
  bool is_reply_tag(int tag) const noexcept;
  /// Finalize helper: is this leaked message explained by the sequenced
  /// retry/duplication protocol (its seq already answered or its request
  /// copy dropped), or was it cut short in flight by the fault injector?
  /// Takes lint_mutex_.
  bool leak_is_stale(int rank, const Message& m);
  ThreadInfo& thread_entry_locked(int rank);
  void note_locked(std::string text);
  void stop_watchdog();
  void watchdog_main();
  /// One watchdog tick: copy state, verify stability, compute the frozen
  /// set, and abort the run when a candidate persists across two ticks.
  void evaluate();

  Options opts_;
  int nranks_;
  World* world_;

  // Per-rank FIFO audit streams. Each rank's map is touched only under
  // that rank's mailbox mutex (on_push / on_pop are hook calls from inside
  // the mailbox), so the vector needs no lock of its own after setup.
  std::vector<std::unordered_map<std::uint64_t, Stream>> streams_;
  std::vector<Mailbox*> mailboxes_;
  Barrier* barrier_ = nullptr;

  std::vector<RankCounters> counters_;

  // Global activity counters, compared across a watchdog tick to detect
  // progress racing the probes (relaxed: counts only, no ordering needed).
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> consumes_{0};
  std::atomic<std::uint64_t> arrivals_{0};

  // Registry of threads and outstanding blocking waits.
  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, ThreadInfo> threads_;
  std::map<std::uint64_t, WaitInfo> waits_;
  std::vector<int> ever_threads_;  ///< per rank: threads ever registered
  std::uint64_t next_ticket_ = 1;
  std::uint64_t barrier_gen_ = 0;        ///< generation being tracked
  std::uint64_t barrier_released_below_ = 0;  ///< gens < this are complete
  std::vector<char> barrier_arrived_;
  bool barrier_untracked_ = false;  ///< an arrival carried no rank id
  std::vector<std::string> notes_;  ///< FIFO-violation details (capped)

  // Request/reply pairing, one ledger per (responder, requester, reply tag)
  // stream. Unsequenced traffic (seq == 0) keeps the original FIFO-of-sizes
  // semantics in `legacy`; sequenced traffic matches by sequence number and
  // additionally remembers answered seqs (bounded) so retransmissions and
  // duplicate replies can be classified instead of flagged.
  struct PairLedger {
    struct Pending {
      std::uint64_t seq = 0;
      std::size_t bytes = 0;
    };
    std::vector<Pending> pending;     ///< sequenced outstanding requests
    std::vector<std::size_t> legacy;  ///< seq==0: FIFO of expected sizes
    std::unordered_map<std::uint64_t, std::size_t> answered;  ///< seq->bytes
    std::deque<std::uint64_t> answered_order;  ///< eviction FIFO
    /// Seqs whose (last) request copy the chaos layer dropped: no longer
    /// expected to be answered, but an EARLIER copy of the same seq may
    /// still be in flight, so a reply remains legal (not an orphan).
    std::unordered_map<std::uint64_t, std::size_t> dropped;  ///< seq->bytes
  };
  /// How many answered seqs each ledger remembers for stale classification.
  static constexpr std::size_t kAnsweredCap = 8192;

  std::mutex lint_mutex_;
  std::map<std::tuple<int, int, int>, PairLedger> outstanding_;
  /// (dst, source, tag) streams on which the fault injector truncated at
  /// least one message. Guarded by lint_mutex_.
  std::set<std::tuple<int, int, int>> truncated_streams_;

  std::atomic<bool> aborted_{false};
  std::string abort_report_;  ///< written before aborted_ (release store)

  // Finalize results (main thread only, after the rank threads joined).
  bool finalized_ = false;
  std::vector<CheckSnapshot> final_;
  std::string final_report_;

  // Watchdog.
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread watchdog_;
  // Candidate memory: a verdict needs the same frozen set with unchanged
  // activity counters on two consecutive ticks.
  std::vector<std::uint64_t> prev_candidate_;
  std::uint64_t prev_counters_[3] = {0, 0, 0};
};

}  // namespace check
}  // namespace reptile::rtm
