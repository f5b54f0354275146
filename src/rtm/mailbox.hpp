#pragma once
// Per-rank mailbox: a thread-safe queue with MPI-style selective matching.
//
// Multiple sender threads push; the owning rank's worker thread and
// communication thread pop concurrently with different envelopes
// (rtm::Match) — the worker pops replies from one owner on one tag, the
// communication thread pops the request tags and its stop from any source —
// so matching must be selective and thread-safe. Messages from the same
// (source, tag) pair are delivered in FIFO order, the MPI non-overtaking
// guarantee the protocols rely on (and that the rtm-check mailbox audit
// verifies at runtime, see rtm/check/check.hpp).
//
// Two delivery paths (DESIGN.md §7):
//
// - FAST: a bounded lock-free MPMC ring (rtm/ring.hpp). Pushes and
//   exact-envelope pops of the ring head complete without touching the
//   mutex. Only enabled while no run checker is attached — rtm-check hooks
//   must observe pushes/pops under the mutex to stamp and audit per-stream
//   sequence numbers.
// - SLOW: the mutex-guarded deque. Wildcard and multi-tag matching,
//   probes, pending-state dumps, blocked waits, and ring overflow all take
//   this path.
//
// The path mechanics — ring, overflow deque, consumer-lock discipline,
// the waiter-count Dekker handshake against lost wakeups — live in
// rtm/mailbox_core.hpp (BasicMailboxCore / WaiterGate), templated on an
// atomics policy so the model checker (rtm/model/, DESIGN.md §8) can
// explore their interleavings. This class binds them to the production
// policy and adds the mutex, waiter registry, rtm-check hooks, obs
// instrumentation and stats.
//
// Wakeups are targeted: every blocked receiver registers a Waiter with its
// envelope and its own condvar, and a push wakes only the waiters whose
// envelope matches the pushed message.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtm/check/check.hpp"
#include "rtm/mailbox_core.hpp"
#include "rtm/message.hpp"
#include "rtm/ring.hpp"
#include "rtm/stat_counter.hpp"

namespace reptile::rtm {

namespace detail {
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}
}  // namespace detail

/// Plain-value snapshot of one mailbox's path counters (bench/diagnostics;
/// mirrored into the obs registry after a run, see rtm/comm.cpp).
struct MailboxStats {
  std::uint64_t fast_pushes = 0;   ///< pushes completed on the lock-free ring
  std::uint64_t slow_pushes = 0;   ///< pushes that took the mutex path
  std::uint64_t fast_pops = 0;     ///< exact-match pops served by the ring head
  std::uint64_t futile_wakeups = 0;    ///< notified waiter found nothing
  std::uint64_t notifies_skipped = 0;  ///< pushes that had no matching waiter
};

class Mailbox {
 public:
  /// Fast-path ring capacity in messages; overflow spills to the deque.
  static constexpr std::size_t kRingCapacity = 256;
  /// Exact-envelope receives spin on the ring this many times before
  /// parking (a mismatch or locked ring bails out at once). The first
  /// kPopPauses iterations pause for a producer on another core; the rest
  /// yield, because on shared cores ceding the core is what lets the
  /// producer publish — a yielding request/reply pair round-trips on the
  /// ring without touching the mutex. Pure pause-spinning would burn the
  /// producer's timeslice (DESIGN.md §7, "Spin policy").
  static constexpr int kPopSpins = 32;
  static constexpr int kPopPauses = 4;

  using Core = BasicMailboxCore<StdAtomics>;
  using PopResult = Core::PopResult;
  using Clock = std::chrono::steady_clock;

  Mailbox() { ring_charge_.set(core_.ring().memory_bytes()); }

  /// Identifies the owning rank for obs instruments (wait histograms).
  /// Called by World's constructor before rank threads start.
  void set_owner(int rank) { owner_ = rank; }

  /// Installs (or, with nullptr, removes) the run checker's hooks. Called
  /// by World::enable_check before rank threads start; the checker detaches
  /// itself again on destruction. Atomic because the chaos delivery thread
  /// can still push while ~RunChecker detaches during World teardown.
  void set_check(check::RunChecker* check, int owner_rank) {
    std::lock_guard lock(mutex_);
    // mo: release pairs with the acquire in push/fast_path_armed — a sender
    // that sees the checker also sees it fully constructed.
    check_.store(check, std::memory_order_release);
    owner_ = owner_rank;
  }

  /// Disables (or re-enables) the lock-free ring, forcing every operation
  /// onto the mutex path — the A/B baseline for benchmarks and the chaos
  /// path-identity tests. Call while no other thread uses the mailbox.
  void set_fast_path(bool enabled) {
    std::lock_guard lock(mutex_);
    if (!enabled) {
      // Flush fast-path messages into the deque so they stay visible.
      const SlowSection slow(*this);
    }
    // mo: relaxed — only toggled while the mailbox is otherwise idle.
    fast_path_.store(enabled, std::memory_order_relaxed);
  }

  /// Enqueues a message. Lock-free unless a checker is attached, the fast
  /// path is off, the ring is full, or a parked receiver must be woken.
  void push(Message m) {
    const int source = m.source;
    const int tag = m.tag;
    if (fast_path_armed() && core_.try_push_fast(m)) {
      // mo: relaxed stat counter.
      fast_pushes_.fetch_add(1, std::memory_order_relaxed);
      // Dekker handshake with enter_wait_locked (see WaiterGate in
      // rtm/mailbox_core.hpp): one side always observes the other, so a
      // receiver can never park after missing a message that skipped its
      // wakeup (memory-ordering argument in DESIGN.md §7).
      if (waiter_gate_.publisher_sees_waiter()) {
        std::lock_guard lock(mutex_);
        wake_matching_locked(source, tag);
      } else {
        // mo: relaxed stat counter.
        notifies_skipped_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    std::lock_guard lock(mutex_);
    // mo: relaxed re-read; set_check stores under this mutex.
    check::RunChecker* check = check_.load(std::memory_order_relaxed);
    if (check != nullptr) check->on_push(owner_, m);
    // mo: relaxed stat counter.
    slow_pushes_.fetch_add(1, std::memory_order_relaxed);
    // mo: relaxed fast_path_ (quiesced toggle).
    core_.push_locked(std::move(m), fast_path_.load(std::memory_order_relaxed));
    wake_matching_locked(source, tag);
  }

  /// Removes and returns the first queued message matching `match`, or
  /// std::nullopt when none is queued. Only exact envelopes can be served
  /// by the ring head; every other envelope takes the slow path.
  std::optional<Message> try_pop(const Match& match) {
    if (match.exact() && fast_path_armed()) {
      Message out;
      switch (core_.try_pop_fast(pack_envelope(match.source, match.tags[0]),
                                 out)) {
        case PopResult::kOk:
          // mo: relaxed stat counter.
          fast_pops_.fetch_add(1, std::memory_order_relaxed);
          return out;
        case PopResult::kEmpty:
          // Consumer-lock bit was clear, which implies the deque is empty
          // too — there is nothing to receive anywhere.
          return std::nullopt;
        case PopResult::kMismatch:
        case PopResult::kLocked:
          break;  // an older/other message may match under the mutex
      }
    }
    std::lock_guard lock(mutex_);
    const SlowSection slow(*this);
    return pop_locked(match);
  }

  /// Blocking receive. With rtm-check attached, a single-tag wait is
  /// registered with the deadlock detector, every wait polls the abort
  /// flag, and a diagnosed deadlock throws check::DeadlockError here
  /// instead of hanging forever.
  Message pop(const Match& match) {
    if (auto m = receive(match, nullptr)) return std::move(*m);
    // mo: relaxed re-read; receive() only returns empty on a checker abort.
    check_.load(std::memory_order_relaxed)->throw_abort();
  }

  /// Timed receive: the first message matching `match`, waiting up to
  /// `timeout` for one to arrive. Returns empty on timeout, and early once
  /// rtm-check aborts the run.
  template <class Rep, class Period>
  std::optional<Message> pop_for(const Match& match,
                                 std::chrono::duration<Rep, Period> timeout) {
    const Clock::time_point deadline = Clock::now() + timeout;
    return receive(match, &deadline);
  }

  /// Non-blocking probe: envelope of the first matching message without
  /// removing it (MPI_Iprobe).
  std::optional<MessageInfo> probe(int source, int tag) const {
    const Match match{source, tag};
    std::lock_guard lock(mutex_);
    const SlowSection slow(*this);
    for (const Message& q : core_.queue()) {
      if (match.matches(q.source, q.tag)) return q.info();
    }
    return std::nullopt;
  }

  /// Envelope snapshot of every queued message, in queue order (rtm-check
  /// leak audit and deadlock state dumps).
  std::vector<MessageInfo> pending_info() const {
    std::lock_guard lock(mutex_);
    const SlowSection slow(*this);
    std::vector<MessageInfo> out;
    out.reserve(core_.queue().size());
    for (const Message& q : core_.queue()) out.push_back(q.info());
    return out;
  }

  /// Visits every queued message under the lock, in queue order. Used by
  /// the rtm-check finalize pass, which must parse leaked payloads (to read
  /// protocol sequence numbers) — pending_info() only exposes envelopes.
  /// `fn` must not touch the mailbox.
  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    const SlowSection slow(*this);
    for (const Message& q : core_.queue()) fn(q);
  }

  bool empty() const { return size() == 0; }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return core_.queue().size() + core_.ring_size();
  }

  MailboxStats stats() const {
    MailboxStats s;
    s.fast_pushes = stat_read(fast_pushes_);
    s.slow_pushes = stat_read(slow_pushes_);
    s.fast_pops = stat_read(fast_pops_);
    s.futile_wakeups = stat_read(futile_wakeups_);
    s.notifies_skipped = stat_read(notifies_skipped_);
    return s;
  }

 private:
  /// A blocked receiver's envelope and own wakeup, on its stack; pushes
  /// touch it only under the mutex.
  struct Waiter {
    Match match;
    std::condition_variable cv{};
    bool woken = false;  // guarded by mutex_: a matching push notified
  };

  /// RAII instrumentation for one blocked receive: a mailbox:wait span in
  /// the trace plus a sample in the owner rank's wait histogram. Runs with
  /// the mailbox mutex held; the tracer/registry are leaf locks.
  struct BlockedWait {
    explicit BlockedWait(int rank)
        : rank_(rank), start_(obs::Tracer::instance().now_ns()) {}
    BlockedWait(const BlockedWait&) = delete;
    BlockedWait& operator=(const BlockedWait&) = delete;
    ~BlockedWait() {
      obs::Tracer& tracer = obs::Tracer::instance();
      const std::int64_t waited_ns = tracer.now_ns() - start_;
      tracer.complete("mailbox", "mailbox:wait", start_);
      if (obs::Histogram* h = obs::Registry::global().histogram(
              "reptile_mailbox_wait_us", rank_)) {
        h->record(static_cast<std::uint64_t>(waited_ns < 0 ? 0 : waited_ns) /
                  1000);
      }
    }
    int rank_;
    std::int64_t start_;
  };

  /// RAII for a locked consumer section: sets the ring's consumer-lock bit
  /// and drains the ring into the deque, so the deque shows every delivered
  /// message and fast pops cannot race the scan. On exit the bit is cleared
  /// iff the deque is empty (the bit's steady-state meaning: "an older
  /// message is parked outside the ring"). pause()/resume() bracket condvar
  /// waits so fast pops keep flowing while this thread sleeps; resume()
  /// drains the ring dry, as a waiter must before it parks again.
  class SlowSection {
   public:
    explicit SlowSection(const Mailbox& mb) : mb_(mb) {
      mb_.core_.slow_begin_locked();
    }
    SlowSection(const SlowSection&) = delete;
    SlowSection& operator=(const SlowSection&) = delete;
    ~SlowSection() { mb_.core_.slow_end_locked(); }
    void pause() { mb_.core_.slow_end_locked(); }
    void resume() { mb_.core_.resume_wait_locked(); }

   private:
    const Mailbox& mb_;
  };

  /// RAII registration of a blocked receiver. Construction runs
  /// enter_wait_locked, the receiving half of the handshake with push().
  class WaiterScope {
   public:
    WaiterScope(Mailbox& mb, Waiter* w) : mb_(mb), w_(w) {
      mb_.waiters_.push_back(w_);
      mb_.core_.enter_wait_locked(mb_.waiter_gate_);
    }
    WaiterScope(const WaiterScope&) = delete;
    WaiterScope& operator=(const WaiterScope&) = delete;
    ~WaiterScope() {
      mb_.waiters_.erase(
          std::find(mb_.waiters_.begin(), mb_.waiters_.end(), w_));
      mb_.waiter_gate_.exit();
    }

   private:
    Mailbox& mb_;
    Waiter* w_;
  };

  /// RAII wait-for edge of a blocking single-tag receive under rtm-check.
  struct RecvWaitEdge {
    check::RunChecker& check;
    std::uint64_t ticket;
    ~RecvWaitEdge() { check.end_recv_wait(ticket); }
  };

  bool fast_path_armed() const {
    // mo: acquire on check_ (see set_check); relaxed on fast_path_ (quiesced
    // toggle).
    return check_.load(std::memory_order_acquire) == nullptr &&
           fast_path_.load(std::memory_order_relaxed);
  }

  /// Shared body of pop (`deadline` null: until a match or a checker
  /// abort) and pop_for. Exact envelopes first spin on the ring head; then
  /// the one locked wait: scan, register, drain, scan, park on the waiter's
  /// own condvar until a matching push, the deadline or a poll wakes it.
  std::optional<Message> receive(const Match& match,
                                 const Clock::time_point* deadline) {
    if (match.exact() && fast_path_armed()) {
      const std::uint64_t env = pack_envelope(match.source, match.tags[0]);
      Message out;
      for (int spin = 0; spin < kPopSpins; ++spin) {
        const auto r = core_.try_pop_fast(env, out);
        if (r == PopResult::kOk) {
          // mo: relaxed stat counter.
          fast_pops_.fetch_add(1, std::memory_order_relaxed);
          return out;
        }
        if (r != PopResult::kEmpty) break;
        if (spin < kPopPauses) {
          detail::cpu_pause();
        } else {
          std::this_thread::yield();
        }
      }
    }
    std::unique_lock lock(mutex_);
    SlowSection slow(*this);
    if (auto m = pop_locked(match)) return m;
    // A blocking single-tag receive records a mailbox:wait span (on every
    // exit path, aborts included) and registers its wait-for edge.
    const bool tracked = deadline == nullptr && match.ntags == 1;
    std::optional<BlockedWait> blocked;
    if (tracked) blocked.emplace(owner_);
    Waiter waiter{match};
    const WaiterScope scope(*this, &waiter);
    if (auto m = pop_locked(match)) return m;
    // mo: relaxed re-read; set_check stores under this mutex.
    check::RunChecker* check = check_.load(std::memory_order_relaxed);
    std::optional<RecvWaitEdge> edge;
    if (check != nullptr && tracked && !check->aborted()) {
      edge.emplace(*check, check->begin_recv_wait(owner_, match.source,
                                                  match.tags[0], this));
    }
    while (true) {
      if (check != nullptr && check->aborted()) return std::nullopt;
      slow.pause();
      if (check == nullptr && deadline == nullptr) {
        waiter.cv.wait(lock);
      } else {
        Clock::time_point wake =
            check != nullptr ? Clock::now() + check->poll_interval()
                             : *deadline;
        if (deadline != nullptr && *deadline < wake) wake = *deadline;
        waiter.cv.wait_until(lock, wake);
      }
      slow.resume();
      if (auto m = pop_locked(match)) return m;
      if (waiter.woken) {
        // mo: relaxed stat counter.
        futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
        waiter.woken = false;
      }
      if (deadline != nullptr && Clock::now() >= *deadline) {
        return std::nullopt;
      }
    }
  }

  /// Wakes every parked receiver whose envelope matches (source, tag).
  /// Under the mutex: that keeps a stack-resident Waiter alive until the
  /// notify is done.
  void wake_matching_locked(int source, int tag) {
    bool matched = false;
    for (Waiter* w : waiters_) {
      if (w->match.matches(source, tag)) {
        w->woken = true;
        w->cv.notify_one();
        matched = true;
      }
    }
    if (!matched) {
      // mo: relaxed stat counter.
      notifies_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::optional<Message> pop_locked(const Match& match) {
    auto& queue = core_.queue();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (!match.matches(it->source, it->tag)) continue;
      Message m = std::move(*it);
      queue.erase(it);
      // mo: relaxed re-read; set_check stores under this mutex.
      check::RunChecker* check = check_.load(std::memory_order_relaxed);
      if (check != nullptr) check->on_pop(owner_, m);
      return m;
    }
    return std::nullopt;
  }

  mutable std::mutex mutex_;
  mutable Core core_{kRingCapacity};  // deque guarded by mutex_
  // The ring's cell array is the mailbox's dominant fixed cost; charged once
  // at construction (the overflow deque is transient and stays uncharged).
  obs::LedgerCharge ring_charge_{obs::LedgerAccount::kMailboxRings};
  std::vector<Waiter*> waiters_;  // guarded by mutex_
  WaiterGate<StdAtomics> waiter_gate_;
  std::atomic<bool> fast_path_{true};
  std::atomic<check::RunChecker*> check_{nullptr};
  int owner_ = -1;

  std::atomic<std::uint64_t> fast_pushes_{0};
  std::atomic<std::uint64_t> slow_pushes_{0};
  std::atomic<std::uint64_t> fast_pops_{0};
  std::atomic<std::uint64_t> futile_wakeups_{0};
  std::atomic<std::uint64_t> notifies_skipped_{0};
};

}  // namespace reptile::rtm
