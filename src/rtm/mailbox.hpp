#pragma once
// Per-rank mailbox: a thread-safe queue with MPI-style selective matching.
//
// Multiple sender threads push; the owning rank's worker thread and
// communication thread pop concurrently with different (source, tag)
// filters — the worker pops replies, the communication thread pops lookup
// requests — so matching must be selective and thread-safe. Messages from
// the same (source, tag) pair are delivered in FIFO order, the MPI
// non-overtaking guarantee the protocols rely on (and that the rtm-check
// mailbox audit verifies at runtime, see rtm/check/check.hpp).
//
// Two delivery paths (DESIGN.md §7):
//
// - FAST: a bounded lock-free MPMC ring (rtm/ring.hpp). Pushes and
//   exact-(source, tag) pops of the ring head complete without touching
//   the mutex. Only enabled while no run checker is attached — rtm-check
//   hooks must observe pushes/pops under the mutex to stamp and audit
//   per-stream sequence numbers.
// - SLOW: the classic mutex/condvar deque. Wildcard matching, predicate
//   receives (pop_match_for), probes, pending-state dumps, blocked waits,
//   and ring overflow all take this path.
//
// The path mechanics — ring, overflow deque, consumer-lock discipline,
// the waiter-count Dekker handshake against lost wakeups — live in
// rtm/mailbox_core.hpp (BasicMailboxCore / WaiterGate), templated on an
// atomics policy so the model checker (rtm/model/, DESIGN.md §8) can
// explore their interleavings. This class binds them to the production
// policy and adds the mutex, condvar, waiter registry, rtm-check hooks,
// obs instrumentation and stats.
//
// Wakeups are targeted: blocked receivers register their (source, tag)
// filter (wildcards for predicate receives) and push only notifies when
// some registered filter matches the pushed envelope.

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
  /// Exact-match blocking pops spin on the ring this many times before
  /// parking on the condvar (an empty ring can fill any moment; a mismatch
  /// or locked ring cannot resolve without the mutex, so those bail out
  /// immediately). The first kPopPauses iterations busy-wait with a CPU
  /// pause — they catch messages published by a producer running
  /// SIMULTANEOUSLY on another core. The remaining iterations yield the
  /// thread instead: when ranks share cores (including the 1-CPU CI box),
  /// the producer can only publish after the scheduler runs it, so ceding
  /// the core IS the fastest way to make the message arrive — a yielding
  /// request/reply pair round-trips entirely on the ring, with the futex
  /// sleep/wake and the notify mutex never touched (push sees no
  /// registered waiter and skips the notify). Pure pause-spinning here
  /// would be actively harmful: it burns the whole timeslice the producer
  /// needs, degenerating every receive into a full spin window PLUS the
  /// park it was meant to avoid.
  static constexpr int kPopSpins = 32;
  static constexpr int kPopPauses = 4;

  using Core = BasicMailboxCore<StdAtomics>;
  using PopResult = Core::PopResult;

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
    // mo: release pairs with the acquire in push/try_pop/pop — a sender
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

  /// Enqueues a message (called by sender threads). Lock-free unless a
  /// checker is attached, the fast path is disabled, or the ring is full.
  void push(Message m) {
    const int source = m.source;
    const int tag = m.tag;
    // mo: acquire on check_ (see set_check); relaxed on fast_path_ (quiesced
    // toggle).
    if (check_.load(std::memory_order_acquire) == nullptr &&
        fast_path_.load(std::memory_order_relaxed) && core_.try_push_fast(m)) {
      // mo: relaxed stat counter.
      fast_pushes_.fetch_add(1, std::memory_order_relaxed);
      // Dekker handshake with WaiterScope (see WaiterGate in
      // rtm/mailbox_core.hpp): one side always observes the other, so a
      // receiver can never park after missing a message that skipped its
      // notify (memory-ordering argument in DESIGN.md §7).
      if (waiter_gate_.publisher_sees_waiter()) {
        notify_matching(source, tag);
      } else {
        // mo: relaxed stat counter.
        notifies_skipped_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    push_slow(std::move(m), source, tag);
  }

  /// Removes and returns the first message matching (source, tag), or
  /// std::nullopt when none is queued. Wildcards kAnySource / kAnyTag match
  /// anything (and always take the slow path).
  std::optional<Message> try_pop(int source, int tag) {
    // mo: acquire on check_ (see set_check); relaxed on fast_path_.
    if (source != kAnySource && tag != kAnyTag &&
        check_.load(std::memory_order_acquire) == nullptr &&
        fast_path_.load(std::memory_order_relaxed)) {
      Message out;
      switch (core_.try_pop_fast(pack_envelope(source, tag), out)) {
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
    return pop_locked(source, tag);
  }

  /// Blocking matched receive. When rtm-check is attached, the wait is
  /// registered with the deadlock detector and polls the abort flag, so a
  /// diagnosed deadlock throws check::DeadlockError here instead of
  /// hanging forever.
  Message pop(int source, int tag) {
    // mo: acquire on check_ (see set_check); relaxed on fast_path_.
    if (source != kAnySource && tag != kAnyTag &&
        check_.load(std::memory_order_acquire) == nullptr &&
        fast_path_.load(std::memory_order_relaxed)) {
      const std::uint64_t env = pack_envelope(source, tag);
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
    return pop_slow_blocking(source, tag);
  }

  /// Removes and returns the first message satisfying `pred`, waiting up to
  /// `timeout` for one to arrive. Used by communication threads, which must
  /// match several request tags at once while never stealing reply messages
  /// destined for the worker thread. Returns early (empty) once rtm-check
  /// aborts the run. The predicate must be stateless: across wakeups only
  /// newly arrived messages are re-examined (a message that failed the
  /// predicate once can never match later), so scans resume where the last
  /// one stopped instead of rescanning the whole deque.
  template <class Pred, class Rep, class Period>
  std::optional<Message> pop_match_for(
      Pred&& pred, std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    return pop_match_until(pred, &deadline);
  }

  /// pop_match_for without a timeout: blocks until a message satisfies
  /// `pred`. Without a checker the wait is one untimed condvar sleep, woken
  /// only by pushes; with one it wakes every poll interval and throws the
  /// checker's abort error once the run is aborted.
  template <class Pred>
  Message pop_match(Pred&& pred) {
    if (auto m = pop_match_until(pred, nullptr)) return std::move(*m);
    // mo: relaxed re-read; pop_match_until's acquire ordered construction.
    check_.load(std::memory_order_relaxed)->throw_abort();
  }

  /// Non-blocking probe: envelope of the first matching message without
  /// removing it (MPI_Iprobe).
  std::optional<MessageInfo> probe(int source, int tag) const {
    std::lock_guard lock(mutex_);
    const SlowSection slow(*this);
    for (const Core::Entry& q : core_.queue()) {
      if (matches(q.msg, source, tag)) return q.msg.info();
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
    for (const Core::Entry& q : core_.queue()) out.push_back(q.msg.info());
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
    for (const Core::Entry& q : core_.queue()) fn(q.msg);
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
  /// Shared body of pop_match_for (finite `deadline`) and pop_match
  /// (`deadline` null: wait until a match or a checker abort).
  template <class Pred>
  std::optional<Message> pop_match_until(
      Pred& pred, const std::chrono::steady_clock::time_point* deadline) {
    std::unique_lock lock(mutex_);
    SlowSection slow(*this);
    // The predicate is opaque, so the registered filter is a wildcard.
    Waiter waiter{kAnySource, kAnyTag};
    const WaiterScope scope(*this, &waiter);
    // Drain again after publishing the registration (the receiving half of
    // the Dekker handshake, as in pop_slow_blocking): a lock-free push that
    // landed between SlowSection's drain and the registration skipped its
    // notify, and an untimed wait would never see it.
    core_.drain_ring_locked();
    // mo: acquire on check_ (see set_check).
    check::RunChecker* check = check_.load(std::memory_order_acquire);
    std::uint64_t scan_from = 0;  // stamps below this are already examined
    bool notified = false;
    while (true) {
      auto& queue = core_.queue();
      auto it = queue.begin();
      if (scan_from != 0) {
        // Deque stamps are ascending (assigned on deque entry), so the
        // resume point is a binary search away.
        it = std::lower_bound(
            queue.begin(), queue.end(), scan_from,
            [](const Core::Entry& q, std::uint64_t s) { return q.stamp < s; });
      }
      for (; it != queue.end(); ++it) {
        if (pred(it->msg)) return take_locked(it);
      }
      scan_from = core_.next_stamp();
      if (notified) {
        // mo: relaxed stat counter.
        futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
        notified = false;
      }
      const auto now = std::chrono::steady_clock::now();
      if (deadline != nullptr && now >= *deadline) return std::nullopt;
      if (check != nullptr && check->aborted()) return std::nullopt;
      slow.pause();
      if (check == nullptr && deadline == nullptr) {
        cv_.wait(lock);
        notified = true;
      } else {
        auto wake = check != nullptr ? now + check->poll_interval() : *deadline;
        if (deadline != nullptr && *deadline < wake) wake = *deadline;
        notified = cv_.wait_until(lock, wake) == std::cv_status::no_timeout;
      }
      slow.resume();
    }
  }

  /// A blocked receiver's filter, registered while it waits so push can
  /// decide whether anyone cares about a new envelope.
  struct Waiter {
    int source;
    int tag;
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
  /// waits so fast pops keep flowing while this thread sleeps.
  class SlowSection {
   public:
    explicit SlowSection(const Mailbox& mb) : mb_(mb) {
      mb_.core_.slow_begin_locked();
    }
    SlowSection(const SlowSection&) = delete;
    SlowSection& operator=(const SlowSection&) = delete;
    ~SlowSection() { mb_.core_.slow_end_locked(); }
    void pause() { mb_.core_.slow_end_locked(); }
    void resume() { mb_.core_.slow_begin_locked(); }

   private:
    const Mailbox& mb_;
  };

  /// RAII registration of a blocked receiver's filter. Construction issues
  /// the fence (WaiterGate::enter) that pairs with the publisher's
  /// handshake in push(): after it, either the rescan sees every lock-free
  /// publication, or the publisher sees the incremented waiter count and
  /// notifies.
  class WaiterScope {
   public:
    WaiterScope(Mailbox& mb, Waiter* w) : mb_(mb), w_(w) {
      mb_.waiters_.push_back(w_);
      mb_.waiter_gate_.enter();
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

  static bool matches(const Message& m, int source, int tag) noexcept {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  void push_slow(Message m, int source, int tag) {
    bool matched = false;
    {
      std::lock_guard lock(mutex_);
      // mo: relaxed re-read; the caller's acquire ordered construction.
      check::RunChecker* check = check_.load(std::memory_order_relaxed);
      if (check != nullptr) check->on_push(owner_, m);
      // mo: relaxed stat counter.
      slow_pushes_.fetch_add(1, std::memory_order_relaxed);
      // mo: relaxed fast_path_ (quiesced toggle).
      core_.push_locked(std::move(m),
                        fast_path_.load(std::memory_order_relaxed));
      matched = waiter_gate_.any_waiter_hint() &&
                any_waiter_matches_locked(source, tag);
    }
    // Deliberately outside the critical section: notifying under the mutex
    // would wake receivers straight into a lock they cannot take (one
    // futile context switch per push). Safe because a Mailbox always
    // outlives its senders — World joins every rank thread before the
    // mailboxes die. Contrast Barrier::arrive_and_wait, whose notify must
    // stay inside (see world.hpp).
    if (matched) {
      cv_.notify_all();
    } else {
      // mo: relaxed stat counter.
      notifies_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Message pop_slow_blocking(int source, int tag) {
    std::unique_lock lock(mutex_);
    SlowSection slow(*this);
    if (auto m = pop_locked(source, tag)) return std::move(*m);
    // Only receives that actually block are recorded: the scan above
    // stays untouched, and the trace shows genuine waits, not every pop.
    // Destroyed on every exit path below, including the deadlock-abort
    // throw — an aborted wait still leaves its span in the flight recorder.
    const BlockedWait wait{owner_};
    Waiter waiter{source, tag};
    const WaiterScope scope(*this, &waiter);
    // Rescan after publishing the registration: this is the receiving half
    // of the Dekker handshake with push() and closes the window where a
    // lock-free publication saw no waiters.
    core_.drain_ring_locked();
    if (auto m = pop_locked(source, tag)) return std::move(*m);
    // mo: relaxed re-read; the caller's acquire ordered construction.
    check::RunChecker* check = check_.load(std::memory_order_relaxed);
    if (check == nullptr) {
      while (true) {
        slow.pause();
        cv_.wait(lock);
        slow.resume();
        if (auto m = pop_locked(source, tag)) return std::move(*m);
        // mo: relaxed stat counter.
        futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (check->aborted()) check->throw_abort();
    const std::uint64_t ticket =
        check->begin_recv_wait(owner_, source, tag, this);
    while (true) {
      slow.pause();
      const auto status = cv_.wait_for(lock, check->poll_interval());
      slow.resume();
      if (auto m = pop_locked(source, tag)) {
        check->end_recv_wait(ticket);
        return std::move(*m);
      }
      if (status == std::cv_status::no_timeout) {
        // mo: relaxed stat counter.
        futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
      if (check->aborted()) {
        check->end_recv_wait(ticket);
        check->throw_abort();
      }
    }
  }

  bool any_waiter_matches_locked(int source, int tag) const {
    for (const Waiter* w : waiters_) {
      if ((w->source == kAnySource || w->source == source) &&
          (w->tag == kAnyTag || w->tag == tag)) {
        return true;
      }
    }
    return false;
  }

  /// Envelope-targeted wakeup from a lock-free push: takes the mutex only
  /// to read the waiter registry (push itself stayed lock-free; a waiter
  /// existing means some receiver is about to sleep anyway).
  void notify_matching(int source, int tag) {
    bool matched = false;
    {
      std::lock_guard lock(mutex_);
      matched = any_waiter_matches_locked(source, tag);
    }
    if (matched) {
      cv_.notify_all();
    } else {
      // mo: relaxed stat counter.
      notifies_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Message take_locked(std::deque<Core::Entry>::iterator it) {
    Message m = std::move(it->msg);
    core_.queue().erase(it);
    // mo: relaxed re-read; the caller's acquire ordered construction.
    check::RunChecker* check = check_.load(std::memory_order_relaxed);
    if (check != nullptr) check->on_pop(owner_, m);
    return m;
  }

  std::optional<Message> pop_locked(int source, int tag) {
    auto& queue = core_.queue();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (matches(it->msg, source, tag)) return take_locked(it);
    }
    return std::nullopt;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  mutable Core core_{kRingCapacity};  // deque/stamps guarded by mutex_
  // The ring's cell array is the mailbox's dominant fixed cost; charged once
  // at construction (the overflow deque is transient and stays uncharged).
  obs::LedgerCharge ring_charge_{obs::LedgerAccount::kMailboxRings};
  std::vector<Waiter*> waiters_;      // guarded by mutex_
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
