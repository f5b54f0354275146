#pragma once
// Policy-templated kernel of the mailbox's two delivery paths.
//
// BasicMailboxCore owns the lock-free ring plus the overflow deque and the
// discipline that keeps per-(source, tag) FIFO true across both: locked
// consumers set the ring's consumer-lock bit and drain the ring into the
// deque (so the deque is always the OLDER half of the queue), and the
// locked push path never parks a message in the deque while an older,
// not-yet-drained message is still in the ring. The surrounding Mailbox
// (rtm/mailbox.hpp) contributes the mutex, the waiter registry (each
// waiter with its own wakeup), rtm-check hooks and stats; everything here
// that is suffixed `_locked` requires that external mutex.
//
// WaiterGate owns the waiter-count word and the Dekker (store-buffering)
// fence handshake that closes the lost-wakeup window between a lock-free
// publication and a receiver parking (DESIGN.md §7);
// BasicMailboxCore::enter_wait_locked is the handshake's receiving half.
//
// Both templates are instantiated with StdAtomics in production and with
// the instrumented model policy by tests/test_rtm_model.cpp, which explores
// their interleavings and weak-memory behaviors exhaustively for small
// configurations (DESIGN.md §8).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "rtm/atomics_policy.hpp"
#include "rtm/message.hpp"
#include "rtm/ring.hpp"

namespace reptile::rtm {

#ifdef RTM_MODEL_MUTANT_SPILL_FIFO
namespace mutants {
/// Test-only toggle (model-checker mutant suite): re-introduces the
/// overflow-spill FIFO race PR 6 fixed — on ring overflow, drain once and
/// append to the deque even when the ring head is mid-publish, letting the
/// new message overtake older published entries stuck behind the gap.
/// Never defined in production builds.
inline bool g_spill_fifo = false;
}  // namespace mutants
#endif

#ifdef RTM_MODEL_MUTANT_SKIP_WAIT_DRAIN
namespace mutants {
/// Test-only toggle (model-checker mutant suite): a waiter parks without
/// draining the ring after it announces itself, missing a lock-free push
/// that skipped its wakeup. Never defined in production builds.
inline bool g_skip_wait_drain = false;
}  // namespace mutants
#endif

/// The waiter-count word and the Dekker handshake against lost wakeups.
///
/// Publisher side (after a lock-free ring publication): a seq_cst fence,
/// then the count read — publisher_sees_waiter(). Receiver side (before
/// its final rescan and park): count increment, then a seq_cst fence —
/// enter(). The two fences order the (publish, count-read) pair against
/// the (count-write, rescan) pair like Dekker's algorithm orders its two
/// flags: at least one side always observes the other, so either the
/// publisher notifies, or the receiver's rescan finds the message. A
/// receiver can therefore never park after missing a message whose push
/// skipped the notify (full argument in DESIGN.md §7).
template <class Policy = StdAtomics>
class WaiterGate {
 public:
  /// Publisher half. Call after the message is published; true means some
  /// receiver is registered (or mid-registration) and must be notified.
  bool publisher_sees_waiter() {
    Policy::fence(std::memory_order_seq_cst);
    // mo: relaxed read is sound only behind the seq_cst fence above —
    // the fence pairs with the one in enter() (store-buffering shape).
    return count_.load(std::memory_order_relaxed) != 0;
  }

  /// Receiver half. Call before the post-registration rescan.
  void enter() {
    count_.fetch_add(1, std::memory_order_seq_cst);
    Policy::fence(std::memory_order_seq_cst);
  }

  void exit() { count_.fetch_sub(1, std::memory_order_seq_cst); }

 private:
  typename Policy::template Atomic<int> count_{0};
};

/// Ring + overflow deque + the FIFO discipline between them.
template <class Policy = StdAtomics>
class BasicMailboxCore {
 public:
  using Ring = BasicMpmcMessageRing<Policy>;
  using PopResult = typename Ring::PopResult;

  explicit BasicMailboxCore(std::size_t ring_capacity)
      : ring_(ring_capacity) {}

  /// Lock-free push attempt; false means the caller must take the mutex
  /// and use push_locked.
  bool try_push_fast(Message& m) { return ring_.try_push(m); }

  /// Lock-free exact-envelope pop attempt on the ring head.
  PopResult try_pop_fast(std::uint64_t envelope, Message& out) {
    return ring_.try_pop_exact(envelope, out);
  }

  /// Caller holds the external mutex. Enqueues on the locked path while
  /// preserving arrival order across ring and deque.
  void push_locked(Message m, bool fast_path_enabled) {
    // Keep the ring the primary channel whenever it has room: a new
    // message is the globally newest, so ring entries stay newer than
    // every deque entry (the fast-path FIFO invariant) regardless of
    // the deque's state.
    if (fast_path_enabled && ring_.try_push(m)) return;
    // Ring full or fast path off: spill the ring into the deque first
    // so arrival order is preserved. A drain stops early at a cell
    // whose producer has claimed a slot but not yet published; if `m`
    // were appended to the deque then, the published ring entries
    // behind that gap — all OLDER than `m` — would deliver after it.
    // So either re-enter the ring (where `m` is the newest entry by
    // claim order) or wait the publisher out and drain the ring dry:
    // the publisher is lock-free, never blocks on this mutex, and a
    // yield gives it a core even on single-CPU hosts.
    ring_.set_consumer_lock(true);
#ifdef RTM_MODEL_MUTANT_SPILL_FIFO
    if (mutants::g_spill_fifo) {
      // MUTANT: the pre-fix behavior — one drain, then park `m` in the
      // deque even when a mid-publish gap still hides older ring entries.
      drain_ring_locked();
      if (!(fast_path_enabled && ring_.try_push(m))) {
        queue_.push_back(std::move(m));
      }
      if (queue_.empty()) ring_.set_consumer_lock(false);
      return;
    }
#endif
    for (;;) {
      drain_ring_locked();
      if (fast_path_enabled && ring_.try_push(m)) {
        break;  // drained slots made room; rides the ring, behind the deque
      }
      if (ring_.approx_size() == 0) {
        queue_.push_back(std::move(m));
        break;
      }
      Policy::yield();  // head is mid-publish
    }
    // While the deque is non-empty the consumer-lock bit stays set;
    // the next locked consumer clears it once the deque drains.
    if (queue_.empty()) ring_.set_consumer_lock(false);
  }

  /// Caller holds the external mutex. Sets the consumer-lock bit and moves
  /// every published ring entry to the back of the deque — after this the deque shows every delivered message and
  /// fast pops cannot race a scan.
  void slow_begin_locked() {
    ring_.set_consumer_lock(true);
    drain_ring_locked();
  }

  /// Caller holds the external mutex. Clears the consumer-lock bit iff no
  /// message is parked in the deque (the fast-path FIFO precondition).
  void slow_end_locked() {
    if (queue_.empty()) ring_.set_consumer_lock(false);
  }

  /// Caller holds the external mutex with the consumer-lock bit set.
  void drain_ring_locked() {
    Message m;
    while (ring_.pop_head_locked(m)) {
      queue_.push_back(std::move(m));
    }
  }

  /// Caller holds the external mutex with the consumer-lock bit set and has
  /// just registered a waiter: WaiterGate's receiving half. Announces the
  /// waiter, then drains — a push that landed before the announcement
  /// skipped its wakeup, and only this drain shows it.
  void enter_wait_locked(WaiterGate<Policy>& gate) {
    gate.enter();
#ifdef RTM_MODEL_MUTANT_SKIP_WAIT_DRAIN
    if (mutants::g_skip_wait_drain) return;  // MUTANT: park without a drain
#endif
    drain_ring_dry_locked();
  }

  /// Caller holds the external mutex; a parked waiter woke. Sets the
  /// consumer-lock bit and drains the ring dry before the waiter rescans.
  void resume_wait_locked() {
    ring_.set_consumer_lock(true);
    drain_ring_dry_locked();
  }

  /// The overflow deque (guarded by the external mutex).
  std::deque<Message>& queue() { return queue_; }
  const std::deque<Message>& queue() const { return queue_; }

  std::size_t ring_size() const { return ring_.approx_size(); }

  Ring& ring() { return ring_; }

 private:
  /// A waiter's drain, until the ring is empty. A plain drain stops at a
  /// head cell claimed but not yet published (or not yet visible), and the
  /// messages behind it already spent their wakeups, while the head's push
  /// wakes only its own matches (DESIGN.md §7). The head's producer is
  /// lock-free, so yielding waits it out.
  void drain_ring_dry_locked() {
    for (;;) {
      const std::size_t before = queue_.size();
      drain_ring_locked();
      if (ring_.approx_size() == 0) return;
      if (queue_.size() == before) Policy::yield();  // only a gap is left
    }
  }

  Ring ring_;
  std::deque<Message> queue_;  // guarded by the external mutex
};

}  // namespace reptile::rtm
