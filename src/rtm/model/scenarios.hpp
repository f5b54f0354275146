#pragma once
// Model-checker scenarios for the rtm concurrency kernel (DESIGN.md §8).
//
// Each scenario instantiates the PRODUCTION templates — BasicMpmcMessageRing,
// BasicMailboxCore, WaiterGate, SlabRefGate — with the instrumented
// ModelAtomics policy and drives them from 2-3 virtual threads, mirroring
// the way rtm/mailbox.hpp composes them. Invariants:
//
//   ring_fifo / mailbox_overflow — per-(source, tag) FIFO across the ring
//       AND the overflow deque, checked against global arrival order
//       (catches the PR 6 overflow-spill race its mutant re-introduces);
//   ring_exact — exact-envelope fast pops deliver every message intact
//       (catches the relaxed-publish mutant as a data race on the cell);
//   waiter_gate — the Dekker waiter handshake never loses a wakeup
//       (a lost one parks the consumer forever = modeled deadlock);
//   targeted_wakeup — a push wakes only the waiters whose envelope it
//       matches, exact and multi-tag alike, on the lock-free and the locked
//       push path, and loses no wakeup (catches the skip-the-drain mutant);
//   slab_gate — the arena retire/release race recycles a slab exactly
//       once, never twice, never zero times.
//
// Scenarios are looked up by name from tests/test_rtm_model.cpp and from
// tools/rtm_model.cpp, so a failure printed anywhere is replayable from
// the command line.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rtm/mailbox_core.hpp"
#include "rtm/message.hpp"
#include "rtm/model/atomic.hpp"
#include "rtm/model/explore.hpp"
#include "rtm/model/scheduler.hpp"
#include "rtm/ring.hpp"

namespace reptile::rtm::model {

/// Mailbox logic rebuilt over the model policy: the same composition of
/// core + gate + mutex + per-waiter condvars as rtm::Mailbox, minus
/// stats/rtm-check. Scenarios share one instance across their virtual
/// threads.
struct ModelMailbox {
  explicit ModelMailbox(std::size_t cap) : core(cap) {}

  /// Mirrors Mailbox::Waiter.
  struct Waiter {
    Match match;
    CondVar cv{};
    bool woken = false;  // guarded by mu
  };

  BasicMailboxCore<ModelAtomics> core;
  WaiterGate<ModelAtomics> gate;
  Mutex mu;
  std::vector<Waiter*> waiters;  // guarded by mu
  int futile_wakeups = 0;        // guarded by mu

  /// Mirrors Mailbox::push: lock-free fast path + Dekker wakeup check,
  /// locked overflow path otherwise.
  void push(Message m) {
    const int source = m.source;
    const int tag = m.tag;
    if (core.try_push_fast(m)) {
      if (gate.publisher_sees_waiter()) {
        LockGuard lock(mu);
        wake_matching_locked(source, tag);
      }
      return;
    }
    LockGuard lock(mu);
    core.push_locked(std::move(m), /*fast_path_enabled=*/true);
    wake_matching_locked(source, tag);
  }

  /// Mirrors Mailbox::try_pop for an exact envelope.
  std::optional<Message> try_pop(const Match& match) {
    Message out;
    switch (core.try_pop_fast(pack_envelope(match.source, match.tags[0]),
                              out)) {
      case BasicMailboxCore<ModelAtomics>::PopResult::kOk:
        return out;
      case BasicMailboxCore<ModelAtomics>::PopResult::kEmpty:
        return std::nullopt;
      case BasicMailboxCore<ModelAtomics>::PopResult::kMismatch:
      case BasicMailboxCore<ModelAtomics>::PopResult::kLocked:
        break;
    }
    LockGuard lock(mu);
    core.slow_begin_locked();
    auto m = pop_queue_locked(match);
    core.slow_end_locked();
    return m;
  }

  /// Mirrors Mailbox::receive's locked wait.
  Message pop_blocking(const Match& match) {
    mu.lock();
    core.slow_begin_locked();
    std::optional<Message> m = pop_queue_locked(match);
    if (!m) {
      Waiter w{match};
      waiters.push_back(&w);
      core.enter_wait_locked(gate);
      while (!(m = pop_queue_locked(match))) {
        if (w.woken) ++futile_wakeups;
        w.woken = false;
        core.slow_end_locked();
        w.cv.wait(mu);
        core.resume_wait_locked();
      }
      waiters.erase(std::find(waiters.begin(), waiters.end(), &w));
      gate.exit();
    }
    core.slow_end_locked();
    mu.unlock();
    return std::move(*m);
  }

  /// Pops the OLDEST queued message regardless of envelope (arrival
  /// order), or nullopt when nothing is delivered yet. The FIFO oracle:
  /// slow_begin_locked drains the ring behind the consumer-lock bit, so
  /// deque order here IS global delivery order.
  std::optional<Message> pop_front_any() {
    LockGuard lock(mu);
    core.slow_begin_locked();
    std::optional<Message> out;
    if (!core.queue().empty()) {
      out = std::move(core.queue().front());
      core.queue().pop_front();
    }
    core.slow_end_locked();
    return out;
  }

 private:
  /// Mirrors Mailbox::wake_matching_locked; the caller's mutex serializes
  /// the wakeup with the receiver's check-then-wait.
  void wake_matching_locked(int source, int tag) {
    for (Waiter* w : waiters) {
      if (w->match.matches(source, tag)) {
        w->woken = true;
        w->cv.notify_all();
      }
    }
  }

  std::optional<Message> pop_queue_locked(const Match& match) {
    auto& q = core.queue();
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (match.matches(it->source, it->tag)) {
        Message m = std::move(*it);
        q.erase(it);
        return m;
      }
    }
    return std::nullopt;
  }
};

namespace scenarios {

inline Message make_msg(int source, int tag) {
  return Message::of_value<int>(source, tag, tag);
}

/// n1 msgs on stream (source 1) and n2 on (source 2) race into a
/// capacity-`cap` ring; a consumer drains in arrival order and the
/// invariant demands per-stream tags ascend. Overflow configurations
/// (n1 + n2 > cap) drive the locked spill path the PR 6 race lived in.
inline std::function<void(Sim&)> ring_fifo(int n1, int n2, std::size_t cap) {
  return [n1, n2, cap](Sim& sim) {
    struct State {
      explicit State(std::size_t c) : mb(c) {}
      ModelMailbox mb;
      std::vector<std::pair<int, int>> got;  // (source, tag) arrival order
    };
    auto st = std::make_shared<State>(cap);
    const int total = n1 + n2;
    sim.thread("P1", [st, n1] {
      for (int i = 0; i < n1; ++i) st->mb.push(make_msg(1, i));
    });
    sim.thread("P2", [st, n2] {
      for (int i = 0; i < n2; ++i) st->mb.push(make_msg(2, i));
    });
    sim.thread("C", [st, total] {
      while (static_cast<int>(st->got.size()) < total) {
        if (auto m = st->mb.pop_front_any()) {
          st->got.emplace_back(m->source, m->tag);
        } else {
          ModelAtomics::yield();  // parks until a producer makes progress
        }
      }
    });
    sim.invariant([st, n1, n2] {
      int next1 = 0;
      int next2 = 0;
      for (const auto& [source, tag] : st->got) {
        int& next = source == 1 ? next1 : next2;
        require(tag == next, "stream " + std::to_string(source) +
                                 " delivered tag " + std::to_string(tag) +
                                 " before tag " + std::to_string(next) +
                                 " (per-stream FIFO broken)");
        ++next;
      }
      require(next1 == n1 && next2 == n2, "messages lost");
    });
  };
}

/// Exact-envelope consumption: the consumer pops each stream's NEXT
/// expected (source, tag) through the lock-free fast path, falling back
/// to the locked scan on mismatch — try_pop_exact's kOk/kEmpty/kMismatch
/// triangle plus payload integrity. The relaxed-publish mutant dies here:
/// the claimed cell's Message is read without the release/acquire edge,
/// which the PlainVar happens-before check reports as a data race.
inline std::function<void(Sim&)> ring_exact(int n1, int n2, std::size_t cap) {
  return [n1, n2, cap](Sim& sim) {
    struct State {
      explicit State(std::size_t c) : mb(c) {}
      ModelMailbox mb;
      int delivered = 0;
    };
    auto st = std::make_shared<State>(cap);
    const int total = n1 + n2;
    sim.thread("P1", [st, n1] {
      for (int i = 0; i < n1; ++i) st->mb.push(make_msg(1, i));
    });
    sim.thread("P2", [st, n2] {
      for (int i = 0; i < n2; ++i) st->mb.push(make_msg(2, i));
    });
    sim.thread("C", [st, n1, n2, total] {
      int next1 = 0;
      int next2 = 0;
      while (st->delivered < total) {
        bool progressed = false;
        if (next1 < n1) {
          if (auto m = st->mb.try_pop({1, next1})) {
            require(m->as_value<int>() == next1, "payload corrupted");
            ++next1;
            ++st->delivered;
            progressed = true;
          }
        }
        if (next2 < n2) {
          if (auto m = st->mb.try_pop({2, next2})) {
            require(m->as_value<int>() == next2, "payload corrupted");
            ++next2;
            ++st->delivered;
            progressed = true;
          }
        }
        if (!progressed) ModelAtomics::yield();
      }
    });
    sim.invariant([st, total] {
      require(st->delivered == total, "messages lost");
    });
  };
}

/// One producer, one blocking consumer: if the producer's fast-path push
/// decides "no waiter registered" while the consumer decides "nothing
/// delivered, park", the consumer sleeps forever. The WaiterGate seq_cst
/// fence handshake forbids that outcome; weakening it makes this scenario
/// deadlock (which the scheduler reports with the parked-thread states).
inline std::function<void(Sim&)> waiter_gate() {
  return [](Sim& sim) {
    auto st = std::make_shared<ModelMailbox>(2);
    sim.thread("P", [st] { st->push(make_msg(1, 0)); });
    sim.thread("C", [st] {
      const Message m = st->pop_blocking(Match{1, 0});
      require(m.tag == 0, "wrong message");
    });
  };
}

/// Per-waiter wakeup: two pushers, an exact and a multi-tag waiter taking
/// one message each; three pushes (one matching no one) through a
/// capacity-2 ring, so pushes go fast or locked and a waiter can meet an
/// unpublished head cell. No lost wakeup (= modeled deadlock), and no
/// futile one: with one message per waiter, that is a push waking a
/// waiter whose envelope it does not match.
inline std::function<void(Sim&)> targeted_wakeup() {
  return [](Sim& sim) {
    auto st = std::make_shared<ModelMailbox>(2);
    sim.thread("P1", [st] {
      st->push(make_msg(2, 7));
      st->push(make_msg(3, 9));
    });
    sim.thread("P2", [st] { st->push(make_msg(1, 0)); });
    sim.thread("W_exact", [st] {
      const Message m = st->pop_blocking(Match{1, 0});
      require(m.source == 1 && m.tag == 0,
              "exact waiter took a foreign message");
    });
    sim.thread("W_multi", [st] {
      const Message m = st->pop_blocking(Match{kAnySource, {7, 8}});
      require(m.source == 2 && m.tag == 7,
              "multi-tag waiter took a foreign message");
    });
    sim.invariant([st] {
      require(st->futile_wakeups == 0,
              "a push woke a waiter whose envelope it does not match");
    });
  };
}

/// The PayloadArena retire/release race, reduced to its gate: two
/// receivers release their handles lock-free while the owner retires the
/// slab; whoever is last recycles — exactly once (no double-free), and
/// someone does (no leak).
inline std::function<void(Sim&)> slab_gate() {
  return [](Sim& sim) {
    struct State {
      SlabRefGate<ModelAtomics> gate;
      Atomic<int> ready{0};
      Mutex mu;
      int recycles = 0;  // guarded by mu
    };
    auto st = std::make_shared<State>();
    sim.thread("owner", [st] {
      {
        LockGuard lock(st->mu);
        st->gate.add_ref();
        st->gate.add_ref();
      }
      // mo: release publishes the two add_ref()s above to the releasers'
      // acquire spin; part of what this scenario verifies.
      st->ready.store(1, std::memory_order_release);
      {
        LockGuard lock(st->mu);
        if (st->gate.retire_locked()) ++st->recycles;
      }
    });
    for (int r = 0; r < 2; ++r) {
      sim.thread("R" + std::to_string(r), [st] {
        // mo: acquire pairs with the owner's release store of ready.
        while (st->ready.load(std::memory_order_acquire) == 0) {
          ModelAtomics::yield();
        }
        if (st->gate.release_last()) {
          LockGuard lock(st->mu);
          if (st->gate.try_recycle_locked()) ++st->recycles;
        }
      });
    }
    sim.invariant([st] {
      require(st->recycles == 1,
              "slab recycled " + std::to_string(st->recycles) +
                  " times (want exactly 1: no double-free, no leak)");
    });
  };
}

/// Named registry shared by the test suite and the rtm_model CLI.
struct Named {
  std::string name;
  std::string description;
  std::function<void(Sim&)> fn;
};

inline std::vector<Named> all() {
  return {
      {"ring_fifo_small",
       "2 producers (2+1 msgs) / 1 consumer, capacity-2 ring, FIFO oracle",
       ring_fifo(2, 1, 2)},
      {"mailbox_overflow",
       "overflow-heavy FIFO: 3+2 msgs through a capacity-2 ring",
       ring_fifo(3, 2, 2)},
      {"ring_exact",
       "exact-envelope fast pops with mismatch fallback, 2+2 msgs, cap 4",
       ring_exact(2, 2, 4)},
      {"waiter_gate", "lost-wakeup handshake: 1 pusher vs 1 parked receiver",
       waiter_gate()},
      {"targeted_wakeup",
       "per-waiter wakeup: 2 pushers, 1 exact and 1 multi-tag waiter, cap 2",
       targeted_wakeup()},
      {"slab_gate", "arena slab retire vs 2 lock-free releases",
       slab_gate()},
  };
}

inline const Named* find(const std::string& name) {
  static const std::vector<Named> reg = all();
  for (const Named& s : reg) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace scenarios
}  // namespace reptile::rtm::model
