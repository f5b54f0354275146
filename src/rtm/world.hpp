#pragma once
// Shared state of one runtime instance: mailboxes, barrier, collective
// staging, traffic counters, optional checkers.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rtm/chaos.hpp"
#include "rtm/check/check.hpp"
#include "rtm/mailbox.hpp"
#include "rtm/topology.hpp"
#include "rtm/traffic.hpp"

namespace reptile::rtm {

/// Reusable generation-counting barrier for a fixed set of participants.
class Barrier {
 public:
  explicit Barrier(int participants) : n_(participants) {}

  /// Installs (or removes) the rtm-check hooks.
  void set_check(check::RunChecker* check) {
    std::lock_guard lock(mutex_);
    check_ = check;
  }

  /// `rank` identifies the arriving rank to rtm-check; pass -1 for an
  /// anonymous arrival (disables deadlock attribution for the generation).
  void arrive_and_wait(int rank = -1) {
    std::unique_lock lock(mutex_);
    const std::uint64_t gen = gen_;
    if (++waiting_ == n_) {
      waiting_ = 0;
      ++gen_;
      if (check_ != nullptr) check_->on_barrier_arrive(rank, gen, true);
      // Unlike Mailbox::push, this notify MUST stay inside the critical
      // section: a woken waiter may return and destroy the Barrier (think
      // "last barrier before teardown") the moment it reacquires the
      // mutex, so notifying after unlock could touch a dead condition
      // variable.
      cv_.notify_all();
      return;
    }
    if (check_ == nullptr) {
      cv_.wait(lock, [&] { return gen_ != gen; });
      return;
    }
    check_->on_barrier_arrive(rank, gen, false);
    const std::uint64_t ticket = check_->begin_barrier_wait(rank, gen);
    while (gen_ == gen) {
      if (check_->aborted()) {
        check_->end_barrier_wait(ticket);
        check_->throw_abort();
      }
      cv_.wait_for(lock, check_->poll_interval());
    }
    check_->end_barrier_wait(ticket);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int n_;
  int waiting_ = 0;
  std::uint64_t gen_ = 0;
  check::RunChecker* check_ = nullptr;
};

/// State shared by all ranks of a run. Created once per Runtime; rank
/// threads access it through their Comm handles.
class World {
 public:
  explicit World(Topology topo)
      : topo_(topo),
        arenas_(static_cast<std::size_t>(topo.nranks)),
        mailboxes_(static_cast<std::size_t>(topo.nranks)),
        barrier_(topo.nranks),
        staging_(static_cast<std::size_t>(topo.nranks), nullptr),
        traffic_(topo) {
    for (int r = 0; r < topo.nranks; ++r) {
      mailboxes_[static_cast<std::size_t>(r)].set_owner(r);
      arenas_[static_cast<std::size_t>(r)] = std::make_unique<PayloadArena>();
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const noexcept { return topo_.nranks; }
  const Topology& topology() const noexcept { return topo_; }

  Mailbox& mailbox(int rank) {
    return mailboxes_[static_cast<std::size_t>(rank)];
  }

  /// Rank-local slab allocator for outgoing wire payloads (zero-copy
  /// sends build messages in place here; see rtm/message.hpp).
  PayloadArena& arena(int rank) {
    return *arenas_[static_cast<std::size_t>(rank)];
  }

  /// Enables/disables the lock-free mailbox fast path on every rank
  /// (benchmark A/B and chaos path-identity tests). Call before spawning
  /// rank threads.
  void set_mailbox_fast_path(bool enabled) {
    for (Mailbox& mb : mailboxes_) mb.set_fast_path(enabled);
  }

  Barrier& barrier() noexcept { return barrier_; }

  /// Collective staging slots: during a collective, slot r holds a pointer
  /// to rank r's send-side data, valid between the entry and exit barriers.
  std::vector<const void*>& staging() noexcept { return staging_; }

  TrafficRecorder& traffic() noexcept { return traffic_; }

  /// Enables chaos delivery (see rtm/chaos.hpp): every subsequent
  /// point-to-point send goes through the fault injector (randomized delay
  /// plus any drop/duplicate/truncate/stall faults the plan arms), with
  /// per-destination order preserved. Call before spawning rank threads.
  void enable_chaos(const FaultPlan& plan) {
    chaos_ = std::make_unique<ChaosDelayer>(*this, plan);
  }

  /// Active chaos delayer, or nullptr for instant delivery.
  ChaosDelayer* chaos() noexcept { return chaos_.get(); }

  /// Enables rtm-check (see rtm/check/check.hpp): wait-for-graph deadlock
  /// watchdog, mailbox FIFO/leak audit, protocol linter. Call before
  /// spawning rank threads.
  void enable_check(const check::Options& options) {
    check_ = std::make_unique<check::RunChecker>(options, topo_.nranks, this);
    for (int r = 0; r < topo_.nranks; ++r) {
      check_->attach_mailbox(r, &mailboxes_[static_cast<std::size_t>(r)]);
    }
    check_->attach_barrier(&barrier_);
    check_->start();
  }

  /// Active run checker, or nullptr when checking is off.
  check::RunChecker* checker() noexcept { return check_.get(); }

 private:
  Topology topo_;
  // Declared before mailboxes_ so the arenas are destroyed AFTER them:
  // undelivered messages dying with their mailbox may still release
  // arena-backed payload slabs.
  std::vector<std::unique_ptr<PayloadArena>> arenas_;
  std::vector<Mailbox> mailboxes_;
  Barrier barrier_;
  std::vector<const void*> staging_;
  TrafficRecorder traffic_;
  std::unique_ptr<ChaosDelayer> chaos_;
  // Declared after chaos_ so the checker is destroyed FIRST: ~RunChecker
  // detaches its mailbox/barrier hooks, making the chaos drain that runs
  // in ~ChaosDelayer safe.
  std::unique_ptr<check::RunChecker> check_;
};

}  // namespace reptile::rtm
