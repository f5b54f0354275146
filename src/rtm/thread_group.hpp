#pragma once
// RAII lifecycle for a stage's helper threads (Step IV forks a worker and a
// communication thread per rank; the fully-replicated baseline forks a
// master thread).
//
// Invariants the group enforces, replacing the ad-hoc joiner structs that
// used to live inline in the drivers:
//   - an exception escaping any thread (or the inline body) is captured,
//     never allowed to reach std::thread's terminate path;
//   - only the FIRST captured exception is kept (the one a caller rethrows);
//   - the optional before_join callback runs exactly once before the first
//     join — on the normal path and on exception unwind alike. CorrectStage
//     uses it to end the correction phase (SpectrumModel::announce_done: a
//     barrier, then the stop the communication thread waits for), which
//     must precede joining that thread and must not run twice. Since it
//     may run during unwind, it must not throw;
//   - the destructor joins, so no scope exit — including unwind from a
//     throwing stage — leaks a joinable thread.

#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace reptile::rtm {

class ScopedThreadGroup {
 public:
  ScopedThreadGroup() = default;

  /// `before_join` runs exactly once, immediately before the first join()
  /// (explicit or from the destructor), even if no thread was ever spawned.
  explicit ScopedThreadGroup(std::function<void()> before_join)
      : before_join_(std::move(before_join)) {}

  ScopedThreadGroup(const ScopedThreadGroup&) = delete;
  ScopedThreadGroup& operator=(const ScopedThreadGroup&) = delete;

  ~ScopedThreadGroup() { join(); }

  /// Starts a thread running `fn`; an escaping exception is captured as the
  /// group's first error instead of terminating the process.
  template <class Fn>
  void spawn(Fn&& fn) {
    threads_.emplace_back(
        [this, f = std::forward<Fn>(fn)]() mutable { run_capturing(f); });
  }

  /// Runs `fn` on the calling thread with the same error capture as
  /// spawn(); the error surfaces from join_and_rethrow(), after every
  /// sibling thread has been joined.
  template <class Fn>
  void run_inline(Fn&& fn) {
    run_capturing(fn);
  }

  /// Runs before_join (first call only), then joins every thread.
  /// Idempotent; never throws the captured error.
  void join() {
    if (!before_join_ran_) {
      before_join_ran_ = true;
      if (before_join_) before_join_();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// join(), then rethrows the first captured exception, if any (clearing
  /// it, so the destructor's join stays quiet).
  void join_and_rethrow() {
    join();
    std::exception_ptr err;
    {
      std::lock_guard lock(mutex_);
      err = std::exchange(error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }

  /// The first exception captured so far (null when none).
  std::exception_ptr first_error() const {
    std::lock_guard lock(mutex_);
    return error_;
  }

 private:
  template <class Fn>
  void run_capturing(Fn& fn) {
    try {
      fn();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  std::function<void()> before_join_;
  bool before_join_ran_ = false;
  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::exception_ptr error_;
};

}  // namespace reptile::rtm
