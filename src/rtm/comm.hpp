#pragma once
// Per-rank communicator: the API the Reptile pipelines are written against.
//
// Mirrors the MPI subset the paper uses — tagged point-to-point send /
// receive / non-blocking probe (MPI_Iprobe), MPI_Alltoallv,
// MPI_Allgatherv, MPI_Allreduce, MPI_Barrier — implemented over the
// in-process mailboxes of rtm::World. Every receive names its envelope
// (rtm::Match: one source or any, and one tag, any tag, or a short list of
// tags) and blocks, waits up to a timeout, or returns at once. A Comm is bound to one rank and may be
// shared by that rank's worker and communication threads (all operations on
// the underlying mailbox are thread-safe; collectives must only be entered
// by one thread per rank, as in MPI).

#include <cassert>
#include <chrono>
#include <functional>
#include <span>
#include <vector>

#include "rtm/world.hpp"

namespace reptile::rtm {

class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank) {
    assert(rank >= 0 && rank < world.size());
  }

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return world_->size(); }
  const Topology& topology() const noexcept { return world_->topology(); }
  World& world() noexcept { return *world_; }

  // --- point to point -----------------------------------------------------

  /// Sends `items` to `dst` with `tag`. Buffered and non-blocking, like an
  /// MPI_Send that always completes locally. The payload is staged in this
  /// rank's arena (one copy from the caller's buffer into a recycled slab,
  /// then ownership transfer all the way to the receiver). When rtm-check
  /// is active the message is linted against the protocol tag table first
  /// and a violation throws check::ProtocolError at this call site.
  template <class T>
  void send(int dst, int tag, std::span<const T> items) {
    Message m;
    m.source = rank_;
    m.tag = tag;
    m.payload = world_->arena(rank_).allocate(items.size_bytes());
    if (!items.empty()) {
      std::memcpy(m.payload.data(), items.data(), items.size_bytes());
    }
    finish_send(dst, std::move(m));
  }

  /// Sends a single value.
  template <class T>
  void send_value(int dst, int tag, const T& value) {
    send<T>(dst, tag, std::span<const T>(&value, 1));
  }

  /// Allocates an owned payload in this rank's arena for in-place
  /// construction (zero-copy send: encode the wire format directly into
  /// the returned buffer, then hand it to send_payload).
  Payload make_payload(std::size_t bytes) {
    return world_->arena(rank_).allocate(bytes);
  }

  /// Sends an already-built payload by ownership transfer — no copy.
  void send_payload(int dst, int tag, Payload&& payload) {
    Message m;
    m.source = rank_;
    m.tag = tag;
    m.payload = std::move(payload);
    finish_send(dst, std::move(m));
  }

  /// Blocking receive by envelope. See Mailbox::pop.
  Message recv(const Match& match) { return world_->mailbox(rank_).pop(match); }

  /// Non-blocking receive by envelope. See Mailbox::try_pop.
  std::optional<Message> try_recv(const Match& match) {
    return world_->mailbox(rank_).try_pop(match);
  }

  /// MPI_Recv-style spellings of the one-tag envelope, kept
  /// for callers written against MPI (source/tag may be wildcards).
  Message recv(int source = kAnySource, int tag = kAnyTag) {
    return recv(Match{source, tag});
  }
  std::optional<Message> try_recv(int source = kAnySource, int tag = kAnyTag) {
    return try_recv(Match{source, tag});
  }

  /// Timed receive by envelope. See Mailbox::pop_for.
  template <class Rep, class Period>
  std::optional<Message> recv_for(const Match& match,
                                  std::chrono::duration<Rep, Period> timeout) {
    return world_->mailbox(rank_).pop_for(match, timeout);
  }

  /// Non-blocking probe (MPI_Iprobe): envelope of the first matching queued
  /// message, without consuming it.
  std::optional<MessageInfo> iprobe(int source = kAnySource,
                                    int tag = kAnyTag) const {
    return world_->mailbox(rank_).probe(source, tag);
  }

  /// Posts an empty control message with `tag` to this rank's own mailbox:
  /// a local wakeup for another thread of the rank (the communication
  /// thread's stop), not traffic. It is not counted by the traffic
  /// recorder and bypasses the chaos delayer, so no fault plan can drop or
  /// delay it. The linter still checks it: a tag the protocol table does
  /// not declare self-addressed (check::TagDir::kSelf) throws
  /// check::ProtocolError, as does sending a kSelf tag with send().
  void post_self(int tag) {
    Message m;
    m.source = rank_;
    m.tag = tag;
    if (check::RunChecker* check = world_->checker()) {
      check->on_post_self(rank_, tag);
    }
    world_->mailbox(rank_).push(std::move(m));
  }

  /// Number of messages queued at this rank (diagnostics).
  std::size_t pending() const { return world_->mailbox(rank_).size(); }

  // --- collectives ----------------------------------------------------------
  // All collectives are bulk-synchronous: every rank must call them in the
  // same order, from exactly one thread per rank.

  void barrier() {
    if (check::RunChecker* check = world_->checker()) {
      // A barrier is a phase boundary: sample the queue depth so the audit
      // can report the high-water mark of unconsumed messages.
      check->on_phase_boundary(rank_, pending());
    }
    world_->barrier().arrive_and_wait(rank_);
  }

  /// barrier() for scope exits, which may run during unwinding: never
  /// throws. Once rtm-check has aborted the run it returns without waiting
  /// (also from a wait already begun); the blocked threads carry the
  /// DeadlockError.
  void exit_barrier() noexcept {
    check::RunChecker* check = world_->checker();
    if (check != nullptr && check->aborted()) return;
    try {
      barrier();
    } catch (const check::DeadlockError&) {
      // Aborted mid-wait: the run already fails with this error.
    }
  }

  /// MPI_Alltoallv: `send[d]` goes to rank d; returns the per-source
  /// received buffers (`result[s]` came from rank s).
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send) {
    assert(static_cast<int>(send.size()) == size());
    world_->staging()[static_cast<std::size_t>(rank_)] = &send;
    barrier();
    std::vector<std::vector<T>> recv(static_cast<std::size_t>(size()));
    std::size_t bytes_in = 0;
    for (int src = 0; src < size(); ++src) {
      const auto& theirs = *static_cast<const std::vector<std::vector<T>>*>(
          world_->staging()[static_cast<std::size_t>(src)]);
      recv[static_cast<std::size_t>(src)] =
          theirs[static_cast<std::size_t>(rank_)];
      bytes_in +=
          recv[static_cast<std::size_t>(src)].size() * sizeof(T);
    }
    std::size_t bytes_out = 0;
    for (const auto& part : send) bytes_out += part.size() * sizeof(T);
    world_->traffic().record_collective(rank_, bytes_out, bytes_in);
    barrier();  // staging slots must stay valid until everyone copied
    return recv;
  }

  /// MPI_Allgatherv: every rank contributes `mine`; returns the
  /// concatenation in rank order.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine) {
    struct View {
      const T* data;
      std::size_t n;
    };
    const View view{mine.data(), mine.size()};
    world_->staging()[static_cast<std::size_t>(rank_)] = &view;
    barrier();
    std::vector<T> out;
    std::size_t total = 0;
    for (int src = 0; src < size(); ++src) {
      total += static_cast<const View*>(
                   world_->staging()[static_cast<std::size_t>(src)])
                   ->n;
    }
    out.reserve(total);
    for (int src = 0; src < size(); ++src) {
      const auto* v = static_cast<const View*>(
          world_->staging()[static_cast<std::size_t>(src)]);
      out.insert(out.end(), v->data, v->data + v->n);
    }
    world_->traffic().record_collective(rank_, mine.size_bytes(),
                                        total * sizeof(T));
    barrier();
    return out;
  }

  /// MPI_Allreduce with an arbitrary associative combiner. Every rank
  /// computes the same result (reduction in rank order).
  template <class T, class F>
  T allreduce(const T& value, F combine) {
    world_->staging()[static_cast<std::size_t>(rank_)] = &value;
    barrier();
    T acc = *static_cast<const T*>(world_->staging()[0]);
    for (int src = 1; src < size(); ++src) {
      acc = combine(acc, *static_cast<const T*>(
                             world_->staging()[static_cast<std::size_t>(src)]));
    }
    world_->traffic().record_collective(rank_, sizeof(T),
                                        sizeof(T) * static_cast<std::size_t>(size()));
    barrier();
    return acc;
  }

  template <class T>
  T allreduce_sum(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a + b; });
  }

  template <class T>
  T allreduce_max(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a > b ? a : b; });
  }

  template <class T>
  T allreduce_min(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a < b ? a : b; });
  }

 private:
  /// Common send tail: lint, count, route through chaos or the mailbox.
  void finish_send(int dst, Message m) {
    if (check::RunChecker* check = world_->checker()) {
      check->on_send(rank_, dst, m.tag, m.payload);
    }
    world_->traffic().record_send(rank_, dst, m.payload.size());
    if (ChaosDelayer* chaos = world_->chaos()) {
      chaos->submit(dst, std::move(m));
    } else {
      world_->mailbox(dst).push(std::move(m));
    }
  }

  World* world_;
  int rank_;
};

/// Spawns one thread per rank running `rank_main` and joins them all.
/// The first exception thrown by any rank is rethrown after the join.
/// NOTE: if one rank throws while others wait in a collective, the run
/// deadlocks (as a crashed MPI job would hang its peers) — rank bodies
/// should not throw between matching collective calls.
void run_ranks(World& world, const std::function<void(Comm&)>& rank_main);

/// Options for run_world.
struct RunOptions {
  /// Fault-injection plan (see rtm/chaos.hpp). chaos.seed != 0 arms the
  /// injector; the default plan then delays only. Lossy plans (drops or
  /// truncation) additionally need requester-side timeouts
  /// (parallel::RetryPolicy) or the run can hang.
  FaultPlan chaos;
  /// rtm-check configuration (see rtm/check/check.hpp). Checking defaults
  /// to ON so tests run audited; benchmarks set check.enabled = false.
  check::Options check;
  /// Lock-free mailbox fast path (see rtm/mailbox.hpp). Only effective
  /// while checking is off — an attached checker forces the mutex path so
  /// its hooks observe every push/pop. Disable to A/B against the legacy
  /// locked mailbox.
  bool mailbox_fast_path = true;
};

/// Convenience: builds a World for `topo`, runs `rank_main` on every rank,
/// and returns the World for post-run inspection (traffic counters).
std::unique_ptr<World> run_world(Topology topo,
                                 const std::function<void(Comm&)>& rank_main,
                                 const RunOptions& options = {});

}  // namespace reptile::rtm
