#pragma once
// Messages of the in-process message-passing runtime.
//
// The runtime replaces MPI on this host (see DESIGN.md §2): ranks are
// threads inside one process, and a message is an owned byte buffer tagged
// with its source rank and a user tag, matching MPI's (source, tag)
// selection model including ANY_SOURCE / ANY_TAG wildcards.
//
// Payload ownership (DESIGN.md §7): a payload is either heap-backed (a
// plain vector, the legacy path) or a chunk of a per-rank PayloadArena
// slab. Arena payloads are built in place at the send site — the batched
// lookup wire format is encoded directly into the slab — and the Payload
// handle passes OWNERSHIP through the mailbox instead of copying bytes.
// Slabs are recycled: the last Payload released from a retired slab
// returns it to the arena's free list, so steady-state traffic allocates
// no new memory at all. Lifetime contract: an arena payload borrows slab
// memory owned by the sending rank's arena, so a Message must never
// outlive the World that carried it (runtime messages are consumed during
// the run, which the rtm-check leak audit enforces).

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/ledger.hpp"
#include "rtm/atomics_policy.hpp"
#include "rtm/stat_counter.hpp"

namespace reptile::rtm {

/// Wildcard source rank for receive/probe matching (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receive/probe matching (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

class PayloadArena;

/// The recycling decision for one arena slab: a live-handle refcount plus
/// a retired flag, arranged so the LAST of {the retiring allocator, the
/// final releasing receiver} — whichever runs second — recycles the slab,
/// and never both. add_ref/retire run under the arena mutex; release_last
/// is lock-free (receivers free payloads from their own threads) and only
/// the release that drops the count to zero takes the mutex to attempt the
/// recycle. Policy-templated so the model checker can explore the
/// retire/release race for no-double-recycle and no-leak (DESIGN.md §8).
template <class Policy = StdAtomics>
class SlabRefGate {
 public:
  /// Caller holds the arena mutex (allocation path): one more outstanding
  /// Payload handle.
  void add_ref() {
    // mo: relaxed — the handle's handoff to the releasing thread is
    // ordered by the mailbox transfer of the Message, not this counter.
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Lock-free release half. True when this call dropped the LAST
  /// reference: the caller must then take the arena mutex and attempt
  /// try_recycle_locked().
  bool release_last() {
    // mo: acq_rel — release publishes this handle's final payload reads
    // before the decrement; acquire (on the winning decrement) orders
    // every other handle's reads before the recycle that may follow.
    return live_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Caller holds the arena mutex. Marks the slab no longer the bump
  /// target. True when no handle is outstanding — the caller recycles the
  /// slab immediately (the gate resets itself for reuse).
  bool retire_locked() {
    retired_.store(true, std::memory_order_seq_cst);
    if (live_.load(std::memory_order_seq_cst) == 0) {
      // mo: relaxed — the arena mutex orders the reset against the next
      // retire/recycle round.
      retired_.store(false, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Caller holds the arena mutex after release_last() returned true.
  /// True when the slab is retired with no outstanding handles — the
  /// caller recycles it (the gate resets itself). All recycling decisions
  /// happen under the mutex, so retire_locked and a racing final release
  /// can never both recycle the slab.
  bool try_recycle_locked() {
    // mo: relaxed — the arena mutex orders these against retire_locked;
    // the releaser's own acq_rel decrement ordered the payload reads.
    if (retired_.load(std::memory_order_relaxed) &&
        live_.load(std::memory_order_relaxed) == 0) {
      // mo: relaxed — under the arena mutex (see retire_locked).
      retired_.store(false, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  typename Policy::template Atomic<std::uint32_t> live_{0};
  typename Policy::template Atomic<bool> retired_{false};
};

namespace detail {

/// One arena slab: a fixed block of payload bytes plus the gate that
/// decides when the block can be recycled. `used` is guarded by the
/// owning arena's mutex.
struct ArenaSlab {
  PayloadArena* arena = nullptr;
  SlabRefGate<StdAtomics> gate;
  std::size_t used = 0;
  std::unique_ptr<std::byte[]> bytes;
};

void release_slab(ArenaSlab* slab) noexcept;

}  // namespace detail

/// Owned message payload: heap-backed or a borrowed arena slab chunk.
/// Move transfers ownership; copy (rare — chaos duplication) deep-copies
/// to the heap so the duplicate is self-contained.
class Payload {
 public:
  Payload() = default;
  ~Payload() { release(); }

  Payload(Payload&& other) noexcept
      : heap_(std::move(other.heap_)),
        slab_(other.slab_),
        data_(other.data_),
        size_(other.size_) {
    other.heap_.clear();
    other.slab_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      heap_ = std::move(other.heap_);
      slab_ = other.slab_;
      data_ = other.data_;
      size_ = other.size_;
      other.heap_.clear();
      other.slab_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  Payload(const Payload& other) { heap_.assign(other.data(), other.data() + other.size()); }

  Payload& operator=(const Payload& other) {
    if (this != &other) {
      release();
      heap_.assign(other.data(), other.data() + other.size());
    }
    return *this;
  }

  std::byte* data() noexcept { return slab_ != nullptr ? data_ : heap_.data(); }
  const std::byte* data() const noexcept {
    return slab_ != nullptr ? data_ : heap_.data();
  }
  std::size_t size() const noexcept {
    return slab_ != nullptr ? size_ : heap_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  /// True when the bytes live in an arena slab (tests / accounting).
  bool arena_backed() const noexcept { return slab_ != nullptr; }

  const std::byte* begin() const noexcept { return data(); }
  const std::byte* end() const noexcept { return data() + size(); }

  /// Shrinking trims in place on either backing (chaos truncation).
  /// Growing an arena payload migrates it to the heap, preserving content.
  void resize(std::size_t n) {
    if (slab_ == nullptr) {
      heap_.resize(n);
      return;
    }
    if (n <= size_) {
      size_ = n;
      return;
    }
    heap_.assign(data_, data_ + size_);
    heap_.resize(n);
    release();
  }

  operator std::span<const std::byte>() const noexcept {  // NOLINT(google-explicit-constructor)
    return {data(), size()};
  }

 private:
  friend class PayloadArena;

  void release() noexcept {
    if (slab_ != nullptr) {
      detail::release_slab(slab_);
      slab_ = nullptr;
    }
    data_ = nullptr;
    size_ = 0;
  }

  std::vector<std::byte> heap_;
  detail::ArenaSlab* slab_ = nullptr;  ///< non-null: arena chunk [data_, size_)
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Per-rank slab allocator for wire payloads. allocate() bump-allocates
/// from the current slab under a short mutex; releases are lock-free
/// except the final release of a retired slab, which pushes it back to
/// the free list. Oversize requests (> kSlabBytes) fall back to the heap
/// and are counted. memory_bytes() is exact, CountTable-style: reserved
/// slab bytes plus nothing hidden (heap payloads account to the Message).
class PayloadArena {
 public:
  /// 64 KiB holds 2048 scalar lookup messages or a few wavefront batches
  /// (tens of KiB each). Slabs of 256 KiB cost 1.6 MB more peak RSS on the
  /// 2-rank 2000-read replica (perfbench paper-base-2r, 20 s of back-to-back
  /// runs, median of three seeds 11.7 vs 10.1 MB): blocks that large are
  /// mapped by glibc at first and then, once its thresholds adapt, carved
  /// from the per-thread arenas, which keep them resident after each run.
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;

  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  /// Counters for obs gauges and tests.
  struct Stats {
    std::uint64_t slabs_allocated = 0;  ///< slabs ever created
    std::uint64_t slabs_reused = 0;     ///< recycles off the free list
    std::uint64_t oversize_allocs = 0;  ///< requests that fell back to heap
  };

  Payload allocate(std::size_t bytes) {
    Payload p;
    if (bytes == 0) return p;
    if (bytes > kSlabBytes) {
      // mo: relaxed stat counter.
      oversize_allocs_.fetch_add(1, std::memory_order_relaxed);
      p.heap_.resize(bytes);
      return p;
    }
    // Bump offsets stay 16-aligned so payload starts are memcpy-friendly.
    const std::size_t need = (bytes + 15) & ~std::size_t{15};
    std::lock_guard lock(mutex_);
    if (current_ == nullptr || current_->used + need > kSlabBytes) {
      retire_current_locked();
      if (!free_.empty()) {
        current_ = free_.back();
        free_.pop_back();
        current_->used = 0;
        // mo: relaxed stat counter.
        slabs_reused_.fetch_add(1, std::memory_order_relaxed);
      } else {
        all_.push_back(std::make_unique<detail::ArenaSlab>());
        current_ = all_.back().get();
        current_->arena = this;
        current_->bytes = std::make_unique<std::byte[]>(kSlabBytes);
        // mo: relaxed stat counter.
        slabs_allocated_.fetch_add(1, std::memory_order_relaxed);
        charge_.set(all_.size() * kSlabBytes);  // under mutex_
      }
    }
    p.slab_ = current_;
    p.data_ = current_->bytes.get() + current_->used;
    p.size_ = bytes;
    current_->used += need;
    current_->gate.add_ref();
    return p;
  }

  /// Exact reserved footprint: every slab ever created, at full size.
  std::size_t memory_bytes() const {
    std::lock_guard lock(mutex_);
    return all_.size() * kSlabBytes;
  }

  Stats stats() const {
    Stats s;
    s.slabs_allocated = stat_read(slabs_allocated_);
    s.slabs_reused = stat_read(slabs_reused_);
    s.oversize_allocs = stat_read(oversize_allocs_);
    return s;
  }

  /// Slabs currently waiting on the free list (tests: proves reuse).
  std::size_t free_slabs() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  friend void detail::release_slab(detail::ArenaSlab* slab) noexcept;

  /// Caller holds mutex_. Marks the bump target retired; if no payload is
  /// outstanding the slab goes straight back to the free list (otherwise
  /// the final release_slab recycles it). The race discipline lives in
  /// SlabRefGate.
  void retire_current_locked() {
    if (current_ == nullptr) return;
    if (current_->gate.retire_locked()) {
      current_->used = 0;
      free_.push_back(current_);
    }
    current_ = nullptr;
  }

  /// Lock-free decrement; the mutex is taken only by the release that
  /// drops a retired slab's count to zero (see SlabRefGate).
  void release(detail::ArenaSlab* slab) noexcept {
    if (!slab->gate.release_last()) return;
    std::lock_guard lock(mutex_);
    if (slab->gate.try_recycle_locked()) {
      slab->used = 0;
      free_.push_back(slab);
    }
  }

  mutable std::mutex mutex_;
  detail::ArenaSlab* current_ = nullptr;
  std::vector<std::unique_ptr<detail::ArenaSlab>> all_;
  /// Mirrors memory_bytes() into the resource ledger; mutated only under
  /// mutex_ (the slab-allocation path).
  obs::LedgerCharge charge_{obs::LedgerAccount::kPayloadArena};
  std::vector<detail::ArenaSlab*> free_;
  std::atomic<std::uint64_t> slabs_allocated_{0};
  std::atomic<std::uint64_t> slabs_reused_{0};
  std::atomic<std::uint64_t> oversize_allocs_{0};
};

namespace detail {
inline void release_slab(ArenaSlab* slab) noexcept { slab->arena->release(slab); }
}  // namespace detail

/// Envelope information returned by probe operations (MPI_Status analog).
struct MessageInfo {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// An owned, delivered message.
struct Message {
  int source = kAnySource;
  int tag = kAnyTag;
  /// Per-(source, tag) delivery sequence number, stamped by the rtm-check
  /// mailbox audit on push (see rtm/check/check.hpp); 0 when unchecked.
  std::uint64_t seq = 0;
  Payload payload;

  MessageInfo info() const noexcept { return {source, tag, payload.size()}; }

  /// Builds a heap-backed message from an array of trivially copyable
  /// elements. Send sites on the hot path build arena payloads instead
  /// (Comm::make_payload / Comm::send_payload).
  template <class T>
  static Message of(int source, int tag, std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m;
    m.source = source;
    m.tag = tag;
    m.payload.resize(items.size_bytes());
    if (!items.empty()) {
      std::memcpy(m.payload.data(), items.data(), items.size_bytes());
    }
    return m;
  }

  /// Builds a message from a single trivially copyable value.
  template <class T>
  static Message of_value(int source, int tag, const T& value) {
    return of<T>(source, tag, std::span<const T>(&value, 1));
  }

  /// Reinterprets the payload as an array of T. Precondition: the payload
  /// size is a multiple of sizeof(T).
  template <class T>
  std::vector<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(payload.size() % sizeof(T) == 0);
    std::vector<T> out(payload.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
    return out;
  }

  /// Reinterprets the payload as exactly one T.
  template <class T>
  T as_value() const {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(payload.size() == sizeof(T));
    T out;
    std::memcpy(&out, payload.data(), sizeof(T));
    return out;
  }
};

}  // namespace reptile::rtm
