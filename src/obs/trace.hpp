#pragma once
// reptile-obs span tracing: per-thread ring buffers of timeline events,
// serialized to Chrome trace-event / Perfetto-compatible JSON.
//
// Two modes, one mechanism:
//
//   * Flight recorder (ALWAYS on). Every thread keeps the most recent
//     `flight_capacity` events in a small ring. Recording is one branch, a
//     struct store and a release increment — no locks, no allocation — so
//     the hot paths (scalar lookup RTTs, chunk spans) stay instrumented in
//     production runs. When rtm-check diagnoses a deadlock or the mailbox
//     audit fails, each involved thread's tail is attached to the report, so
//     a hang comes with a timeline, not just a wait-for chain.
//
//   * Full tracing (per run, `trace_enabled`). The rings grow to
//     `ring_capacity` events and the whole timeline is serialized at run end
//     to one JSON shard per rank (`<prefix>.rankN.json`), loadable directly
//     in Perfetto / chrome://tracing; tools/trace_merge combines shards.
//
// Event vocabulary (cat / name):
//   stage   / stage:<name>       one pipeline stage of one rank ('X')
//   chunk   / chunk:build|correct one chunk through a stage ('X')
//   lookup  / lookup_rtt         scalar remote lookup round trip ('X')
//   lookup  / batch_prefetch     one vectored prefetch round trip ('X')
//   service / serve:<kind>       one request handled by a comm thread ('X')
//   mailbox / mailbox:wait       a blocking receive that actually blocked
//   chaos   / chaos:<fault>      fault-injection decision ('i', instant)
//   ledger  / ledger:<account>   byte-account balance after a charge, plus
//                                ledger:rss from the sampler ('C', counter)
//   flow    / lookup|batch       's' at the requester's send, 'f' at the
//                                owning rank's service thread — the same
//                                id on both sides draws the cross-rank
//                                arrow in Perfetto.
//
// Threading model: each thread owns its ring (single writer); the head
// index is a release-store atomic. Cross-thread reads happen only (a) after
// the writing threads joined (shard serialization) or (b) for threads that
// are provably blocked (flight-recorder tails of deadlocked ranks), whose
// last writes happen-before the checker observed their wait — both give the
// reader a happens-before edge, keeping the tracer TSan-clean without
// locking the record path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace reptile::obs {

/// Per-run tracing configuration (carried by parallel::DistConfig and the
/// trace_* / metrics_* config-file keys).
struct TraceConfig {
  /// Full tracing: big rings + JSON shard serialization at run end.
  bool enabled = false;
  /// Publish the metrics registry (obs/metrics.hpp) for this run: latency
  /// histograms recorded live, counter mirror at harvest, report columns.
  bool metrics = false;
  /// Arm the resource ledger (obs/ledger.hpp) for this run: byte accounts,
  /// high-water marks, the RSS sampler thread, and — when `enabled` is also
  /// set — 'C' counter events in the trace shards.
  bool ledger = false;
  /// Ring capacity per thread while full tracing is on (events).
  std::size_t ring_capacity = 1 << 18;
  /// Ring capacity per thread while only the flight recorder runs.
  std::size_t flight_capacity = 256;
  /// Shard path prefix; run drivers write `<path>.rankN.json` at run end
  /// when tracing is enabled and this is non-empty.
  std::string path;
};

/// One recorded event. Name/category/arg-name strings must outlive the
/// tracer (string literals, or obs::intern() for dynamic names).
struct TraceEvent {
  std::int64_t ts_ns = 0;   ///< start time, tracer clock (steady)
  std::int64_t dur_ns = 0;  ///< 'X' events only
  const char* name = "";
  const char* cat = "";
  char phase = 'X';          ///< 'X' complete, 'i' instant, 's'/'f' flow
  std::int32_t rank = -1;    ///< owning rank; -1 = driver/runtime threads
  std::uint64_t flow = 0;    ///< flow binding id ('s'/'f' events)
  const char* arg_name = nullptr;
  std::uint64_t arg = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
};

/// Stable globally-unique flow id for one (re)transmitted lookup: both the
/// requester ('s') and the serving comm thread ('f') can derive it from the
/// wire fields alone (requester rank, reply tag, protocol seq).
std::uint64_t flow_id(int requester_rank, int reply_tag,
                      std::uint64_t seq) noexcept;

/// Interns a dynamic string, returning a pointer valid for the process
/// lifetime (for names not known at compile time, e.g. stage names).
const char* intern(std::string_view s);

class Tracer {
 public:
  /// The process-wide tracer. Runs are sequential within a process; each
  /// run (re)configures it.
  static Tracer& instance();

  /// Applies `config` and drops every previously recorded event (a run
  /// owns the rings). Threads re-register lazily on their next event.
  void configure(const TraceConfig& config);

  TraceConfig config() const;  ///< by value: configure() may replace it

  /// Full tracing active? (The flight recorder needs no check: recording
  /// is unconditional, only the ring size differs.)
  bool enabled() const noexcept {
    // mo: relaxed — configure() happens-before any instrumented thread
    // exists (between-runs contract).
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer epoch (steady clock; reset by
  /// configure()).
  std::int64_t now_ns() const noexcept;

  /// Labels the calling thread for trace metadata and flight-recorder
  /// dumps ("rank3/worker1"); `rank` attributes its future events.
  void set_thread(int rank, const char* role);

  /// Rank the calling thread registered with (-1 when unregistered).
  /// Non-const: lazily registers the calling thread's buffer.
  int current_rank();

  // --- recording (called on the hot paths) -------------------------------

  /// 'X' complete event: [start_ns, start_ns + dur).
  void complete(const char* cat, const char* name, std::int64_t start_ns,
                const char* arg_name = nullptr, std::uint64_t arg = 0,
                const char* arg2_name = nullptr, std::uint64_t arg2 = 0);

  /// 'i' instant event. `rank_override` != INT32_MIN attributes the event
  /// to that rank instead of the calling thread's.
  void instant(const char* cat, const char* name,
               std::int32_t rank_override = kThreadRank,
               const char* arg_name = nullptr, std::uint64_t arg = 0);

  /// Flow binding: 's' on the sending side, 'f' (bind-enclosing) on the
  /// receiving side; the same `id` on both sides links them.
  void flow_start(const char* cat, const char* name, std::uint64_t id);
  void flow_end(const char* cat, const char* name, std::uint64_t id);

  /// 'C' counter event: Perfetto draws a value-over-time track per
  /// (thread, name). `value` is reported under the arg name "bytes" (the
  /// ledger is the only producer; see obs/ledger.hpp).
  void counter(const char* cat, const char* name, std::uint64_t value);

  // --- serialization ------------------------------------------------------

  /// Chrome trace JSON of every recorded event with rank == `rank`
  /// (`rank == kAllRanks` keeps everything; rank-(-1) runtime/driver events
  /// ride along in rank 0's shard so no event is ever lost). Call only
  /// when the writing threads have joined.
  std::string to_json(int rank = kAllRanks) const;

  /// Writes one shard per rank: `<prefix>.rankN.json`. Returns the shard
  /// paths. Call only when the writing threads have joined.
  std::vector<std::string> write_shards(const std::string& prefix,
                                        int nranks) const;

  /// Human-readable tail of the flight recorder: up to `max_events` most
  /// recent events per thread, newest last. With a non-empty `ranks`
  /// filter only threads of those ranks are dumped — the rtm-check
  /// deadlock path uses this, because only the frozen ranks' threads are
  /// provably quiescent while the rest of the run is still hot.
  std::string tail_text(std::size_t max_events,
                        std::span<const int> ranks = {}) const;

  /// Total events currently held across all rings (diagnostics/tests).
  std::uint64_t events_recorded() const;

  /// Thread rings allocated since the last configure() (tests). With full
  /// tracing off, a new thread reuses the ring of one that exited.
  std::size_t buffer_count() const;

  static constexpr std::int32_t kThreadRank =
      std::numeric_limits<std::int32_t>::min();
  static constexpr int kAllRanks = -2;

 private:
  struct ThreadBuf {
    explicit ThreadBuf(std::size_t capacity) : ring(capacity) {}
    std::vector<TraceEvent> ring;
    std::atomic<std::uint64_t> head{0};  ///< total events ever pushed
    std::int32_t rank = -1;   ///< guarded by Tracer::mutex_
    std::string label;        ///< guarded by Tracer::mutex_
    int tid = 0;              ///< guarded by Tracer::mutex_
  };

  Tracer();

  ThreadBuf& local_buf();
  void record(const TraceEvent& event);
  /// Copies the tail (oldest first) of one ring; caller must hold a
  /// happens-before edge with the writer (joined or provably blocked).
  static std::vector<TraceEvent> snapshot(const ThreadBuf& buf);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  ///< registry, labels, config — not the rings
  TraceConfig config_;
  std::vector<std::unique_ptr<ThreadBuf>> buffers_;
  std::vector<ThreadBuf*> free_;  ///< rings of exited threads, for reuse
  int next_tid_ = 0;  ///< last tid handed out; a reused ring gets a new one

  friend class SpanScope;
};

/// RAII span: times its scope and emits one 'X' event on destruction.
class SpanScope {
 public:
  SpanScope(const char* cat, const char* name)
      : cat_(cat), name_(name), start_(Tracer::instance().now_ns()) {}

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Attaches up to two integer args reported with the event.
  void arg(const char* arg_name, std::uint64_t value) noexcept {
    if (arg_name_ == nullptr) {
      arg_name_ = arg_name;
      arg_ = value;
    } else {
      arg2_name_ = arg_name;
      arg2_ = value;
    }
  }

  ~SpanScope() {
    Tracer::instance().complete(cat_, name_, start_, arg_name_, arg_,
                                arg2_name_, arg2_);
  }

 private:
  const char* cat_;
  const char* name_;
  std::int64_t start_;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  const char* arg2_name_ = nullptr;
  std::uint64_t arg2_ = 0;
};

}  // namespace reptile::obs
