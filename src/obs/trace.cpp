#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace reptile::obs {

namespace {

/// splitmix64 finalizer: cheap, well-distributed, and identical on both
/// sides of the wire.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void append_escaped(std::string& out, const char* s) {
  out.push_back('"');
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends `ns` nanoseconds as a microsecond decimal ("123.456") — the
/// trace-event format's native unit.
void append_us(std::string& out, std::int64_t ns) {
  const std::int64_t clamped = std::max<std::int64_t>(ns, 0);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(clamped / 1000),
                static_cast<long long>(clamped % 1000));
  out += buf;
}

void append_args(std::string& out, const TraceEvent& e) {
  if (e.arg_name == nullptr && e.arg2_name == nullptr) {
    return;
  }
  out += ",\"args\":{";
  bool first = true;
  if (e.arg_name != nullptr) {
    append_escaped(out, e.arg_name);
    out += ':';
    out += std::to_string(e.arg);
    first = false;
  }
  if (e.arg2_name != nullptr) {
    if (!first) {
      out += ',';
    }
    append_escaped(out, e.arg2_name);
    out += ':';
    out += std::to_string(e.arg2);
  }
  out += '}';
}

void append_metadata(std::string& out, const char* what, int pid, int tid,
                     const std::string& value) {
  out += "{\"ph\":\"M\",\"name\":\"";
  out += what;
  out += "\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"args\":{\"name\":";
  append_escaped(out, value.c_str());
  out += "}}";
}

}  // namespace

std::uint64_t flow_id(int requester_rank, int reply_tag,
                      std::uint64_t seq) noexcept {
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(requester_rank))
       << 32) ^
      static_cast<std::uint32_t>(reply_tag);
  const std::uint64_t id = mix64(x ^ mix64(seq + 0x9e3779b97f4a7c15ull));
  return id == 0 ? 1 : id;  // 0 is "no flow" in TraceEvent
}

const char* intern(std::string_view s) {
  // Leaky singletons: interned names may be referenced from TLS ring
  // buffers that outlive static destruction order.
  static auto* mutex = new std::mutex;
  static auto* pool = new std::unordered_set<std::string>;
  std::lock_guard<std::mutex> lock(*mutex);
  return pool->emplace(s).first->c_str();
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static auto* tracer = new Tracer;  // leaky: TLS may outlive statics
  return *tracer;
}

void Tracer::configure(const TraceConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  if (config_.ring_capacity < 2) {
    config_.ring_capacity = 2;
  }
  if (config_.flight_capacity < 2) {
    config_.flight_capacity = 2;
  }
  // Dropping the buffers while an instrumented thread is recording would
  // be a use-after-free; configure() is only legal between runs, when the
  // caller is the sole instrumented thread (run drivers uphold this).
  buffers_.clear();
  free_.clear();
  next_tid_ = 0;
  // mo: relaxed — between-runs contract above; no instrumented thread
  // races this store.
  enabled_.store(config_.enabled, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  // Invalidate every thread's cached buffer pointer (threads that persist
  // across runs, e.g. the driver itself, re-register lazily).
  // mo: release — pairs with the acquire in local_buf() so a thread that
  // sees the new generation also sees the cleared buffer list.
  generation_.fetch_add(1, std::memory_order_release);
}

TraceConfig Tracer::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

std::int64_t Tracer::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuf& Tracer::local_buf() {
  // Hands the thread's ring back when the thread exits (kept apart from
  // `cached`, so recording reads only trivial thread_locals). With full
  // tracing on every ring is kept: the shards need exited threads' events.
  struct Lease {
    ThreadBuf* buf = nullptr;
    std::uint64_t generation = 0;
    ~Lease() {
      Tracer& tracer = instance();
      std::lock_guard<std::mutex> lock(tracer.mutex_);
      // mo: relaxed — both read under mutex_, which configure() also holds;
      // a ring of an earlier configure() epoch is already gone.
      if (buf != nullptr && !tracer.enabled_.load(std::memory_order_relaxed) &&
          generation == tracer.generation_.load(std::memory_order_relaxed)) {
        tracer.free_.push_back(buf);
      }
    }
  };
  thread_local ThreadBuf* cached = nullptr;
  thread_local std::uint64_t cached_generation =
      std::numeric_limits<std::uint64_t>::max();
  // mo: acquire — pairs with configure()'s release bump; a stale
  // generation means the cached pointer may dangle, so re-register.
  if (cached == nullptr ||
      cached_generation != generation_.load(std::memory_order_acquire)) {
    thread_local Lease lease;
    std::lock_guard<std::mutex> lock(mutex_);
    // mo: relaxed — read under mutex_, which configure() also holds.
    const bool tracing = enabled_.load(std::memory_order_relaxed);
    if (!tracing && !free_.empty()) {
      // An exited thread's flight ring (free_ holds only this epoch's),
      // restarted for its new owner.
      cached = free_.back();
      free_.pop_back();
      // mo: relaxed — the previous owner has exited and the new one has
      // not recorded yet; no reader pairs with this reset.
      cached->head.store(0, std::memory_order_relaxed);
      cached->rank = -1;
      cached->label.clear();
    } else {
      buffers_.push_back(std::make_unique<ThreadBuf>(
          tracing ? config_.ring_capacity : config_.flight_capacity));
      cached = buffers_.back().get();
    }
    // A fresh tid even for a reused ring: an unlabelled ring shows as
    // "thread<tid>", which must not name the exited previous owner.
    cached->tid = ++next_tid_;
    // mo: relaxed — same mutex_ critical section as the bump's publisher.
    cached_generation = generation_.load(std::memory_order_relaxed);
    lease.buf = cached;
    lease.generation = cached_generation;
  }
  return *cached;
}

std::size_t Tracer::buffer_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

void Tracer::set_thread(int rank, const char* role) {
  ThreadBuf& buf = local_buf();
  std::lock_guard<std::mutex> lock(mutex_);
  buf.rank = rank;
  buf.label = rank >= 0 ? "rank" + std::to_string(rank) : "runtime";
  if (role != nullptr && *role != '\0') {
    buf.label += '/';
    buf.label += role;
  }
}

int Tracer::current_rank() { return local_buf().rank; }

void Tracer::record(const TraceEvent& event) {
  ThreadBuf& buf = local_buf();
  // mo: relaxed — single writer: head is only advanced by this thread.
  const std::uint64_t head = buf.head.load(std::memory_order_relaxed);
  TraceEvent& slot = buf.ring[static_cast<std::size_t>(head % buf.ring.size())];
  slot = event;
  if (slot.rank == kThreadRank) {
    slot.rank = buf.rank;
  }
  // mo: release — publishes the slot write; snapshot()'s acquire load of
  // head makes the event visible before it is read.
  buf.head.store(head + 1, std::memory_order_release);
}

void Tracer::complete(const char* cat, const char* name, std::int64_t start_ns,
                      const char* arg_name, std::uint64_t arg,
                      const char* arg2_name, std::uint64_t arg2) {
  TraceEvent e;
  e.ts_ns = start_ns;
  e.dur_ns = std::max<std::int64_t>(now_ns() - start_ns, 0);
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.rank = kThreadRank;
  e.arg_name = arg_name;
  e.arg = arg;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  record(e);
}

void Tracer::instant(const char* cat, const char* name,
                     std::int32_t rank_override, const char* arg_name,
                     std::uint64_t arg) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.rank = rank_override;
  e.arg_name = arg_name;
  e.arg = arg;
  record(e);
}

void Tracer::flow_start(const char* cat, const char* name, std::uint64_t id) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = cat;
  e.phase = 's';
  e.rank = kThreadRank;
  e.flow = id;
  record(e);
}

void Tracer::flow_end(const char* cat, const char* name, std::uint64_t id) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = cat;
  e.phase = 'f';
  e.rank = kThreadRank;
  e.flow = id;
  record(e);
}

void Tracer::counter(const char* cat, const char* name, std::uint64_t value) {
  TraceEvent e;
  e.ts_ns = now_ns();
  e.name = name;
  e.cat = cat;
  e.phase = 'C';
  e.rank = kThreadRank;
  e.arg_name = "bytes";
  e.arg = value;
  record(e);
}

std::vector<TraceEvent> Tracer::snapshot(const ThreadBuf& buf) {
  // mo: acquire — pairs with record()'s release store; events below head
  // are fully written.
  const std::uint64_t head = buf.head.load(std::memory_order_acquire);
  const auto capacity = static_cast<std::uint64_t>(buf.ring.size());
  const std::uint64_t n = std::min(head, capacity);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head - n; i < head; ++i) {
    out.push_back(buf.ring[static_cast<std::size_t>(i % capacity)]);
  }
  return out;
}

std::string Tracer::to_json(int rank) const {
  struct Source {
    const ThreadBuf* buf;
    std::string label;
    int tid;
  };
  std::vector<Source> sources;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sources.reserve(buffers_.size());
    for (const auto& buf : buffers_) {
      sources.push_back({buf.get(),
                         buf->label.empty() ? "thread" + std::to_string(buf->tid)
                                            : buf->label,
                         buf->tid});
    }
  }

  struct Row {
    TraceEvent e;
    int pid;
    int tid;
  };
  std::vector<Row> rows;
  std::map<std::pair<int, int>, std::string> thread_names;
  for (const Source& src : sources) {
    for (const TraceEvent& e : snapshot(*src.buf)) {
      // Runtime threads (rank < 0: driver, chaos delivery, watchdog) ride
      // along in rank 0's shard so no event is ever dropped.
      const int pid = e.rank >= 0 ? e.rank : 0;
      if (rank != kAllRanks && pid != rank) {
        continue;
      }
      rows.push_back({e, pid, src.tid});
      auto& name = thread_names[{pid, src.tid}];
      if (name.empty()) {
        name = src.label;
      }
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.e.ts_ns < b.e.ts_ns; });

  std::string out;
  out.reserve(rows.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::unordered_set<int> pids;
  for (const auto& [key, label] : thread_names) {
    if (pids.insert(key.first).second) {
      if (!first) {
        out += ',';
      }
      first = false;
      append_metadata(out, "process_name", key.first, 0,
                      "rank" + std::to_string(key.first));
    }
    out += ',';
    append_metadata(out, "thread_name", key.first, key.second, label);
  }
  for (const Row& row : rows) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"ph\":\"";
    out.push_back(row.e.phase);
    out += "\",\"pid\":";
    out += std::to_string(row.pid);
    out += ",\"tid\":";
    out += std::to_string(row.tid);
    out += ",\"ts\":";
    append_us(out, row.e.ts_ns);
    if (row.e.phase == 'X') {
      out += ",\"dur\":";
      append_us(out, row.e.dur_ns);
    }
    out += ",\"cat\":";
    append_escaped(out, row.e.cat);
    out += ",\"name\":";
    append_escaped(out, row.e.name);
    if (row.e.phase == 's' || row.e.phase == 'f') {
      char idbuf[32];
      std::snprintf(idbuf, sizeof(idbuf), "\"0x%llx\"",
                    static_cast<unsigned long long>(row.e.flow));
      out += ",\"id\":";
      out += idbuf;
      if (row.e.phase == 'f') {
        out += ",\"bp\":\"e\"";  // bind to the enclosing service span
      }
    }
    if (row.e.phase == 'i') {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    append_args(out, row.e);
    out += '}';
  }
  out += "]}";
  return out;
}

std::vector<std::string> Tracer::write_shards(const std::string& prefix,
                                              int nranks) const {
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(std::max(nranks, 0)));
  for (int rank = 0; rank < nranks; ++rank) {
    std::string path = prefix + ".rank" + std::to_string(rank) + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("obs: cannot write trace shard " + path);
    }
    out << to_json(rank);
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string Tracer::tail_text(std::size_t max_events,
                              std::span<const int> ranks) const {
  struct Source {
    const ThreadBuf* buf;
    std::string label;
    int rank;
  };
  std::vector<Source> sources;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      if (!ranks.empty() &&
          std::find(ranks.begin(), ranks.end(), buf->rank) == ranks.end()) {
        continue;
      }
      sources.push_back({buf.get(),
                         buf->label.empty() ? "thread" + std::to_string(buf->tid)
                                            : buf->label,
                         buf->rank});
    }
  }

  std::string out;
  for (const Source& src : sources) {
    std::vector<TraceEvent> events = snapshot(*src.buf);
    if (events.size() > max_events) {
      events.erase(events.begin(),
                   events.end() - static_cast<std::ptrdiff_t>(max_events));
    }
    if (events.empty()) {
      continue;
    }
    out += "  [" + src.label + "] flight recorder tail (" +
           std::to_string(events.size()) + " events, newest last):\n";
    for (const TraceEvent& e : events) {
      char line[160];
      std::snprintf(line, sizeof(line), "    +%.3fms %c %s %s",
                    static_cast<double>(e.ts_ns) * 1e-6, e.phase, e.cat,
                    e.name);
      out += line;
      if (e.phase == 'X') {
        std::snprintf(line, sizeof(line), " dur=%.3fms",
                      static_cast<double>(e.dur_ns) * 1e-6);
        out += line;
      }
      if (e.flow != 0) {
        std::snprintf(line, sizeof(line), " flow=0x%llx",
                      static_cast<unsigned long long>(e.flow));
        out += line;
      }
      if (e.arg_name != nullptr) {
        std::snprintf(line, sizeof(line), " %s=%llu", e.arg_name,
                      static_cast<unsigned long long>(e.arg));
        out += line;
      }
      if (e.arg2_name != nullptr) {
        std::snprintf(line, sizeof(line), " %s=%llu", e.arg2_name,
                      static_cast<unsigned long long>(e.arg2));
        out += line;
      }
      out += '\n';
    }
  }
  return out;
}

std::uint64_t Tracer::events_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    // mo: acquire — same pairing as snapshot(); count only published events.
    total += std::min(buf->head.load(std::memory_order_acquire),
                      static_cast<std::uint64_t>(buf->ring.size()));
  }
  return total;
}

}  // namespace reptile::obs
