#include "rtm/check/check.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"
#include "rtm/chaos.hpp"
#include "rtm/stat_counter.hpp"
#include "rtm/mailbox.hpp"
#include "rtm/world.hpp"

namespace reptile::rtm::check {

namespace {

constexpr std::size_t kMaxNotes = 64;

/// Flight-recorder events dumped per thread when a check fails: enough to
/// see what a thread was doing before it froze, small enough to read.
constexpr std::size_t kFlightTailEvents = 32;

const char* role_name(ThreadRole role) {
  switch (role) {
    case ThreadRole::kMain:
      return "main";
    case ThreadRole::kWorker:
      return "worker";
    case ThreadRole::kService:
      return "service";
    case ThreadRole::kOther:
      return "other";
  }
  return "?";
}

std::string envelope(int source, int tag) {
  std::ostringstream out;
  out << "source=";
  if (source == kAnySource) {
    out << "any";
  } else {
    out << source;
  }
  out << " tag=";
  if (tag == kAnyTag) {
    out << "any";
  } else {
    out << tag;
  }
  return out.str();
}

long ms_since(std::chrono::steady_clock::time_point then,
              std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
      .count();
}

}  // namespace

// --- ThreadScope ----------------------------------------------------------

ThreadScope::ThreadScope(RunChecker& check, int rank, ThreadRole role)
    : check_(&check), registered_(check.register_thread(rank, role)) {}

ThreadScope::~ThreadScope() {
  if (registered_) check_->unregister_thread();
}

// --- construction / wiring ------------------------------------------------

RunChecker::RunChecker(const Options& options, int nranks, World* world)
    : opts_(options),
      nranks_(nranks),
      world_(world),
      streams_(static_cast<std::size_t>(nranks)),
      mailboxes_(static_cast<std::size_t>(nranks), nullptr),
      counters_(static_cast<std::size_t>(nranks)),
      ever_threads_(static_cast<std::size_t>(nranks), 0),
      barrier_arrived_(static_cast<std::size_t>(nranks), 0),
      final_(static_cast<std::size_t>(nranks)) {}

RunChecker::~RunChecker() {
  stop_watchdog();
  // Detach the hooks so deliveries that outlive the checker (the chaos
  // drain in ~World) cannot call into freed state.
  for (int r = 0; r < nranks_; ++r) {
    if (Mailbox* mb = mailboxes_[static_cast<std::size_t>(r)]) {
      mb->set_check(nullptr, r);
    }
  }
  if (barrier_ != nullptr) barrier_->set_check(nullptr);
}

void RunChecker::attach_mailbox(int rank, Mailbox* mailbox) {
  mailboxes_[static_cast<std::size_t>(rank)] = mailbox;
  mailbox->set_check(this, rank);
}

void RunChecker::attach_barrier(Barrier* barrier) {
  barrier_ = barrier;
  barrier->set_check(this);
}

void RunChecker::start() {
  if (opts_.deadlock && !watchdog_.joinable()) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

void RunChecker::stop_watchdog() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

[[noreturn]] void RunChecker::throw_abort() const {
  throw DeadlockError(abort_report_);
}

// --- thread registry ------------------------------------------------------

bool RunChecker::register_thread(int rank, ThreadRole role) {
  std::lock_guard lock(mutex_);
  const auto id = std::this_thread::get_id();
  if (threads_.contains(id)) return false;
  ThreadInfo info;
  info.rank = rank;
  info.role = role;
  info.since = std::chrono::steady_clock::now();
  threads_.emplace(id, info);
  ++ever_threads_[static_cast<std::size_t>(rank)];
  return true;
}

void RunChecker::unregister_thread() {
  std::lock_guard lock(mutex_);
  threads_.erase(std::this_thread::get_id());
}

RunChecker::ThreadInfo& RunChecker::thread_entry_locked(int rank) {
  const auto id = std::this_thread::get_id();
  auto it = threads_.find(id);
  if (it == threads_.end()) {
    // An unregistered thread entered a blocking wait (e.g. an ad-hoc helper
    // thread in a test): track it from here on so its rank stays honest.
    ThreadInfo info;
    info.rank = rank;
    info.since = std::chrono::steady_clock::now();
    it = threads_.emplace(id, info).first;
    ++ever_threads_[static_cast<std::size_t>(rank)];
  }
  return it->second;
}

void RunChecker::thread_active() {
  std::lock_guard lock(mutex_);
  auto it = threads_.find(std::this_thread::get_id());
  if (it == threads_.end()) return;
  it->second.state = ThreadState::kRunning;
  it->second.since = std::chrono::steady_clock::now();
}

void RunChecker::thread_idle_poll() {
  std::lock_guard lock(mutex_);
  auto it = threads_.find(std::this_thread::get_id());
  if (it == threads_.end()) return;
  if (it->second.state != ThreadState::kIdlePoll) {
    it->second.state = ThreadState::kIdlePoll;
    it->second.since = std::chrono::steady_clock::now();
  }
}

// --- mailbox hooks --------------------------------------------------------

void RunChecker::on_push(int rank, Message& m) {
  if (opts_.audit) {
    Stream& st =
        streams_[static_cast<std::size_t>(rank)][stream_key(m.source, m.tag)];
    m.seq = st.pushed++;
  }
  stat_add(counters_[static_cast<std::size_t>(rank)].delivered, 1);
  stat_add(deliveries_, 1);
}

void RunChecker::on_pop(int rank, const Message& m) {
  if (opts_.audit) {
    Stream& st =
        streams_[static_cast<std::size_t>(rank)][stream_key(m.source, m.tag)];
    if (m.seq != st.popped) {
      stat_add(counters_[static_cast<std::size_t>(rank)].fifo_violations, 1);
      std::ostringstream note;
      note << "rank " << rank << ": FIFO overtaking on stream ("
           << envelope(m.source, m.tag) << "): popped seq " << m.seq
           << ", expected " << st.popped;
      note_locked(note.str());
      st.popped = m.seq;  // resync so one overtake is one violation
    }
    ++st.popped;
  }
  stat_add(counters_[static_cast<std::size_t>(rank)].consumed, 1);
  stat_add(consumes_, 1);
}

void RunChecker::note_locked(std::string text) {
  std::lock_guard lock(mutex_);
  if (notes_.size() < kMaxNotes) notes_.push_back(std::move(text));
}

// --- blocking-wait hooks --------------------------------------------------

std::uint64_t RunChecker::begin_recv_wait(int rank, int source, int tag,
                                          const Mailbox* mailbox) {
  std::lock_guard lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  WaitInfo w;
  w.ticket = ticket;
  w.rank = rank;
  w.kind = WaitInfo::Kind::kRecv;
  w.source = source;
  w.tag = tag;
  w.mailbox = mailbox;
  w.since = std::chrono::steady_clock::now();
  waits_.emplace(ticket, w);
  ThreadInfo& t = thread_entry_locked(rank);
  t.state = ThreadState::kRecvWait;
  t.since = w.since;
  t.ticket = ticket;
  stat_add(counters_[static_cast<std::size_t>(rank)].waits, 1);
  return ticket;
}

void RunChecker::end_recv_wait(std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  waits_.erase(ticket);
  auto it = threads_.find(std::this_thread::get_id());
  if (it != threads_.end()) {
    it->second.state = ThreadState::kRunning;
    it->second.since = std::chrono::steady_clock::now();
  }
}

void RunChecker::on_barrier_arrive(int rank, std::uint64_t gen,
                                   bool released) {
  std::lock_guard lock(mutex_);
  stat_add(arrivals_, 1);
  if (gen != barrier_gen_) {
    barrier_gen_ = gen;
    barrier_untracked_ = false;
    std::fill(barrier_arrived_.begin(), barrier_arrived_.end(), char{0});
  }
  if (rank >= 0 && rank < nranks_) {
    barrier_arrived_[static_cast<std::size_t>(rank)] = 1;
  } else {
    // Anonymous arrival: we cannot attribute it, so barrier waits of this
    // generation are excluded from deadlock analysis (conservative).
    barrier_untracked_ = true;
  }
  if (released) barrier_released_below_ = gen + 1;
}

std::uint64_t RunChecker::begin_barrier_wait(int rank, std::uint64_t gen) {
  std::lock_guard lock(mutex_);
  const std::uint64_t ticket = next_ticket_++;
  WaitInfo w;
  w.ticket = ticket;
  w.rank = rank;
  w.kind = WaitInfo::Kind::kBarrier;
  w.gen = gen;
  w.since = std::chrono::steady_clock::now();
  waits_.emplace(ticket, w);
  if (rank >= 0 && rank < nranks_) {
    ThreadInfo& t = thread_entry_locked(rank);
    t.state = ThreadState::kBarrierWait;
    t.since = w.since;
    t.ticket = ticket;
    stat_add(counters_[static_cast<std::size_t>(rank)].waits, 1);
  }
  return ticket;
}

void RunChecker::end_barrier_wait(std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  waits_.erase(ticket);
  auto it = threads_.find(std::this_thread::get_id());
  if (it != threads_.end()) {
    it->second.state = ThreadState::kRunning;
    it->second.since = std::chrono::steady_clock::now();
  }
}

// --- protocol linter ------------------------------------------------------

const TagRule* RunChecker::rule_for(int tag) const noexcept {
  for (const TagRule& rule : opts_.tags) {
    if (tag >= rule.first_tag && tag <= rule.last_tag) return &rule;
  }
  return nullptr;
}

bool RunChecker::is_reply_tag(int tag) const noexcept {
  const TagRule* rule = rule_for(tag);
  return rule != nullptr && rule->dir == TagDir::kReply;
}

void RunChecker::on_send(int src, int dst, int tag,
                         std::span<const std::byte> payload) {
  if (!opts_.lint || opts_.tags.empty()) return;
  stat_add(counters_[static_cast<std::size_t>(src)].lint_checked, 1);

  const auto fail = [&](const std::string& what) {
    std::ostringstream out;
    out << "rtm-check: protocol violation on send rank " << src << " -> rank "
        << dst << " tag " << tag << " (" << payload.size()
        << " bytes): " << what;
    throw ProtocolError(out.str());
  };

  const TagRule* rule = rule_for(tag);
  if (rule == nullptr) {
    if (opts_.strict_tags) fail("tag not in the protocol table");
    return;
  }
  if (payload.size() < rule->min_bytes || payload.size() > rule->max_bytes) {
    std::ostringstream what;
    what << rule->name << " payload size out of bounds [" << rule->min_bytes
         << ", ";
    if (rule->max_bytes == std::numeric_limits<std::size_t>::max()) {
      what << "inf";
    } else {
      what << rule->max_bytes;
    }
    what << "]";
    fail(what.str());
  }

  if (rule->dir == TagDir::kSelf) {
    fail(std::string(rule->name) +
         " is self-addressed control, posted with Comm::post_self, never sent");
  }

  if (rule->dir == TagDir::kRequest) {
    if (rule->pair != nullptr) {
      int reply_tag = 0;
      std::size_t reply_bytes = 0;
      std::uint64_t seq = 0;
      std::string err;
      if (!rule->pair(payload, &reply_tag, &reply_bytes, &seq, &err)) {
        fail(std::string(rule->name) + ": " + err);
      }
      std::lock_guard lock(lint_mutex_);
      PairLedger& ledger = outstanding_[std::make_tuple(dst, src, reply_tag)];
      if (seq == 0) {
        // Unsequenced traffic: original FIFO-of-sizes pairing.
        ledger.legacy.push_back(reply_bytes);
        return;
      }
      const auto pending = std::find_if(
          ledger.pending.begin(), ledger.pending.end(),
          [seq](const PairLedger::Pending& p) { return p.seq == seq; });
      if (pending != ledger.pending.end()) {
        // Idempotent retransmission of a still-outstanding request: audit,
        // don't double-book the expected reply.
        stat_add(counters_[static_cast<std::size_t>(src)].retransmits, 1);
        return;
      }
      if (ledger.answered.contains(seq)) {
        // Retransmission racing the (lost or stale) reply: the responder
        // will answer again, so the seq becomes outstanding once more.
        stat_add(counters_[static_cast<std::size_t>(src)].retransmits, 1);
      } else if (ledger.dropped.erase(seq) != 0) {
        // Retransmission of a request whose previous copy was dropped.
        stat_add(counters_[static_cast<std::size_t>(src)].retransmits, 1);
      }
      ledger.pending.push_back({seq, reply_bytes});
      return;
    }
    return;
  }

  // Reply: must answer an outstanding request for (src -> dst, tag) — the
  // oldest one for unsequenced traffic, the seq-matching one otherwise —
  // and carry exactly the payload size the request implies.
  std::uint64_t seq = 0;
  if (rule->seq_of != nullptr) (void)rule->seq_of(payload, &seq);
  std::size_t expected = 0;
  bool stale = false;
  {
    std::lock_guard lock(lint_mutex_);
    auto it = outstanding_.find(std::make_tuple(src, dst, tag));
    PairLedger* ledger = it != outstanding_.end() ? &it->second : nullptr;
    if (seq == 0) {
      if (ledger == nullptr || ledger->legacy.empty()) {
        fail(std::string(rule->name) + ": no outstanding request awaits this "
                                       "reply (orphaned reply)");
      }
      expected = ledger->legacy.front();
      ledger->legacy.erase(ledger->legacy.begin());
    } else {
      const auto pending =
          ledger == nullptr
              ? std::vector<PairLedger::Pending>::iterator{}
              : std::find_if(ledger->pending.begin(), ledger->pending.end(),
                             [seq](const PairLedger::Pending& p) {
                               return p.seq == seq;
                             });
      if (ledger != nullptr && pending != ledger->pending.end()) {
        expected = pending->bytes;
        ledger->pending.erase(pending);
        ledger->answered.emplace(seq, expected);
        ledger->answered_order.push_back(seq);
        if (ledger->answered_order.size() > kAnsweredCap) {
          ledger->answered.erase(ledger->answered_order.front());
          ledger->answered_order.pop_front();
        }
      } else if (ledger != nullptr && ledger->answered.contains(seq)) {
        // Duplicate answer to an already-served seq (the responder saw a
        // retransmission): audited, still size-checked below.
        expected = ledger->answered.at(seq);
        stale = true;
      } else if (ledger != nullptr && ledger->dropped.contains(seq)) {
        // An earlier copy of a since-dropped request got through after all.
        expected = ledger->dropped.at(seq);
        ledger->dropped.erase(seq);
        ledger->answered.emplace(seq, expected);
        ledger->answered_order.push_back(seq);
        if (ledger->answered_order.size() > kAnsweredCap) {
          ledger->answered.erase(ledger->answered_order.front());
          ledger->answered_order.pop_front();
        }
      } else {
        fail(std::string(rule->name) + ": no outstanding request awaits this "
                                       "reply (orphaned reply)");
      }
    }
  }
  if (stale) {
    stat_add(counters_[static_cast<std::size_t>(src)].stale_reply_sends, 1);
  }
  if (payload.size() != expected) {
    std::ostringstream what;
    what << rule->name << " payload is " << payload.size()
         << " bytes, the paired request implies " << expected;
    fail(what.str());
  }
}

void RunChecker::on_post_self(int rank, int tag) {
  if (!opts_.lint || opts_.tags.empty()) return;
  const TagRule* rule = rule_for(tag);
  if (rule != nullptr && rule->dir == TagDir::kSelf) return;
  if (rule == nullptr && !opts_.strict_tags) return;
  std::ostringstream out;
  out << "rtm-check: protocol violation on post_self rank " << rank << " tag "
      << tag << ": "
      << (rule == nullptr ? std::string("tag not in the protocol table")
                          : std::string(rule->name) +
                                " is not a self-addressed control tag");
  throw ProtocolError(out.str());
}

// --- chaos hooks ----------------------------------------------------------

void RunChecker::on_chaos_drop(int dst, const Message& m) {
  stat_add(counters_[static_cast<std::size_t>(m.source)].chaos_dropped, 1);
  if (!opts_.lint || opts_.tags.empty()) return;
  const TagRule* rule = rule_for(m.tag);
  if (rule == nullptr || rule->dir != TagDir::kRequest ||
      rule->pair == nullptr) {
    return;
  }
  // A dropped request will never be answered; retire its ledger entry so
  // finalize doesn't misreport it as unanswered. (The requester's timeout
  // retransmission re-registers the seq.)
  int reply_tag = 0;
  std::size_t reply_bytes = 0;
  std::uint64_t seq = 0;
  std::string err;
  if (m.payload.size() < rule->min_bytes ||
      !rule->pair(m.payload, &reply_tag, &reply_bytes, &seq, &err)) {
    return;  // truncated-then-dropped; nothing was booked for this form
  }
  std::lock_guard lock(lint_mutex_);
  const auto it = outstanding_.find(std::make_tuple(dst, m.source, reply_tag));
  if (it == outstanding_.end()) return;
  PairLedger& ledger = it->second;
  if (seq == 0) {
    // Unsequenced: retire the newest matching expectation (best effort).
    const auto legacy = std::find(ledger.legacy.rbegin(),
                                  ledger.legacy.rend(), reply_bytes);
    if (legacy != ledger.legacy.rend()) {
      ledger.legacy.erase(std::next(legacy).base());
    }
    return;
  }
  const auto pending = std::find_if(
      ledger.pending.begin(), ledger.pending.end(),
      [seq](const PairLedger::Pending& p) { return p.seq == seq; });
  if (pending != ledger.pending.end()) {
    ledger.dropped.emplace(seq, pending->bytes);
    ledger.pending.erase(pending);
  }
}

void RunChecker::on_chaos_duplicate(int /*dst*/, const Message& m) {
  stat_add(counters_[static_cast<std::size_t>(m.source)].chaos_duplicated, 1);
}

void RunChecker::on_chaos_truncate(int dst, const Message& m) {
  stat_add(counters_[static_cast<std::size_t>(m.source)].chaos_truncated, 1);
  std::lock_guard lock(lint_mutex_);
  truncated_streams_.emplace(dst, m.source, m.tag);
}

void RunChecker::on_phase_boundary(int rank, std::size_t pending) {
  auto& counter =
      counters_[static_cast<std::size_t>(rank)].max_pending_barrier;
  std::uint64_t seen = stat_read(counter);
  // mo: relaxed max-CAS — still a statistic (see stat_counter.hpp); the
  // loop needs atomicity only, not ordering.
  while (seen < pending && !counter.compare_exchange_weak(
                               seen, pending, std::memory_order_relaxed)) {
  }
}

// --- watchdog -------------------------------------------------------------

void RunChecker::watchdog_main() {
  std::unique_lock lock(stop_mutex_);
  while (!stop_) {
    stop_cv_.wait_for(lock, poll_interval());
    // mo: acquire pairs with the release store in abort(); observing
    // `true` makes the abort_report_ write visible to this thread.
    if (stop_ || aborted_.load(std::memory_order_acquire)) return;
    lock.unlock();
    evaluate();
    lock.lock();
  }
}

void RunChecker::evaluate() {
  using clock = std::chrono::steady_clock;
  const auto now = clock::now();
  const std::uint64_t before[3] = {
      stat_read(deliveries_),
      stat_read(consumes_),
      stat_read(arrivals_)};

  struct WaitCopy {
    WaitInfo w;
    bool released = false;  ///< young, logically released, or untracked
  };
  struct ThreadCopy {
    ThreadInfo t;
  };
  std::vector<WaitCopy> waits;
  std::vector<ThreadCopy> threads;
  std::vector<int> ever;
  std::uint64_t released_below = 0;
  std::uint64_t tracked_gen = 0;
  bool gen_untracked = false;
  std::vector<char> arrived;
  {
    std::lock_guard lock(mutex_);
    waits.reserve(waits_.size());
    for (const auto& [ticket, w] : waits_) waits.push_back({w, false});
    threads.reserve(threads_.size());
    for (const auto& [id, t] : threads_) threads.push_back({t});
    ever = ever_threads_;
    released_below = barrier_released_below_;
    tracked_gen = barrier_gen_;
    gen_untracked = barrier_untracked_;
    arrived = barrier_arrived_;
  }

  // Verify each wait is stable (older than the grace period) and not
  // logically released — a matching message already in the mailbox, or a
  // completed barrier generation means the thread just hasn't been
  // scheduled yet. Probing takes mailbox mutexes, so our own mutex is not
  // held here.
  const auto grace = std::chrono::milliseconds(opts_.grace_ms);
  bool any_stable = false;
  for (WaitCopy& wc : waits) {
    if (now - wc.w.since < grace) {
      wc.released = true;
      continue;
    }
    if (wc.w.kind == WaitInfo::Kind::kRecv) {
      if (wc.w.mailbox->probe(wc.w.source, wc.w.tag).has_value()) {
        wc.released = true;
      }
    } else {
      if (wc.w.gen < released_below || wc.w.gen != tracked_gen ||
          gen_untracked) {
        wc.released = true;
      }
    }
    if (!wc.released) any_stable = true;
  }
  if (!any_stable) {
    prev_candidate_.clear();
    return;
  }

  // Messages still delayed inside the chaos delayer count as progress in
  // flight.
  if (const ChaosDelayer* chaos = world_->chaos(); chaos && !chaos->idle()) {
    prev_candidate_.clear();
    return;
  }

  // Per-rank view: a rank is a deadlock candidate only when it has at
  // least one live registered thread and every one of them is stably
  // blocked (or idle-polling past the grace period).
  struct RankView {
    bool has_live = false;
    bool all_blocked = true;
    bool exited = false;
    std::vector<const WaitInfo*> stable;
  };
  std::vector<RankView> ranks(static_cast<std::size_t>(nranks_));
  for (const WaitCopy& wc : waits) {
    if (!wc.released && wc.w.rank >= 0 && wc.w.rank < nranks_) {
      ranks[static_cast<std::size_t>(wc.w.rank)].stable.push_back(&wc.w);
    }
  }
  for (const ThreadCopy& tc : threads) {
    if (tc.t.rank < 0 || tc.t.rank >= nranks_) continue;
    RankView& rv = ranks[static_cast<std::size_t>(tc.t.rank)];
    rv.has_live = true;
    switch (tc.t.state) {
      case ThreadState::kRunning:
        rv.all_blocked = false;
        break;
      case ThreadState::kIdlePoll:
        if (now - tc.t.since < grace) rv.all_blocked = false;
        break;
      case ThreadState::kRecvWait:
      case ThreadState::kBarrierWait: {
        const bool stable =
            std::any_of(rv.stable.begin(), rv.stable.end(),
                        [&](const WaitInfo* w) {
                          return w->ticket == tc.t.ticket;
                        });
        if (!stable) rv.all_blocked = false;
        break;
      }
    }
  }
  for (int r = 0; r < nranks_; ++r) {
    RankView& rv = ranks[static_cast<std::size_t>(r)];
    rv.exited = !rv.has_live && ever[static_cast<std::size_t>(r)] > 0;
    if (!rv.has_live || !rv.all_blocked) continue;
    // A queued message that is not a protocol reply could still be consumed
    // by a thread we do not know about — treat the rank as live then.
    const Mailbox* mb = mailboxes_[static_cast<std::size_t>(r)];
    if (mb != nullptr) {
      for (const MessageInfo& info : mb->pending_info()) {
        if (!is_reply_tag(info.tag)) {
          rv.all_blocked = false;
          break;
        }
      }
    }
  }

  // Greatest fixpoint: start from every candidate rank and evict any whose
  // wait could still be satisfied by a rank outside the frozen set. What
  // remains is a set of ranks that provably cannot unblock each other.
  std::vector<char> frozen(static_cast<std::size_t>(nranks_), 0);
  for (int r = 0; r < nranks_; ++r) {
    const RankView& rv = ranks[static_cast<std::size_t>(r)];
    frozen[static_cast<std::size_t>(r)] = rv.has_live && rv.all_blocked;
  }
  const auto inert = [&](int r) {
    return frozen[static_cast<std::size_t>(r)] != 0 ||
           ranks[static_cast<std::size_t>(r)].exited;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int r = 0; r < nranks_; ++r) {
      if (frozen[static_cast<std::size_t>(r)] == 0) continue;
      bool still = true;
      for (const WaitInfo* w : ranks[static_cast<std::size_t>(r)].stable) {
        if (w->kind == WaitInfo::Kind::kRecv) {
          if (w->source != kAnySource) {
            if (!inert(w->source)) still = false;
          } else {
            for (int s = 0; s < nranks_ && still; ++s) {
              if (s != r && !inert(s)) still = false;
            }
          }
        } else {
          for (int s = 0; s < nranks_ && still; ++s) {
            if (arrived[static_cast<std::size_t>(s)] == 0 && !inert(s)) {
              still = false;
            }
          }
        }
        if (!still) break;
      }
      if (!still) {
        frozen[static_cast<std::size_t>(r)] = 0;
        changed = true;
      }
    }
  }

  std::vector<std::uint64_t> fingerprint;
  std::size_t frozen_waits = 0;
  for (int r = 0; r < nranks_; ++r) {
    if (frozen[static_cast<std::size_t>(r)] == 0) continue;
    fingerprint.push_back(static_cast<std::uint64_t>(r) << 48);
    for (const WaitInfo* w : ranks[static_cast<std::size_t>(r)].stable) {
      fingerprint.push_back(w->ticket);
      ++frozen_waits;
    }
  }
  if (fingerprint.empty() || frozen_waits == 0) {
    prev_candidate_.clear();
    return;
  }
  std::sort(fingerprint.begin(), fingerprint.end());

  const std::uint64_t after[3] = {
      stat_read(deliveries_),
      stat_read(consumes_),
      stat_read(arrivals_)};
  if (after[0] != before[0] || after[1] != before[1] ||
      after[2] != before[2]) {
    // Progress raced our probes; this tick proves nothing.
    prev_candidate_.clear();
    return;
  }
  if (fingerprint != prev_candidate_ || before[0] != prev_counters_[0] ||
      before[1] != prev_counters_[1] || before[2] != prev_counters_[2]) {
    // New candidate: require it to persist, untouched, into the next tick.
    prev_candidate_ = std::move(fingerprint);
    prev_counters_[0] = after[0];
    prev_counters_[1] = after[1];
    prev_counters_[2] = after[2];
    return;
  }

  // Confirmed. Compose the report: wait-for chain first, then the full
  // per-thread state dump and queued envelopes of the frozen ranks.
  std::ostringstream out;
  int nfrozen = 0;
  for (int r = 0; r < nranks_; ++r) {
    nfrozen += frozen[static_cast<std::size_t>(r)] != 0 ? 1 : 0;
  }
  out << "rtm-check: deadlock detected — " << nfrozen
      << " rank(s) cannot make progress\n";

  // Follow one dependency out of each frozen rank until a rank repeats:
  // that suffix is a wait-for cycle (or ends at an exited rank).
  {
    const auto dependency = [&](int r) -> int {
      for (const WaitInfo* w : ranks[static_cast<std::size_t>(r)].stable) {
        if (w->kind == WaitInfo::Kind::kRecv && w->source != kAnySource &&
            frozen[static_cast<std::size_t>(w->source)] != 0) {
          return w->source;
        }
      }
      for (const WaitInfo* w : ranks[static_cast<std::size_t>(r)].stable) {
        if (w->kind == WaitInfo::Kind::kRecv && w->source != kAnySource &&
            ranks[static_cast<std::size_t>(w->source)].exited) {
          return ~w->source;  // bit-complement marks an exited dependency
        }
      }
      for (int s = 0; s < nranks_; ++s) {
        if (s != r && frozen[static_cast<std::size_t>(s)] != 0) return s;
      }
      return r;
    };
    int start = 0;
    while (start < nranks_ && frozen[static_cast<std::size_t>(start)] == 0) {
      ++start;
    }
    std::vector<char> seen(static_cast<std::size_t>(nranks_), 0);
    out << "wait-for chain: rank " << start;
    int at = start;
    while (seen[static_cast<std::size_t>(at)] == 0) {
      seen[static_cast<std::size_t>(at)] = 1;
      const int next = dependency(at);
      if (next < 0) {
        out << " -> rank " << ~next << " (exited)";
        break;
      }
      out << " -> rank " << next;
      at = next;
    }
    out << '\n';
  }

  out << "per-thread state:\n";
  for (const ThreadCopy& tc : threads) {
    out << "  rank " << tc.t.rank << " [" << role_name(tc.t.role) << "] ";
    switch (tc.t.state) {
      case ThreadState::kRunning:
        out << "running";
        break;
      case ThreadState::kIdlePoll:
        out << "idle-polling";
        break;
      case ThreadState::kRecvWait:
      case ThreadState::kBarrierWait:
        for (const WaitCopy& wc : waits) {
          if (wc.w.ticket != tc.t.ticket) continue;
          if (wc.w.kind == WaitInfo::Kind::kRecv) {
            out << "blocked in recv(" << envelope(wc.w.source, wc.w.tag)
                << ")";
          } else {
            out << "blocked in barrier(generation " << wc.w.gen << ")";
          }
          break;
        }
        break;
    }
    out << " for " << ms_since(tc.t.since, now) << " ms\n";
  }
  for (int r = 0; r < nranks_; ++r) {
    if (ranks[static_cast<std::size_t>(r)].exited) {
      out << "  rank " << r << " exited\n";
    }
  }
  out << "mailbox queues of frozen ranks:\n";
  for (int r = 0; r < nranks_; ++r) {
    if (frozen[static_cast<std::size_t>(r)] == 0) continue;
    const Mailbox* mb = mailboxes_[static_cast<std::size_t>(r)];
    const auto pending = mb != nullptr ? mb->pending_info()
                                       : std::vector<MessageInfo>{};
    out << "  rank " << r << ": " << pending.size() << " queued";
    for (const MessageInfo& info : pending) {
      out << " [" << envelope(info.source, info.tag) << " " << info.bytes
          << "B]";
    }
    out << '\n';
  }

  // Flight-recorder tails for the frozen ranks only: their threads are
  // provably blocked (stable, re-verified waits), so their rings are
  // quiescent and the happens-before edge runs through the checker mutex
  // each wait registration took. Threads of non-frozen ranks may still be
  // recording; their rings are deliberately not read here.
  {
    std::vector<int> frozen_ranks;
    for (int r = 0; r < nranks_; ++r) {
      if (frozen[static_cast<std::size_t>(r)] != 0) frozen_ranks.push_back(r);
    }
    const std::string tail = obs::Tracer::instance().tail_text(
        kFlightTailEvents, frozen_ranks);
    if (!tail.empty()) {
      out << "flight recorder (most recent events of frozen ranks):\n"
          << tail;
    }
  }

  abort_report_ = out.str();
  // mo: release publishes abort_report_ to every acquire load of the flag
  // (watchdog loop, RunChecker::aborted()).
  aborted_.store(true, std::memory_order_release);
  // Wake every blocked thread promptly: they poll `aborted()` on their
  // wait slices and unwind with DeadlockError carrying this report.
}

// --- end of run -----------------------------------------------------------

bool RunChecker::leak_is_stale(int rank, const Message& m) {
  if (opts_.tags.empty()) return false;
  const TagRule* rule = rule_for(m.tag);
  if (rule == nullptr) return false;
  // Best-effort messages are allowed to outlive their listeners (the
  // receiver stops draining once it has what it needs); a leftover copy is
  // explained by the protocol itself.
  if (rule->best_effort) return true;
  std::lock_guard lock(lint_mutex_);
  // The linter passed every send at its exact size, so a leftover too
  // short to parse was cut in flight by the fault injector. Its requester
  // discards such bytes as malformed; one nobody waited for is a stale
  // leftover too.
  const bool truncated =
      opts_.lint &&
      truncated_streams_.contains(std::make_tuple(rank, m.source, m.tag));
  if (rule->dir == TagDir::kReply) {
    // A reply leaked in the requester's mailbox: stale iff its seq was
    // already served (the requester had moved on — retransmission race).
    if (rule->seq_of == nullptr) return false;
    std::uint64_t seq = 0;
    if (!rule->seq_of(m.payload, &seq)) return truncated;
    if (seq == 0) return false;
    const auto it = outstanding_.find(std::make_tuple(m.source, rank, m.tag));
    if (it == outstanding_.end()) return false;
    return it->second.answered.contains(seq) ||
           it->second.dropped.contains(seq);
  }
  // A request leaked in the responder's mailbox: stale iff it is a
  // duplicate/retransmission of a request that was already answered.
  if (rule->pair == nullptr) return false;
  int reply_tag = 0;
  std::size_t reply_bytes = 0;
  std::uint64_t seq = 0;
  std::string err;
  if (m.payload.size() < rule->min_bytes ||
      !rule->pair(m.payload, &reply_tag, &reply_bytes, &seq, &err)) {
    return truncated;
  }
  if (seq == 0) return false;
  const auto it = outstanding_.find(std::make_tuple(rank, m.source, reply_tag));
  if (it == outstanding_.end()) return false;
  return it->second.answered.contains(seq) || it->second.dropped.contains(seq);
}

void RunChecker::finalize() {
  stop_watchdog();
  if (finalized_) return;
  finalized_ = true;

  std::ostringstream out;
  bool audit_failed = false;
  if (opts_.audit) {
    for (int r = 0; r < nranks_; ++r) {
      const Mailbox* mb = mailboxes_[static_cast<std::size_t>(r)];
      if (mb == nullptr) continue;
      CheckSnapshot& extra = final_[static_cast<std::size_t>(r)];
      mb->for_each_pending([&](const Message& m) {
        // A leaked message whose protocol sequence number was already
        // answered (or whose request copy was dropped), or that the fault
        // injector cut short, is explained by the retry/duplication
        // machinery: audit it as stale, not as a leak.
        if (leak_is_stale(r, m)) {
          ++extra.stale_leaks;
          out << "rank " << r << ": stale leftover ("
              << envelope(m.source, m.tag) << ", " << m.payload.size()
              << " bytes) — explained by retries/duplication/truncation\n";
          return;
        }
        ++extra.leaked_messages;
        audit_failed = true;
        const bool orphan = is_reply_tag(m.tag);
        if (orphan) ++extra.orphaned_replies;
        out << "rank " << r << ": leaked message ("
            << envelope(m.source, m.tag) << ", " << m.payload.size()
            << " bytes)" << (orphan ? " — orphaned reply" : "") << '\n';
      });
    }
  }
  {
    std::lock_guard lock(lint_mutex_);
    for (const auto& [key, ledger] : outstanding_) {
      const auto& [responder, requester, reply_tag] = key;
      const std::size_t open = ledger.pending.size() + ledger.legacy.size();
      if (open == 0) continue;
      final_[static_cast<std::size_t>(requester)].unanswered_requests += open;
      audit_failed = true;
      out << "rank " << requester << ": " << open
          << " request(s) to rank " << responder
          << " never answered (expected reply tag " << reply_tag << ")\n";
    }
  }
  {
    std::lock_guard lock(mutex_);
    for (const std::string& note : notes_) out << note << '\n';
  }
  if (audit_failed) {
    // Post-join, so every thread's ring is safe to read: the timelines
    // leading up to the leak/unanswered request come with the report.
    const std::string tail =
        obs::Tracer::instance().tail_text(kFlightTailEvents);
    if (!tail.empty()) {
      out << "flight recorder (most recent events per thread):\n" << tail;
    }
  }
  final_report_ = out.str();
}

CheckSnapshot RunChecker::snapshot(int rank) const {
  const RankCounters& c = counters_[static_cast<std::size_t>(rank)];
  CheckSnapshot s = final_[static_cast<std::size_t>(rank)];
  s.msgs_delivered = stat_read(c.delivered);
  s.msgs_consumed = stat_read(c.consumed);
  s.fifo_violations = stat_read(c.fifo_violations);
  s.lint_checked = stat_read(c.lint_checked);
  s.waits_registered = stat_read(c.waits);
  s.max_pending_at_barrier =
      stat_read(c.max_pending_barrier);
  s.retransmits = stat_read(c.retransmits);
  s.stale_reply_sends = stat_read(c.stale_reply_sends);
  s.chaos_dropped = stat_read(c.chaos_dropped);
  s.chaos_duplicated = stat_read(c.chaos_duplicated);
  s.chaos_truncated = stat_read(c.chaos_truncated);
  return s;
}

std::string RunChecker::final_report() const { return final_report_; }

}  // namespace reptile::rtm::check
