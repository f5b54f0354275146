#include "parallel/lookup_service.hpp"

#include <cstring>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/wire.hpp"

namespace reptile::parallel {

namespace {
constexpr rtm::Match kRequests{rtm::kAnySource,
                               {kTagKmerRequest, kTagTileRequest,
                                kTagUniversalRequest, kTagBatchRequest}};
constexpr rtm::Match kRequestsOrStop{
    rtm::kAnySource,
    {kTagKmerRequest, kTagTileRequest, kTagUniversalRequest, kTagBatchRequest,
     kTagServiceStop}};
}  // namespace

LookupService::LookupService(rtm::Comm& comm, const DistSpectrum& spectrum,
                             bool universal)
    : comm_(&comm), spectrum_(&spectrum), universal_(universal) {}

void LookupService::reply(int requester, LookupKind kind, std::uint64_t id,
                          int reply_to, std::uint64_t seq) {
  // Closes the requester's flow arrow: same (rank, tag, seq)-derived id as
  // the 's' event emitted at the send site on `requester`.
  obs::Tracer::instance().flow_end("flow", "lookup",
                                   obs::flow_id(requester, reply_to, seq));
  LookupReply r;
  r.seq = seq;
  const auto c = spectrum_->owned(kind, id);
  r.count = c ? static_cast<std::int32_t>(*c) : -1;
  ++(kind == LookupKind::kKmer ? stats_.kmer_requests : stats_.tile_requests);
  if (r.count < 0) ++stats_.absent_replies;
  comm_->send_value(requester, reply_to, r);
  ++stats_.requests_served;
}

void LookupService::reply_batch(const rtm::Message& msg) {
  BatchRequestView req;
  try {
    req = view_batch_request(msg.payload);
  } catch (const std::runtime_error&) {
    // Truncated/garbled by fault injection: drop unanswered, the
    // requester's timeout retry recovers.
    ++stats_.malformed_requests;
    return;
  }
  obs::Tracer::instance().flow_end(
      "flow", "batch", obs::flow_id(msg.source, req.reply_to, req.seq));
  // Zero-copy reply: the IDs are read in place from the request, and each
  // i32 count is written straight into an arena payload framed with the
  // reply header — no ID or count vector, no encode copy, no send copy.
  rtm::Payload payload = comm_->make_payload(batch_reply_bytes(req.count));
  encode_batch_reply_header_into(payload.data(), req.seq, req.count);
  std::byte* counts = batch_reply_counts_at(payload.data());
  for (std::size_t i = 0; i < req.count; ++i) {
    const std::uint64_t id = req.id(i);
    const auto c = spectrum_->owned(req.kind, id);
    const std::int32_t count = c ? static_cast<std::int32_t>(*c) : -1;
    std::memcpy(counts + i * sizeof(count), &count, sizeof(count));
    if (!c) ++stats_.absent_replies;
  }
  comm_->send_payload(msg.source, req.reply_to, std::move(payload));
  ++stats_.batch_requests;
  stats_.batch_ids_served += req.count;
  ++stats_.requests_served;
}

void LookupService::handle(const rtm::Message& msg) {
  const char* span_name = msg.tag == kTagBatchRequest       ? "serve:batch"
                          : msg.tag == kTagUniversalRequest ? "serve:universal"
                          : msg.tag == kTagKmerRequest      ? "serve:kmer"
                                                            : "serve:tile";
  obs::SpanScope span("service", span_name);
  span.arg("source", static_cast<std::uint64_t>(msg.source));
  const std::int64_t handle_start = obs::Tracer::instance().now_ns();
  struct RecordLatency {
    obs::Histogram* hist;
    std::int64_t start;
    ~RecordLatency() {
      if (hist != nullptr) {
        const std::int64_t ns = obs::Tracer::instance().now_ns() - start;
        hist->record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns) / 1000);
      }
    }
  } record_latency{handle_hist_, handle_start};
  // Size-validate every request before trusting its bytes: the fault
  // injector can truncate payloads, and a malformed request must be
  // dropped unanswered (the requester's timeout retry recovers) rather
  // than decoded into garbage.
  if (msg.tag == kTagBatchRequest) {
    reply_batch(msg);
  } else if (msg.tag == kTagUniversalRequest) {
    if (msg.payload.size() != sizeof(UniversalLookupRequest)) {
      ++stats_.malformed_requests;
      return;
    }
    const auto req = msg.as_value<UniversalLookupRequest>();
    reply(msg.source, req.kind, req.id, req.reply_to, req.seq);
  } else {
    if (msg.payload.size() != sizeof(LookupRequest)) {
      ++stats_.malformed_requests;
      return;
    }
    const auto req = msg.as_value<LookupRequest>();
    const LookupKind kind =
        msg.tag == kTagKmerRequest ? LookupKind::kKmer : LookupKind::kTile;
    reply(msg.source, kind, req.id, req.reply_to, req.seq);
  }
}

void LookupService::serve() {
  // Register with rtm-check as this rank's communication thread: the
  // deadlock watchdog must distinguish "service idle-polling because no
  // request will ever come" from "rank making progress".
  rtm::check::RunChecker* check = comm_->world().checker();
  std::optional<rtm::check::ThreadScope> scope;
  if (check != nullptr) {
    scope.emplace(*check, comm_->rank(), rtm::check::ThreadRole::kService);
  }
  obs::Tracer::instance().set_thread(comm_->rank(), "comm");
  handle_hist_ = obs::Registry::global().histogram("reptile_service_handle_us",
                                                   comm_->rank());
  // Non-universal mode mirrors the paper's probe-then-receive protocol: the
  // thread probes for each request tag to learn the request kind before
  // receiving. Universal mode accepts any request message directly.
  while (true) {
    if (!universal_) {
      // MPI_Iprobe per request tag; counted so the performance model can
      // price the probe overhead universal mode removes.
      ++stats_.probe_calls;
      if (!comm_->iprobe(rtm::kAnySource, kTagKmerRequest)) {
        ++stats_.probe_calls;
        (void)comm_->iprobe(rtm::kAnySource, kTagTileRequest);
      }
    }
    std::optional<rtm::Message> msg;
    if (check == nullptr) {
      msg = comm_->recv(kRequestsOrStop);
    } else {
      // Checked runs wait in poll slices: an empty slice tells the deadlock
      // watchdog this thread only reacts to messages, and once the watchdog
      // aborts the run the service unwinds quietly — the blocked worker
      // threads carry the DeadlockError to run_ranks.
      while (!msg) {
        if (check->aborted()) return;
        msg = comm_->recv_for(kRequestsOrStop, check->poll_interval());
        if (!msg) check->thread_idle_poll();
      }
      check->thread_active();
    }
    if (msg->tag == kTagServiceStop) break;
    handle(*msg);
  }
  // Answer the requests still queued behind the stop (chaos duplicates and
  // retransmissions that arrived late; fault-free runs find none).
  while (auto msg = comm_->try_recv(kRequests)) handle(*msg);
  // Discard stall-delayed filter-exchange stragglers (chaos only: the
  // exchange itself finished — or timed out — before this service
  // started). They carry no reply obligation; leaving them queued would
  // only clutter the end-of-run audit.
  while (comm_->try_recv(rtm::kAnySource, kTagFilterExchange)) {
    ++stats_.filter_stragglers;
  }
}

void end_correction_phase(rtm::Comm& comm, bool stop_service) noexcept {
  comm.exit_barrier();
  if (stop_service) comm.post_self(kTagServiceStop);
}

}  // namespace reptile::parallel
