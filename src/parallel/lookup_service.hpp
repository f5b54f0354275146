#pragma once
// The communication thread: serves remote k-mer/tile count requests.
//
// Paper Step IV: "Each rank at the beginning of this step forks two separate
// threads — one thread is responsible for the error correction of the reads
// in its part of the file, while the other thread acts as a communication
// thread. ... The communication thread of each rank probes any incoming
// messages; based on the probe, it first finds out the nature of the request
// (if it is a k-mer or a tile lookup) ... and sends the appropriate
// response."
//
// Receiving: like the paper's MPI tag matching, the thread names its
// envelope (any source; the request tags and kTagServiceStop), so the
// mailbox wakes it only for a message it takes, never for a worker reply.
//
// Termination: each rank ends the phase with end_correction_phase(), one
// barrier and then a stop (kTagServiceStop) posted to its own mailbox. A
// worker only finishes once every reply it waited for has arrived, so after
// the barrier no rank owes another a reply. Until then the service blocks
// on its mailbox until a request or the stop arrives; no timer and no
// shared flag is involved. On the stop it answers whatever requests are
// still queued and returns.

#include <cstdint>

#include "obs/metrics.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/protocol.hpp"
#include "rtm/comm.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile::parallel {

/// Per-service counters, read after the thread is joined; the definition
/// lives in the unified report core (stats/phase_timeline.hpp).
using ServiceStats = stats::ServiceStats;

class LookupService {
 public:
  /// The service answers from `spectrum`'s owned tables; `comm` is the
  /// rank's communicator (shared with the worker thread — all mailbox
  /// operations are thread-safe, and the service touches no collectives).
  /// `universal` is the protocol the requesters of this phase speak (the
  /// job's effective flag, which a serve job may override): without it the
  /// service probes per request tag before each receive, as in the paper.
  LookupService(rtm::Comm& comm, const DistSpectrum& spectrum,
                bool universal);

  /// Answers requests until this rank's stop arrives, then drains the
  /// requests still queued and returns. Call on a dedicated thread. With
  /// rtm-check on it wakes every poll interval to report itself idle, and
  /// returns early once the checker aborts the run.
  void serve();

  const ServiceStats& stats() const noexcept { return stats_; }

 private:
  /// Services one request message; updates counters.
  void handle(const rtm::Message& msg);

  /// `seq` is echoed into the reply so the requester can match it to the
  /// (re)transmission it answers.
  void reply(int requester, LookupKind kind, std::uint64_t id, int reply_to,
             std::uint64_t seq);

  /// Answers a vectored request with a BatchReplyHeader-framed i32 count
  /// vector, aligned with the request's ID order (-1 = absent).
  void reply_batch(const rtm::Message& msg);

  rtm::Comm* comm_;
  const DistSpectrum* spectrum_;
  bool universal_;
  ServiceStats stats_;
  /// Handle-latency histogram, resolved once in serve() (nullptr when
  /// metrics are off; registry lookups lock a mutex, so never per message).
  obs::Histogram* handle_hist_ = nullptr;
};

/// Ends this rank's correction phase. Collective: a barrier (after which
/// every rank's workers are done, so no request is in flight), then, when
/// `stop_service` is set, the stop that ends this rank's serve() loop.
/// Never throws, because it runs from ScopedThreadGroup's before_join on
/// unwind too: under an rtm-check abort it skips (or abandons) the barrier
/// and still posts the stop, so the service can be joined.
void end_correction_phase(rtm::Comm& comm, bool stop_service) noexcept;

}  // namespace reptile::parallel
