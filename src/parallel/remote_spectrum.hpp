#pragma once
// SpectrumView over the distributed spectrum: the worker thread's lookup
// chain.
//
// Paper Step IV lookup strategy: "If a rank during error correction does not
// have a k-mer (or tile), it first finds out if it is the owning rank. In
// case the processing rank p is the owning rank, this implies that the k-mer
// or tile does not exist; in case the processing rank is not the owning
// rank, it looks up its readsKmer hash table (in case of the corresponding
// mode of execution). If the k-mer is not found, it sends a message to the
// owning rank, requesting the count."
//
// Chain, in order (first hit wins). K-mers and tiles walk the same chain;
// each link is one DistSpectrum accessor that takes the LookupKind:
//   1. replicated table        replica(kind, id) (allgather_* heuristics;
//                               never remote)
//   2. owned table             owned(kind, id), when this rank is the owner
//                               — a miss here is a definitive global absence
//   3. group table             group(kind, id) (partial replication, the
//                               paper's Section V future work: definitive
//                               for owners inside this rank's replication
//                               group)
//   4. reads table             reads(kind, id) (read_kmers heuristic; holds
//                               global counts)
//   5. peer filter             filter(kind, id, owner) (filter_lookups
//                               extension: the owner's exchanged membership
//                               filter, keyed by hash::owned_set_key;
//                               "definitely absent" is exact — the owner
//                               would reply -1 — and answers locally;
//                               "maybe" falls through and pays the wire)
//   6. chunk cache             (batch_lookups: counts of the chunk being
//                               corrected, fetched by the chunk
//                               wavefront's rounds; counts here are
//                               verbatim remote replies, so hits are exact)
//   7. remote request/reply    (blocking; reply -1 maps to count 0);
//      with add_remote the reply is cached into the reads table
//      (cache_remote(kind, id, count); add_remote runs with one worker,
//      so the shared table has a single writer).
//
// The scalar round trip and each wavefront batch wait for their reply in
// one loop (await_reply): per-attempt deadline, stale/malformed reply
// suppression, resend under the same seq, and abandonment after
// RetryPolicy::max_retries (DESIGN.md §4d).
//
// The chunk wavefront (correct_chunk) corrects a chunk in bulk-synchronous
// rounds. Round 0 fetches every remote gate tile of the chunk's reads. Each
// later round advances every unfinished read, in place, with the real
// TileCorrector against a private probe view: the probe answers from links
// 1-6, queues every ID only the owner knows, and reports that lookup
// degraded, which holds the read on its tile. Between rounds the queued IDs
// are sorted, deduplicated and sent as one vectored request per owner per
// kind; the replies fill the chunk cache. The probe counts the lookups of
// every tile decision it takes exactly as this view would, and drops those
// of a held one. When no read queues anything, every read is finished and
// its cursor holds the outcome: the chunk is corrected in one pass. An
// abandoned batch or a full cache ends the wavefront early; each
// unfinished read then continues from its held tile on this view, and the
// lookups left take the scalar path (DESIGN.md §4b). prefetch_chunk runs
// the same wavefront over copies of the bases and counts nothing, for
// callers that correct the chunk themselves afterwards.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "core/params.hpp"
#include "core/spectrum.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "parallel/chunk_cache.hpp"
#include "parallel/dist_spectrum.hpp"
#include "parallel/protocol.hpp"
#include "rtm/comm.hpp"
#include "seq/read.hpp"
#include "stats/phase_timeline.hpp"
#include "stats/stopwatch.hpp"

namespace reptile::parallel {

/// Remote-side counters for one rank's correction phase; the definition
/// lives in the unified report core (stats/phase_timeline.hpp).
using RemoteLookupStats = stats::RemoteLookupStats;

class RemoteSpectrumView final : public core::SpectrumView {
 public:
  /// `worker_slot` distinguishes concurrent correction worker threads of
  /// one rank: each slot's remote requests carry their own reply tag so
  /// replies route back to the right thread. Slot 0 is the single-threaded
  /// default. With add_remote the view writes scalar replies into the
  /// spectrum's shared reads tables, so validate_dist_config and
  /// JobOverrides::validate allow add_remote only with one worker.
  /// `retry` arms the timeout/retry protocol (see protocol.hpp); the
  /// default (disabled) blocks forever, exactly the paper's behaviour.
  /// `heur_override` substitutes the correction-phase heuristics
  /// (universal / batch_lookups / filter_lookups / add_remote) for the
  /// spectrum's build heuristics, and `params_override` the correction
  /// parameters the wavefront corrects with — the serve-mode per-job
  /// override seam; nullptr keeps the build values.
  RemoteSpectrumView(rtm::Comm& comm, DistSpectrum& spectrum,
                     int worker_slot = 0, RetryPolicy retry = {},
                     const Heuristics* heur_override = nullptr,
                     const core::CorrectorParams* params_override = nullptr);

  /// Corrects every read of `batch` in place and appends one
  /// ReadCorrection per read to `out`, with the corrector of the job's
  /// parameters. With batch_lookups and a remote owner this is the chunk
  /// wavefront (see the file comment); otherwise each read is corrected
  /// through this view. Either way the bases, the outcomes and every
  /// counter equal prefetch_chunk(batch) followed by correct() for each
  /// read (DESIGN.md §4b names the one add_remote exception).
  void correct_chunk(seq::ReadBatch& batch,
                     std::vector<core::ReadCorrection>& out);

  /// The chunk wavefront over copies of `batch`'s bases (batch_lookups
  /// heuristic; no-op otherwise): fills the chunk cache with every remote
  /// count the correction of `batch` will look up, and counts no lookup.
  /// The cache is cleared first and holds at most
  /// core::CorrectorParams::prefetch_capacity IDs. Call once per chunk,
  /// before correcting its reads with the same parameters.
  void prefetch_chunk(const seq::ReadBatch& batch);

  std::uint32_t kmer_count(seq::kmer_id_t id) override;
  std::uint32_t tile_count(seq::tile_id_t id) override;
  const core::LookupStats& stats() const override { return stats_; }

  /// Lookups that gave up after max_retries and returned a conservative 0.
  /// The corrector snapshots this around each tile decision and refuses to
  /// apply corrections whose evidence involved a degraded lookup.
  std::uint64_t degraded_lookups() const override {
    return remote_.degraded_lookups;
  }

  const RemoteLookupStats& remote_stats() const noexcept { return remote_; }

  /// Wall-clock time the worker spent blocked on remote replies — the
  /// paper's per-rank "communication time".
  double comm_seconds() const noexcept { return comm_wait_.seconds(); }

  /// Bytes held by the chunk cache and the wavefront's buffers (owner
  /// buckets, cursors and prefetch_chunk's copies of the reads' bases),
  /// all charged to the remote_cache ledger account.
  std::size_t memory_bytes() const noexcept {
    return cache_.memory_bytes() +
           static_cast<std::size_t>(wave_charge_.recorded());
  }

 private:
  class Probe;

  /// Which link of the lookup chain answers an ID without this view's
  /// wire: kRemote means only the owner can.
  enum class Link { kLocal, kGroup, kReadsTable, kFilter, kCache, kRemote };

  struct Resolution {
    Link link = Link::kLocal;
    std::uint32_t count = 0;
    int owner = 0;
    /// The peer filter let the ID through, so an absent reply is a filter
    /// false positive.
    bool filter_said_maybe = false;
  };

  /// Links 1-6 of the lookup chain for a canonical ID; counts nothing.
  Resolution resolve(std::uint64_t id, LookupKind kind) const;

  /// Adds `n` lookups answered by `link` to its tier counter in `remote`.
  static void add_tier(Link link, std::uint64_t n, RemoteLookupStats& remote);

  std::uint32_t lookup(std::uint64_t id, LookupKind kind);
  /// `filter_said_maybe` marks a lookup the peer filter let through, so an
  /// absent reply is counted as a filter false positive.
  std::uint32_t remote_lookup(int owner, std::uint64_t id, LookupKind kind,
                              bool filter_said_maybe = false);

  /// The queue of IDs bound for `owner` of `kind` in the current round.
  std::vector<std::uint64_t>& bucket(int owner, LookupKind kind) {
    return buckets_[static_cast<std::size_t>(
        (kind == LookupKind::kKmer ? 0 : comm_->size()) + owner)];
  }

  /// Waits for the reply to a request already sent to `owner` on reply
  /// `tag`: `accept` validates each candidate message (false = not ours,
  /// keep waiting). With retries armed, each expired attempt counts a
  /// lookup_timeouts and, while the retry budget lasts, bumps `retries` and
  /// calls `resend`. Returns false when the call is abandoned after
  /// max_retries; with retries disabled it blocks until accepted. Call
  /// inside a comm_wait_ interval: a checker abort stops it and rethrows.
  template <class Resend, class Accept>
  bool await_reply(int owner, int tag, std::uint64_t& retries,
                   const Resend& resend, const Accept& accept);

  /// Queues a remote-needing ID for the next round.
  void enqueue(const Resolution& r, std::uint64_t id, LookupKind kind);

  /// Clears the chunk cache (batch_lookups) and returns true when the chunk
  /// needs a wavefront: batch_lookups is on and some owner's tables are
  /// not local.
  bool start_chunk();

  /// Runs the wavefront over `batch`, advancing `bases_of(i)` in place of
  /// read i's bases (see the file comment). With `commit`, the lookups of
  /// every tile decision taken are counted. Leaves each read's cursor in
  /// cursors_ and the reads an early end left unfinished in active_.
  template <class BasesOf>
  void run_wavefront(const seq::ReadBatch& batch, const BasesOf& bases_of,
                     bool commit);

  /// One wavefront exchange: sorts and dedupes every bucket, sends each
  /// non-empty one as a vectored request, waits for every reply and files
  /// it in the chunk cache. Returns false when the wavefront must stop: a
  /// batch was abandoned after its retries or the cache reached
  /// prefetch_capacity.
  bool exchange_round();

  /// Re-charges the wavefront's buffers to the ledger.
  void charge_wavefront();

  /// Lazily resolved latency histogram (nullptr when metrics are off).
  /// Cached per view: registry lookups lock a mutex, which a per-lookup
  /// fetch would put on the hot path. Valid for the whole run — the
  /// registry only invalidates instruments between runs.
  obs::Histogram* latency_histogram(const char* name, obs::Histogram*& slot,
                                    bool& resolved);

  rtm::Comm* comm_;
  DistSpectrum* spectrum_;
  Heuristics heur_;
  /// The corrector the wavefront simulates: the job's, exactly.
  core::TileCorrector corrector_;
  int worker_slot_;
  RetryPolicy retry_;
  /// Per-view request sequence numbers; 0 is reserved for unsequenced
  /// traffic, so allocation starts at 1. Worker-private (no locking).
  std::uint64_t next_seq_ = 1;
  core::LookupStats stats_;
  RemoteLookupStats remote_;
  stats::Accumulator comm_wait_;

  obs::Histogram* rtt_hist_ = nullptr;
  bool rtt_hist_resolved_ = false;
  obs::Histogram* batch_hist_ = nullptr;
  bool batch_hist_resolved_ = false;

  ChunkCache cache_;

  // Wavefront buffers, reused across rounds and chunks.
  /// Per (kind, owner): the IDs queued this round.
  std::vector<std::vector<std::uint64_t>> buckets_;
  /// prefetch_chunk's copies of the chunk's bases, advanced by the probe.
  std::vector<std::string> wave_bases_;
  std::vector<core::TileCorrector::Cursor> cursors_;
  /// Indices of the reads still unfinished.
  std::vector<std::uint32_t> active_;
  std::vector<seq::tile_id_t> tile_scratch_;
  obs::LedgerCharge wave_charge_{obs::LedgerAccount::kRemoteCache};
};

}  // namespace reptile::parallel
