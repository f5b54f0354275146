#include "perfmodel/workload.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/corrector.hpp"
#include "core/spectrum.hpp"
#include "hash/hashing.hpp"
#include "hash/owner_filter.hpp"
#include "seq/error_model.hpp"

namespace reptile::perfmodel {

namespace {

/// SpectrumView decorator that reports every lookup (with the canonical ID
/// actually used for ownership) to a callback before answering from the
/// wrapped local spectrum.
class RecordingView final : public core::SpectrumView {
 public:
  enum class Kind { kKmer, kTile };
  using Callback = void (*)(void*, Kind, std::uint64_t);

  RecordingView(core::LocalSpectrum& base, void* ctx, Callback cb)
      : base_(&base), ctx_(ctx), cb_(cb) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    cb_(ctx_, Kind::kKmer, base_->canon_kmer(id));
    return base_->kmer_count(id);
  }
  std::uint32_t tile_count(seq::tile_id_t id) override {
    cb_(ctx_, Kind::kTile, base_->canon_tile(id));
    return base_->tile_count(id);
  }
  const core::LookupStats& stats() const override { return base_->stats(); }

 private:
  core::LocalSpectrum* base_;
  void* ctx_;
  Callback cb_;
};

struct MeasureContext {
  int np_ref = 0;
  int rank = 0;  ///< rank of the read currently being corrected
  const std::vector<std::unordered_set<std::uint64_t>>* rank_kmer_sets;
  const std::vector<std::unordered_set<std::uint64_t>>* rank_tile_sets;
  std::vector<std::unordered_set<std::uint64_t>>* seen_remote;  ///< per rank
  // Per-read accumulators.
  PerReadWork read_work;
  std::uint64_t remote_lookups = 0;
  std::uint64_t repeat_lookups = 0;

  void on_lookup(RecordingView::Kind kind, std::uint64_t id) {
    const bool is_kmer = kind == RecordingView::Kind::kKmer;
    if (is_kmer) {
      read_work.kmer_lookups += 1;
    } else {
      read_work.tile_lookups += 1;
    }
    const int owner = hash::owner_of(id, np_ref);
    if (owner == rank) return;
    const auto r = static_cast<std::size_t>(rank);
    const bool own_hit = is_kmer ? (*rank_kmer_sets)[r].contains(id)
                                 : (*rank_tile_sets)[r].contains(id);
    if (own_hit) {
      (is_kmer ? read_work.own_kmer_hits : read_work.own_tile_hits) += 1;
      return;  // resolved by the reads-table in read_kmers mode
    }
    ++remote_lookups;
    auto& seen = (*seen_remote)[r];
    // Key the two ID spaces apart (k-mer vs tile IDs can collide).
    const std::uint64_t key = hash::mix64(id) ^ (is_kmer ? 0 : 1);
    if (!seen.insert(key).second) ++repeat_lookups;
  }
};

void record_cb(void* ctx, RecordingView::Kind kind, std::uint64_t id) {
  static_cast<MeasureContext*>(ctx)->on_lookup(kind, id);
}

void accumulate(PerReadWork& into, const PerReadWork& w) {
  into.tile_checks += w.tile_checks;
  into.kmer_lookups += w.kmer_lookups;
  into.tile_lookups += w.tile_lookups;
  into.own_kmer_hits += w.own_kmer_hits;
  into.own_tile_hits += w.own_tile_hits;
  into.substitutions += w.substitutions;
}

PerReadWork divide(const PerReadWork& sum, std::uint64_t n) {
  if (n == 0) return {};
  const auto d = static_cast<double>(n);
  return {sum.tile_checks / d,   sum.kmer_lookups / d, sum.tile_lookups / d,
          sum.own_kmer_hits / d, sum.own_tile_hits / d,
          sum.substitutions / d};
}

}  // namespace

PerReadWork DatasetTraits::average() const {
  const std::uint64_t total = quiet_reads + burst_reads;
  if (total == 0) return {};
  const double wq = static_cast<double>(quiet_reads) / total;
  const double wb = static_cast<double>(burst_reads) / total;
  PerReadWork out;
  out.tile_checks = wq * quiet.tile_checks + wb * burst.tile_checks;
  out.kmer_lookups = wq * quiet.kmer_lookups + wb * burst.kmer_lookups;
  out.tile_lookups = wq * quiet.tile_lookups + wb * burst.tile_lookups;
  out.own_kmer_hits = wq * quiet.own_kmer_hits + wb * burst.own_kmer_hits;
  out.own_tile_hits = wq * quiet.own_tile_hits + wb * burst.own_tile_hits;
  out.substitutions = wq * quiet.substitutions + wb * burst.substitutions;
  return out;
}

DatasetTraits measure_traits(const seq::SyntheticDataset& ds,
                             const core::CorrectorParams& params,
                             const seq::ErrorModelParams& errors,
                             int np_ref) {
  DatasetTraits traits;
  traits.measured_spec = ds.spec;
  traits.params = params;
  traits.burst_fraction = errors.burst_fraction;
  traits.burst_regions = errors.burst_regions;

  // --- construction census -------------------------------------------------
  core::LocalSpectrum spectrum(params);
  for (const auto& r : ds.reads) spectrum.add_read(r.bases);
  // Count kept vs dropped (kept = survives the threshold).
  std::uint64_t kept_k = 0, kept_t = 0;
  spectrum.kmers().for_each([&](std::uint64_t, std::uint32_t c) {
    if (c >= params.kmer_threshold) ++kept_k;
  });
  spectrum.tiles().for_each([&](std::uint64_t, std::uint32_t c) {
    if (c >= params.tile_threshold) ++kept_t;
  });
  traits.kept_kmers = kept_k;
  traits.dropped_kmers = spectrum.kmer_entries() - kept_k;
  traits.kept_tiles = kept_t;
  traits.dropped_tiles = spectrum.tile_entries() - kept_t;
  spectrum.prune();

  const seq::TileCodec tc(params.k, params.tile_overlap);
  const int read_len = ds.spec.read_length;
  traits.kmers_per_read = std::max(0, read_len - params.k + 1);
  traits.tiles_per_read = static_cast<double>(tc.tile_count(read_len));

  // --- per-rank reads-table membership sets (np_ref attribution) ----------
  const auto n = ds.reads.size();
  std::vector<std::unordered_set<std::uint64_t>> kmer_sets(
      static_cast<std::size_t>(np_ref));
  std::vector<std::unordered_set<std::uint64_t>> tile_sets(
      static_cast<std::size_t>(np_ref));
  core::SpectrumExtractor extractor(params);
  {
    std::vector<seq::kmer_id_t> kmers;
    std::vector<seq::tile_id_t> tiles;
    for (std::size_t i = 0; i < n; ++i) {
      const auto rank = static_cast<std::size_t>(
          i * static_cast<std::size_t>(np_ref) / n);
      kmers.clear();
      tiles.clear();
      extractor.extract(ds.reads[i].bases, kmers, tiles);
      kmer_sets[rank].insert(kmers.begin(), kmers.end());
      tile_sets[rank].insert(tiles.begin(), tiles.end());
    }
  }

  // --- instrumented correction pass ---------------------------------------
  const seq::IlluminaErrorModel burst_model(errors, ds.spec.n_reads);
  std::vector<std::unordered_set<std::uint64_t>> seen_remote(
      static_cast<std::size_t>(np_ref));
  MeasureContext ctx;
  ctx.np_ref = np_ref;
  ctx.rank_kmer_sets = &kmer_sets;
  ctx.rank_tile_sets = &tile_sets;
  ctx.seen_remote = &seen_remote;
  RecordingView view(spectrum, &ctx, &record_cb);
  core::TileCorrector corrector(params);

  PerReadWork quiet_sum, burst_sum;
  std::uint64_t total_remote = 0, total_repeats = 0;
  const double tile_positions_per_read = traits.tiles_per_read;
  for (std::size_t i = 0; i < n; ++i) {
    ctx.rank = static_cast<int>(i * static_cast<std::size_t>(np_ref) / n);
    ctx.read_work = {};
    ctx.read_work.tile_checks = tile_positions_per_read;
    ctx.remote_lookups = 0;
    ctx.repeat_lookups = 0;
    seq::Read copy = ds.reads[i];
    const auto rc = corrector.correct(copy, view);
    ctx.read_work.substitutions = rc.substitutions;
    if (burst_model.in_burst(i)) {
      accumulate(burst_sum, ctx.read_work);
      ++traits.burst_reads;
    } else {
      accumulate(quiet_sum, ctx.read_work);
      ++traits.quiet_reads;
    }
    total_remote += ctx.remote_lookups;
    total_repeats += ctx.repeat_lookups;
  }
  traits.quiet = divide(quiet_sum, traits.quiet_reads);
  traits.burst = divide(burst_sum, traits.burst_reads);
  traits.repeat_remote_fraction =
      total_remote == 0 ? 0
                        : static_cast<double>(total_repeats) /
                              static_cast<double>(total_remote);
  return traits;
}

std::uint64_t count_burst_reads(std::uint64_t begin, std::uint64_t end,
                                std::uint64_t total, double burst_fraction,
                                int burst_regions) {
  if (burst_fraction <= 0 || burst_regions <= 0 || total == 0 || begin >= end) {
    return 0;
  }
  const std::uint64_t period =
      std::max<std::uint64_t>(1, total / static_cast<std::uint64_t>(burst_regions));
  const auto span = static_cast<std::uint64_t>(
      static_cast<double>(period) * burst_fraction);
  if (span == 0) return 0;
  // Count i in [begin, end) with (i % period) < span.
  auto cumulative = [&](std::uint64_t x) {
    const std::uint64_t full = x / period;
    const std::uint64_t rem = x % period;
    return full * span + std::min(rem, span);
  };
  return cumulative(end) - cumulative(begin);
}

double modeled_filter_bytes(double kept_entries, int np, int group,
                            double filter_fp_rate) {
  const int peers = np - std::min(std::max(1, group), np);
  if (peers <= 0) return 0;
  // The cap gives each owner's filter its table bytes / peers, i.e.
  // kFrozenTableBytesPerEntry / peers bytes per key.
  const double capped_rate = hash::OwnerFilter::fp_rate_at(
      kFrozenTableBytesPerEntry * 8.0 / peers);
  if (capped_rate >= parallel::kMaxFilterFpRate) return 0;
  const double owned_entries = kept_entries / np;
  const double sized = owned_entries * peers *
                       hash::OwnerFilter::bits_per_key(filter_fp_rate) / 8.0;
  return std::min(sized, owned_entries * kFrozenTableBytesPerEntry);
}

std::vector<RankWorkload> synthesize_workload(
    const DatasetTraits& traits, const seq::DatasetSpec& full, int np,
    int ranks_per_node, const parallel::Heuristics& heur) {
  std::vector<RankWorkload> ranks(static_cast<std::size_t>(np));
  const std::uint64_t n = full.n_reads;
  // Lookups leave the rank when the owner is neither self nor (with partial
  // replication) a member of the rank's replication group.
  const int group = std::min(std::max(1, heur.partial_replication_group), np);
  const double remote_factor =
      np > 1 ? static_cast<double>(np - group) / static_cast<double>(np) : 0.0;
  // Step II/III ownership is unaffected by replication: every non-owned
  // extraction is still exchanged to its owner.
  const double exchange_factor =
      np > 1 ? static_cast<double>(np - 1) / static_cast<double>(np) : 0.0;
  // Of the remaining remote owners, those on the same node (but outside the
  // replication group) use the shared-memory transport.
  const int local_peers =
      std::max(0, std::min(ranks_per_node, np) - group);
  const double intra_share =
      np > group ? static_cast<double>(local_peers) /
                       static_cast<double>(np - group)
                 : 0.0;

  // Full-scale spectrum census: kept entries scale with the genome, dropped
  // (error-noise) entries scale with the read count.
  const double genome_ratio = static_cast<double>(full.genome_size) /
                              static_cast<double>(traits.measured_spec.genome_size);
  const double reads_ratio = static_cast<double>(full.n_reads) /
                             static_cast<double>(traits.measured_spec.n_reads);
  const double kept_full =
      static_cast<double>(traits.kept_kmers + traits.kept_tiles) * genome_ratio;
  const double dropped_full =
      static_cast<double>(traits.dropped_kmers + traits.dropped_tiles) *
      reads_ratio;

  // Global burst share (for the balanced mode's per-rank mix).
  const std::uint64_t total_burst = count_burst_reads(
      0, n, n, traits.burst_fraction, traits.burst_regions);

  double total_remote = 0;
  for (int r = 0; r < np; ++r) {
    RankWorkload& w = ranks[static_cast<std::size_t>(r)];
    const std::uint64_t begin =
        n * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(np);
    const std::uint64_t end =
        n * static_cast<std::uint64_t>(r + 1) / static_cast<std::uint64_t>(np);
    w.reads = end - begin;
    if (heur.load_balance) {
      // Hashing spreads burst reads uniformly: every rank gets the global
      // burst share.
      w.burst_reads = static_cast<std::uint64_t>(
          static_cast<double>(w.reads) * static_cast<double>(total_burst) /
          static_cast<double>(n));
    } else {
      w.burst_reads = count_burst_reads(begin, end, n, traits.burst_fraction,
                                        traits.burst_regions);
    }
    const auto quiet_reads = static_cast<double>(w.reads - w.burst_reads);
    const auto burst_reads = static_cast<double>(w.burst_reads);

    w.kmer_lookups = quiet_reads * traits.quiet.kmer_lookups +
                     burst_reads * traits.burst.kmer_lookups;
    w.tile_lookups = quiet_reads * traits.quiet.tile_lookups +
                     burst_reads * traits.burst.tile_lookups;
    w.substitutions = quiet_reads * traits.quiet.substitutions +
                      burst_reads * traits.burst.substitutions;

    double remote_k = w.kmer_lookups * remote_factor;
    double remote_t = w.tile_lookups * remote_factor;
    if (heur.read_kmers) {
      remote_k -= (quiet_reads * traits.quiet.own_kmer_hits +
                   burst_reads * traits.burst.own_kmer_hits);
      remote_t -= (quiet_reads * traits.quiet.own_tile_hits +
                   burst_reads * traits.burst.own_tile_hits);
      remote_k = std::max(0.0, remote_k);
      remote_t = std::max(0.0, remote_t);
    }
    if (heur.add_remote) {
      remote_k *= 1.0 - traits.repeat_remote_fraction;
      remote_t *= 1.0 - traits.repeat_remote_fraction;
    }
    if (heur.allgather_kmers) remote_k = 0;
    if (heur.allgather_tiles) remote_t = 0;
    w.remote_kmer_lookups = remote_k;
    w.remote_tile_lookups = remote_t;
    w.remote_intra = (remote_k + remote_t) * intra_share;
    w.remote_inter = (remote_k + remote_t) * (1.0 - intra_share);
    total_remote += remote_k + remote_t;

    // Construction counters.
    w.extract_items = static_cast<double>(w.reads) *
                      (traits.kmers_per_read + traits.tiles_per_read);
    w.exchange_bytes = w.extract_items * exchange_factor * 12.0;

    w.owned_entries = kept_full / np;
    w.spectrum_bytes = w.owned_entries * kFrozenTableBytesPerEntry;
    if (group > 1) {
      // Partial replication: the rank also holds its group's shards.
      w.replica_bytes += w.owned_entries * kFrozenTableBytesPerEntry * group;
    }
    if (heur.allgather_kmers) {
      w.replica_bytes += static_cast<double>(traits.kept_kmers) *
                         genome_ratio * kFrozenTableBytesPerEntry;
    }
    if (heur.allgather_tiles) {
      w.replica_bytes += static_cast<double>(traits.kept_tiles) *
                         genome_ratio * kFrozenTableBytesPerEntry;
    }
    if (heur.filter_lookups) {
      // One filter per out-of-group owner and kind, for the kinds that
      // still go remote.
      for (const auto& [kind, kept] :
           {std::pair{parallel::LookupKind::kKmer, traits.kept_kmers},
            std::pair{parallel::LookupKind::kTile, traits.kept_tiles}}) {
        if (heur.allgather(kind)) continue;
        w.filter_bytes += modeled_filter_bytes(
            static_cast<double>(kept) * genome_ratio, np, group,
            heur.filter_fp_rate);
      }
    }
    if (heur.read_kmers) {
      // The rank's reads tables hold its (mostly distinct) non-owned IDs.
      const double distinct_cap = (kept_full + dropped_full);
      w.reads_table_bytes =
          std::min(w.extract_items * exchange_factor, distinct_cap) *
          kFrozenTableBytesPerEntry;
      if (heur.add_remote) {
        // Cached replies, absences included.
        w.reads_table_bytes += (remote_k + remote_t) *
                               (1.0 - traits.repeat_remote_fraction) *
                               kFrozenTableBytesPerEntry * 0.5;
      }
    }

    // Construction peak: owned tables before pruning plus the pending
    // (reads) tables; batch mode caps pending at one chunk. Bloom-filter
    // construction keeps pre-prune singletons out of the exact tables at
    // the cost of the filter bits.
    double preprune_owned =
        (kept_full + dropped_full) / np * kGrowingTableBytesPerEntry;
    if (heur.bloom_construction) {
      // Exact tables hold only the kept entries; every distinct ID costs
      // ~9.5 filter bits (DistSpectrum::owner_add's sizing) instead.
      const double bloom_bytes = (kept_full + dropped_full) / np * 1.2;
      preprune_owned =
          kept_full / np * kGrowingTableBytesPerEntry + bloom_bytes;
    }
    const double pending_items =
        heur.batch_reads
            ? static_cast<double>(std::min<std::uint64_t>(
                  traits.params.chunk_size, w.reads)) *
                  (traits.kmers_per_read + traits.tiles_per_read) *
                  exchange_factor
            : w.extract_items * exchange_factor;
    w.construction_peak_bytes =
        preprune_owned + pending_items * kGrowingTableBytesPerEntry;
  }

  // Service load: owners are uniform, so each rank answers 1/np of all
  // remote lookups.
  for (auto& w : ranks) {
    w.requests_served = total_remote / np;
  }
  return ranks;
}

RankWorkload workload_from_report(const stats::PhaseTimeline& report) {
  RankWorkload w;
  w.reads = report.reads_processed;
  w.kmer_lookups = static_cast<double>(report.lookups.kmer_lookups);
  w.tile_lookups = static_cast<double>(report.lookups.tile_lookups);
  w.remote_kmer_lookups =
      static_cast<double>(report.remote.remote_kmer_lookups);
  w.remote_tile_lookups =
      static_cast<double>(report.remote.remote_tile_lookups);
  w.requests_served = static_cast<double>(report.service.requests_served);
  w.substitutions = static_cast<double>(report.substitutions);
  const auto& fp = report.footprint_after_construction;
  w.owned_entries =
      static_cast<double>(fp.hash_kmer_entries + fp.hash_tile_entries);
  w.spectrum_bytes = static_cast<double>(fp.bytes);
  w.construction_peak_bytes =
      static_cast<double>(report.construction_peak_bytes);
  return w;
}

}  // namespace reptile::perfmodel
