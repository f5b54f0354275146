#pragma once
// The k-mer + tile spectrum: construction and the lookup interface the
// corrector is written against.
//
// SpectrumView is the seam between Reptile's per-read correction logic and
// where the spectrum physically lives: LocalSpectrum answers from in-memory
// tables (the sequential baseline and the fully replicated "allgather both"
// heuristic), while parallel::RemoteSpectrumView (src/parallel) answers via
// the owned-table / reads-table / remote-request chain of the paper.

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "hash/count_table.hpp"
#include "seq/kmer.hpp"
#include "seq/read.hpp"
#include "seq/tile.hpp"
#include "stats/phase_timeline.hpp"

namespace reptile::core {

/// Lookup-side instrumentation; the definition lives in the unified report
/// core (stats/phase_timeline.hpp), re-exported under its historical name.
using LookupStats = stats::LookupStats;

/// Count-lookup interface over the two spectra. A count of 0 means the ID
/// is not in the (pruned) spectrum.
class SpectrumView {
 public:
  virtual ~SpectrumView() = default;

  /// Global count of the k-mer, 0 when absent.
  virtual std::uint32_t kmer_count(seq::kmer_id_t id) = 0;

  /// Global count of the tile, 0 when absent.
  virtual std::uint32_t tile_count(seq::tile_id_t id) = 0;

  /// Lookup counters accumulated so far.
  virtual const LookupStats& stats() const = 0;

  /// Monotone count of lookups that could NOT be resolved and returned a
  /// conservative 0 instead (remote views giving up after timeout retries,
  /// see parallel::RetryPolicy). Local views never degrade. The corrector
  /// snapshots this around every tile decision: a position whose evidence
  /// involved a degraded lookup is skipped, never corrected on a guess.
  virtual std::uint64_t degraded_lookups() const { return 0; }

  /// Called by TileCorrector::advance before the gate lookup of each tile
  /// decision, so a view can tell which lookups belong to which decision
  /// (the chunk wavefront counts only the decisions it takes). No-op by
  /// default.
  virtual void begin_tile_decision() {}
};

/// Both spectra in local memory, with construction helpers.
class LocalSpectrum final : public SpectrumView {
 public:
  explicit LocalSpectrum(const CorrectorParams& params);

  /// Adopts finished tables (a loaded checkpoint). IDs must already be
  /// canonicalized consistently with `params`.
  LocalSpectrum(const CorrectorParams& params, hash::CountTable<> kmers,
                hash::CountTable<> tiles);

  /// Adds every k-mer and tile of `bases` to the spectra (Step II of the
  /// paper, without the ownership split).
  void add_read(std::string_view bases);

  /// Drops entries below the thresholds (Step III pruning). Returns the
  /// number of entries removed.
  std::size_t prune();

  std::uint32_t kmer_count(seq::kmer_id_t id) override;
  std::uint32_t tile_count(seq::tile_id_t id) override;
  const LookupStats& stats() const override { return stats_; }

  std::size_t kmer_entries() const noexcept { return kmers_.size(); }
  std::size_t tile_entries() const noexcept { return tiles_.size(); }
  std::size_t memory_bytes() const noexcept {
    return kmers_.memory_bytes() + tiles_.memory_bytes();
  }

  const hash::CountTable<>& kmers() const noexcept { return kmers_; }
  const hash::CountTable<>& tiles() const noexcept { return tiles_; }

  /// Canonicalizes an ID exactly as construction did (identity when the
  /// canonical option is off). Exposed so distributed lookups canonicalize
  /// before computing the owning rank.
  seq::kmer_id_t canon_kmer(seq::kmer_id_t id) const;
  seq::tile_id_t canon_tile(seq::tile_id_t id) const;

 private:
  CorrectorParams params_;
  seq::KmerCodec kmer_codec_;
  seq::TileCodec tile_codec_;
  hash::CountTable<> kmers_;
  hash::CountTable<> tiles_;
  LookupStats stats_;
  // Scratch buffers reused across add_read calls.
  std::vector<seq::kmer_id_t> kmer_scratch_;
  std::vector<seq::tile_id_t> tile_scratch_;
};

/// Extracts the (optionally canonical) k-mer and tile IDs of one read;
/// shared by LocalSpectrum and the distributed builder.
class SpectrumExtractor {
 public:
  explicit SpectrumExtractor(const CorrectorParams& params);

  /// Appends the read's k-mer IDs to `kmers` and tile IDs to `tiles`.
  void extract(std::string_view bases, std::vector<seq::kmer_id_t>& kmers,
               std::vector<seq::tile_id_t>& tiles) const;

  const seq::KmerCodec& kmer_codec() const noexcept { return kmer_codec_; }
  const seq::TileCodec& tile_codec() const noexcept { return tile_codec_; }
  bool canonical() const noexcept { return canonical_; }

  seq::kmer_id_t canon_kmer(seq::kmer_id_t id) const {
    return canonical_ ? kmer_codec_.canonical(id) : id;
  }
  seq::tile_id_t canon_tile(seq::tile_id_t id) const {
    return canonical_ ? tile_codec_.as_kmer_codec().canonical(id) : id;
  }

 private:
  seq::KmerCodec kmer_codec_;
  seq::TileCodec tile_codec_;
  bool canonical_;
};

}  // namespace reptile::core
