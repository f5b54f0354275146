#pragma once
// Reptile algorithm parameters.
//
// These mirror the knobs of the original Reptile configuration file (k-mer
// length, tile overlap, frequency thresholds, quality handling, chunk size)
// plus the correction-search limits that bound candidate enumeration.

#include <stdexcept>

namespace reptile::core {

struct CorrectorParams {
  /// k-mer length (bases). Tile length is 2k - tile_overlap <= 32.
  int k = 12;
  /// Bases shared by the two k-mers of a tile.
  int tile_overlap = 4;

  /// A k-mer is *solid* when its global count >= kmer_threshold; entries
  /// below the threshold are pruned from the spectrum (paper Step III).
  unsigned kmer_threshold = 3;
  /// Same for tiles.
  unsigned tile_threshold = 3;

  /// Build the spectra over canonical (strand-independent) IDs.
  bool canonical = false;

  /// Bases with Phred quality below this are preferred candidate error
  /// positions inside an untrusted tile.
  int qual_threshold = 20;
  /// When true (the original Reptile's behaviour), substitution candidates
  /// are restricted to positions with quality < qual_threshold; an
  /// untrusted tile whose bases are all high-quality is left alone. When
  /// false, the qual_threshold is only an ordering hint and the
  /// lowest-quality positions are searched regardless.
  bool restrict_to_low_quality = false;
  /// At most this many positions of a tile are considered for substitution
  /// (lowest quality first).
  int max_positions_per_tile = 4;
  /// Maximum Hamming distance explored per tile (1 = single substitutions,
  /// 2 = also pairs).
  int max_hamming = 2;
  /// A correction is applied only when the best candidate tile's count is
  /// at least this multiple of the runner-up's (Reptile's unambiguity
  /// requirement; ties are never corrected).
  double dominance_ratio = 2.0;
  /// Upper bound on substitutions applied to one read.
  int max_corrections_per_read = 8;

  /// Reads are streamed in chunks of this many reads (the paper's
  /// configuration-file chunk size).
  std::size_t chunk_size = 1024;

  /// Upper bound on entries held in a correction worker's chunk cache (the
  /// chunk wavefront of the batch_lookups heuristic). The cache is cleared
  /// at every chunk boundary; within a chunk at most this many IDs are
  /// fetched or cached from scalar replies, so correction-phase memory
  /// stays capped no matter the chunk contents. A chunk that needs more
  /// ends its wavefront early and looks the rest up one by one.
  std::size_t prefetch_capacity = std::size_t{1} << 20;

  /// Upper bound on entries the add_remote heuristic may append to the
  /// shared reads tables. Beyond it the oldest cached reply is evicted
  /// (FIFO), bounding the paper's unbounded 119 MB -> 199 MB growth.
  std::size_t remote_cache_capacity = std::size_t{1} << 20;

  int tile_length() const noexcept { return 2 * k - tile_overlap; }
  int tile_step() const noexcept { return k - tile_overlap; }

  /// Throws std::invalid_argument when the parameter set is inconsistent.
  void validate() const {
    if (k < 4 || k > 32) throw std::invalid_argument("k must be in [4, 32]");
    if (tile_overlap < 0 || tile_overlap >= k) {
      throw std::invalid_argument("tile_overlap must be in [0, k)");
    }
    if (tile_length() > 32) {
      throw std::invalid_argument("tile length 2k - overlap must be <= 32");
    }
    if (max_hamming < 1 || max_hamming > 2) {
      throw std::invalid_argument("max_hamming must be 1 or 2");
    }
    if (max_positions_per_tile < 1) {
      throw std::invalid_argument("max_positions_per_tile must be >= 1");
    }
    if (dominance_ratio < 1.0) {
      throw std::invalid_argument("dominance_ratio must be >= 1");
    }
    if (chunk_size == 0) throw std::invalid_argument("chunk_size must be > 0");
    if (prefetch_capacity == 0) {
      throw std::invalid_argument("prefetch_capacity must be > 0");
    }
    if (remote_cache_capacity == 0) {
      throw std::invalid_argument("remote_cache_capacity must be > 0");
    }
  }
};

}  // namespace reptile::core
