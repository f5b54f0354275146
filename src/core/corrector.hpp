#pragma once
// Reptile's per-read tile-based substitution corrector.
//
// Reptile "corrects tiles instead of k-mers. Since a tile has almost twice
// the character count as the k-mer, error correction at the tile level has
// far fewer candidates than at the k-mer level" (paper Section II-A). The
// corrector walks a read's tiles left to right; an *untrusted* tile (count
// below threshold) triggers candidate enumeration: substitutions at the
// tile's lowest-quality positions, up to Hamming distance max_hamming. A
// candidate is acceptable when the substituted tile is in the tile spectrum
// above threshold AND both of its constituent k-mers are solid; the best
// candidate is applied only when it dominates the runner-up (unambiguity).
//
// Corrections are applied to the read in place, so later tiles see earlier
// fixes — the second k-mer of tile i is the first k-mer of tile i+1, which
// is how tile-chain consistency propagates along the read.
//
// All tie-breaks are deterministic (count desc, then tile ID asc), so the
// sequential baseline and every distributed configuration produce
// bit-identical corrected reads — the property the integration tests pin.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/spectrum.hpp"
#include "seq/read.hpp"

namespace reptile::core {

/// Outcome of correcting one read.
struct ReadCorrection {
  int substitutions = 0;    ///< bases changed
  int tiles_untrusted = 0;  ///< tiles found below threshold
  int tiles_fixed = 0;      ///< untrusted tiles resolved by a correction
  /// Tiles left unmodified because a lookup backing the decision degraded
  /// (SpectrumView::degraded_lookups advanced): with evidence possibly
  /// missing, the corrector skips the tile rather than risk a miscorrection.
  int tiles_degraded = 0;

  bool changed() const noexcept { return substitutions > 0; }
};

class TileCorrector {
 public:
  explicit TileCorrector(const CorrectorParams& params);

  const CorrectorParams& params() const noexcept { return params_; }
  const seq::TileCodec& tile_codec() const noexcept { return tile_codec_; }

  /// A read part-way through correction: the index of the next tile to
  /// decide and the outcome of the tiles decided so far.
  struct Cursor {
    std::size_t tile = 0;
    ReadCorrection result;
  };

  /// Decides the tiles of a read (`bases`, corrected in place, and its
  /// `quals`) from `cursor` on. Returns true once the read is finished.
  /// With `hold_degraded`, a tile decision that saw a degraded lookup is
  /// not taken: the bases and the cursor stay on that tile and advance()
  /// returns false, so a caller that can fill in the missing evidence
  /// decides the tile again later (the chunk wavefront of
  /// parallel::RemoteSpectrumView). Without it the tile is counted
  /// degraded and left as it is.
  bool advance(std::string& bases, std::span<const seq::qual_t> quals,
               Cursor& cursor, SpectrumView& spectrum,
               bool hold_degraded) const;

  /// Corrects `read` in place against `spectrum`: a cursor advanced to the
  /// end. The read's qualities are left untouched (Reptile emits corrected
  /// bases only).
  ReadCorrection correct(seq::Read& read, SpectrumView& spectrum) const;

 private:
  /// One enumeration candidate that passed acceptance.
  struct Candidate {
    seq::tile_id_t tile = 0;
    std::uint32_t count = 0;
    // Up to two substitutions (offset within tile, new base code).
    int off1 = -1;
    seq::base_t base1 = 0;
    int off2 = -1;
    seq::base_t base2 = 0;
  };

  /// Attempts to fix the untrusted tile `tile` at read offset `tile_pos`.
  /// On success applies the substitutions to `bases` and returns the number
  /// of bases changed (0 = no unambiguous fix found). `degraded_before` is
  /// the spectrum's degraded_lookups() value from before the tile's gate
  /// lookup: if any lookup degraded since then, the candidate evidence is
  /// unreliable and no substitution is applied. The outcome is then already
  /// known, so the search stops after the Hamming-1 phase.
  int try_fix_tile(std::string& bases, std::span<const seq::qual_t> quals,
                   int tile_pos, seq::tile_id_t tile, SpectrumView& spectrum,
                   std::uint64_t degraded_before) const;

  /// True when `tile` is supported: tile count above threshold and both
  /// constituent k-mers solid. Returns the tile count through `count`.
  bool acceptable(seq::tile_id_t tile, SpectrumView& spectrum,
                  std::uint32_t& count) const;

  /// Selects up to max_positions_per_tile tile offsets, lowest quality
  /// first (ties by offset).
  void pick_positions(std::span<const seq::qual_t> quals, int tile_pos,
                      std::vector<int>& out) const;

  CorrectorParams params_;
  seq::TileCodec tile_codec_;
};

}  // namespace reptile::core
