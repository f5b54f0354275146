#include "core/corrector.hpp"

#include <algorithm>
#include <cassert>

namespace reptile::core {

TileCorrector::TileCorrector(const CorrectorParams& params)
    : params_(params), tile_codec_(params.k, params.tile_overlap) {
  params_.validate();
}

int pick_positions(std::span<const seq::qual_t> tile_quals,
                   const CorrectorParams& params, TilePositions& out) {
  const int tlen = static_cast<int>(tile_quals.size());
  assert(tlen <= kMaxTileLength);
  const int limit = std::min(params.max_positions_per_tile, tlen);
  const auto qual = [&](int off) {
    return static_cast<int>(tile_quals[static_cast<std::size_t>(off)]);
  };
  int n = 0;
  for (int off = 0; off < tlen; ++off) {
    const int q = qual(off);
    // Original Reptile: only low-quality bases are suspected.
    if (params.restrict_to_low_quality && q >= params.qual_threshold) continue;
    // Offsets arrive in increasing order, so an equal quality sorts after
    // every kept offset: a full list only takes a strictly lower one.
    if (n == limit && q >= qual(out[static_cast<std::size_t>(n - 1)])) continue;
    int j = n < limit ? n++ : n - 1;
    for (; j > 0 && qual(out[static_cast<std::size_t>(j - 1)]) > q; --j) {
      out[static_cast<std::size_t>(j)] = out[static_cast<std::size_t>(j - 1)];
    }
    out[static_cast<std::size_t>(j)] = off;
  }
  return n;
}

bool TileCorrector::acceptable(seq::tile_id_t tile, SpectrumView& spectrum,
                               std::uint32_t& count) const {
  count = spectrum.tile_count(tile);
  if (count < params_.tile_threshold) return false;
  // Tile passed; require solid constituent k-mers as well (Reptile uses
  // both spectra — this is where the k-mer lookup traffic comes from).
  const seq::kmer_id_t first = tile_codec_.first_kmer(tile);
  if (spectrum.kmer_count(first) < params_.kmer_threshold) return false;
  const seq::kmer_id_t second = tile_codec_.second_kmer(tile);
  return spectrum.kmer_count(second) >= params_.kmer_threshold;
}

int TileCorrector::try_fix_tile(std::string& bases,
                                std::span<const seq::qual_t> quals,
                                int tile_pos,
                                seq::tile_id_t tile, SpectrumView& spectrum,
                                std::uint64_t degraded_before) const {
  TilePositions picked{};
  const int npicked = pick_positions(
      quals.subspan(static_cast<std::size_t>(tile_pos),
                    static_cast<std::size_t>(tile_codec_.tile_len())),
      params_, picked);
  const std::span<const int> positions(picked.data(),
                                       static_cast<std::size_t>(npicked));

  Candidate best;
  std::uint32_t second_best = 0;
  auto consider = [&](const Candidate& c) {
    if (c.count > best.count ||
        (c.count == best.count && c.tile < best.tile)) {
      if (best.count != 0) second_best = std::max(second_best, best.count);
      best = c;
    } else {
      second_best = std::max(second_best, c.count);
    }
  };

  auto evaluate = [&](Candidate c) {
    if (acceptable(c.tile, spectrum, c.count)) consider(c);
  };

  // Hamming distance 1: one substitution at one chosen position.
  for (int off : positions) {
    const seq::base_t current = tile_codec_.base_at(tile, off);
    for (seq::base_t b = 0; b < seq::kAlphabetSize; ++b) {
      if (b == current) continue;
      evaluate({tile_codec_.substitute(tile, off, b), 0, off, b, -1, 0});
    }
  }

  // A degraded gate or Hamming-1 lookup already decides the outcome (no
  // substitution, see the guard below), so the Hamming-2 search is skipped.
  if (spectrum.degraded_lookups() != degraded_before) return 0;

  // Hamming distance 2 only when no single substitution was acceptable.
  if (best.count == 0 && params_.max_hamming >= 2) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      for (std::size_t j = i + 1; j < positions.size(); ++j) {
        const int o1 = std::min(positions[i], positions[j]);
        const int o2 = std::max(positions[i], positions[j]);
        const seq::base_t c1 = tile_codec_.base_at(tile, o1);
        const seq::base_t c2 = tile_codec_.base_at(tile, o2);
        for (seq::base_t b1 = 0; b1 < seq::kAlphabetSize; ++b1) {
          if (b1 == c1) continue;
          const seq::tile_id_t partial = tile_codec_.substitute(tile, o1, b1);
          for (seq::base_t b2 = 0; b2 < seq::kAlphabetSize; ++b2) {
            if (b2 == c2) continue;
            evaluate({tile_codec_.substitute(partial, o2, b2), 0, o1, b1, o2,
                      b2});
          }
        }
      }
    }
  }

  if (best.count == 0) return 0;
  // Unambiguity: the winner must dominate every other acceptable candidate.
  if (second_best != 0 &&
      static_cast<double>(best.count) <
          params_.dominance_ratio * static_cast<double>(second_best)) {
    return 0;
  }
  // Degradation guard: if any lookup since the tile's gate check gave up
  // and returned a conservative 0 (remote timeout after max retries), the
  // candidate comparison above may have missed evidence. Never correct on
  // possibly-incomplete evidence — skip the tile instead.
  if (spectrum.degraded_lookups() != degraded_before) return 0;

  int applied = 0;
  bases[static_cast<std::size_t>(tile_pos + best.off1)] =
      seq::char_from_base(best.base1);
  ++applied;
  if (best.off2 >= 0) {
    bases[static_cast<std::size_t>(tile_pos + best.off2)] =
        seq::char_from_base(best.base2);
    ++applied;
  }
  return applied;
}

bool TileCorrector::advance(std::string& bases,
                            std::span<const seq::qual_t> quals, Cursor& cursor,
                            SpectrumView& spectrum, bool hold_degraded) const {
  assert(quals.size() == bases.size());
  const seq::KmerCodec& tc = tile_codec_.as_kmer_codec();
  ReadCorrection& result = cursor.result;
  for (;; ++cursor.tile) {
    const int pos =
        tile_codec_.tile_position(static_cast<int>(bases.size()), cursor.tile);
    if (pos < 0 || result.substitutions >= params_.max_corrections_per_read) {
      return true;
    }
    const seq::tile_id_t tile =
        tc.pack(std::string_view(bases).substr(static_cast<std::size_t>(pos)));
    spectrum.begin_tile_decision();
    // Snapshot the degradation counter BEFORE the gate lookup: a degraded
    // gate can make a trusted tile look untrusted, so the whole decision
    // (gate + candidate evaluation) must be covered by the guard.
    const std::uint64_t degraded_before = spectrum.degraded_lookups();
    if (spectrum.tile_count(tile) >= params_.tile_threshold) continue;
    const int applied =
        spectrum.degraded_lookups() != degraded_before
            ? 0
            : try_fix_tile(bases, quals, pos, tile, spectrum, degraded_before);
    const bool degraded = spectrum.degraded_lookups() != degraded_before;
    // A degraded decision never changes the read, so holding it leaves
    // nothing to undo.
    if (degraded && hold_degraded) return false;
    ++result.tiles_untrusted;
    if (applied > 0) {
      result.substitutions += applied;
      ++result.tiles_fixed;
    } else if (degraded) {
      ++result.tiles_degraded;
    }
  }
}

ReadCorrection TileCorrector::correct(seq::Read& read,
                                      SpectrumView& spectrum) const {
  Cursor cursor;
  advance(read.bases, read.quals, cursor, spectrum, /*hold_degraded=*/false);
  return cursor.result;
}

}  // namespace reptile::core
