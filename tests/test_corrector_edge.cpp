// Edge-case tests for the tile corrector: boundary geometries, parameter
// extremes, adversarial inputs, degraded evidence, and the resumable
// cursor the chunk wavefront drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "seq/dataset.hpp"

namespace reptile::core {
namespace {

CorrectorParams tiny() {
  CorrectorParams p;
  p.k = 6;
  p.tile_overlap = 2;  // tile length 10
  p.kmer_threshold = 3;
  p.tile_threshold = 3;
  return p;
}

LocalSpectrum spectrum_of(const CorrectorParams& p, const std::string& truth,
                          int copies) {
  LocalSpectrum s(p);
  for (int i = 0; i < copies; ++i) s.add_read(truth);
  s.prune();
  return s;
}

seq::Read read_of(const std::string& bases, seq::qual_t q = 30) {
  return {1, bases, std::vector<seq::qual_t>(bases.size(), q)};
}

TEST(CorrectorEdge, ReadExactlyOneTileLong) {
  const auto p = tiny();
  const std::string truth = "ACGGTTAACC";  // exactly 10 bases
  auto s = spectrum_of(p, truth, 5);
  std::string corrupted = truth;
  corrupted[4] = corrupted[4] == 'T' ? 'G' : 'T';
  auto r = read_of(corrupted);
  r.quals[4] = 3;
  TileCorrector corrector(p);
  const auto rc = corrector.correct(r, s);
  EXPECT_EQ(r.bases, truth);
  EXPECT_EQ(rc.substitutions, 1);
}

TEST(CorrectorEdge, ErrorInTheTailTile) {
  // The final tail tile (anchored at read_len - tile_len) must also be
  // checked; an error in the last base is only covered by it.
  const auto p = tiny();
  const std::string truth = "ACGGTTAACCGGATCGGATTA";  // len 21
  auto s = spectrum_of(p, truth, 5);
  std::string corrupted = truth;
  corrupted.back() = corrupted.back() == 'A' ? 'C' : 'A';
  auto r = read_of(corrupted);
  r.quals.back() = 3;
  TileCorrector corrector(p);
  corrector.correct(r, s);
  EXPECT_EQ(r.bases, truth);
}

TEST(CorrectorEdge, HammingOneOnlyModeSkipsDoubleErrors) {
  CorrectorParams p = tiny();
  p.max_hamming = 1;
  const std::string truth = "ACGGTTAACCGGATCGGATTAC";
  auto s = spectrum_of(p, truth, 6);
  std::string corrupted = truth;
  corrupted[2] = corrupted[2] == 'G' ? 'C' : 'G';
  corrupted[7] = corrupted[7] == 'A' ? 'T' : 'A';  // both in the first tile
  auto r = read_of(corrupted);
  r.quals[2] = 4;
  r.quals[7] = 4;
  TileCorrector corrector(p);
  const auto rc = corrector.correct(r, s);
  // The two-error tile cannot be fixed at distance 1; later tiles that
  // contain only one of the errors may still fix that one.
  EXPECT_LE(rc.substitutions, 1);
  EXPECT_NE(r.bases, truth);  // at least the first-tile pair survives partly
}

TEST(CorrectorEdge, DominanceRatioOneAcceptsAnyStrictWinner) {
  CorrectorParams p = tiny();
  p.dominance_ratio = 1.0;
  const std::string variant_a = "ACGGTTAACCGGATCGGATTAC";
  std::string variant_b = variant_a;
  variant_b[1] = 'T';
  LocalSpectrum s(p);
  for (int i = 0; i < 6; ++i) s.add_read(variant_a);
  for (int i = 0; i < 3; ++i) s.add_read(variant_b);
  s.prune();
  std::string ambiguous = variant_a;
  ambiguous[1] = 'G';
  auto r = read_of(ambiguous);
  r.quals[1] = 4;
  TileCorrector corrector(p);
  corrector.correct(r, s);
  // 6 > 3, so with ratio 1.0 the majority variant wins.
  EXPECT_EQ(r.bases[1], variant_a[1]);
}

TEST(CorrectorEdge, ZeroBudgetMeansNoChanges) {
  CorrectorParams p = tiny();
  p.max_corrections_per_read = 0;
  const std::string truth = "ACGGTTAACCGGATCGGATTAC";
  auto s = spectrum_of(p, truth, 5);
  std::string corrupted = truth;
  corrupted[3] = corrupted[3] == 'G' ? 'A' : 'G';
  auto r = read_of(corrupted);
  TileCorrector corrector(p);
  const auto rc = corrector.correct(r, s);
  EXPECT_EQ(rc.substitutions, 0);
  EXPECT_EQ(r.bases, corrupted);
}

TEST(CorrectorEdge, AllBasesLowQualityStillBounded) {
  CorrectorParams p = tiny();
  p.max_positions_per_tile = 3;
  const std::string truth = "ACGGTTAACCGGATCGGATTAC";
  auto s = spectrum_of(p, truth, 5);
  std::string corrupted = truth;
  corrupted[5] = corrupted[5] == 'T' ? 'A' : 'T';
  auto r = read_of(corrupted, /*q=*/2);  // uniformly terrible qualities
  TileCorrector corrector(p);
  const auto rc = corrector.correct(r, s);
  // With only 3 searchable positions per tile the error may or may not be
  // reachable; the corrector must stay within its budget and not corrupt
  // further.
  EXPECT_LE(rc.substitutions, p.max_corrections_per_read);
  int diffs = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (r.bases[i] != truth[i]) ++diffs;
  }
  EXPECT_LE(diffs, 1);
}

TEST(CorrectorEdge, EmptySpectrumChangesNothing) {
  const auto p = tiny();
  LocalSpectrum s(p);
  s.prune();
  auto r = read_of("ACGGTTAACCGGATCGGATTAC");
  TileCorrector corrector(p);
  const auto rc = corrector.correct(r, s);
  // Every tile is untrusted but no candidate is acceptable either.
  EXPECT_GT(rc.tiles_untrusted, 0);
  EXPECT_EQ(rc.substitutions, 0);
}

TEST(CorrectorEdge, RepeatRichGenomeDoesNotTriggerFalseCorrections) {
  // High-count repeat k-mers must not pull reads toward the repeat
  // consensus when the read's own tile is solid.
  CorrectorParams p = tiny();
  seq::DatasetSpec spec{"rep", 2500, 60, 2500};
  seq::GenomeParams gp;
  gp.repeat_fraction = 0.4;
  gp.repeat_length = 120;
  seq::ErrorModelParams no_errors;
  no_errors.error_rate_start = 0;
  no_errors.error_rate_end = 0;
  const auto ds = seq::SyntheticDataset::generate(spec, no_errors, 5, gp);
  const auto result = run_sequential(ds.reads, p);
  // A handful of miscorrections are expected at the genome EDGES (the
  // first/last tile positions are covered by only ~1 read, so their true
  // tiles fall below threshold and a solid repeat variant can win) — the
  // classic spectrum-corrector edge effect. The property worth pinning is
  // that repeats do not cause widespread damage: <0.01% of the ~150k bases.
  EXPECT_LE(result.substitutions, 10u);
}

TEST(CorrectorEdge, RestrictToLowQualityOnlyTouchesSuspectBases) {
  CorrectorParams p = tiny();
  p.restrict_to_low_quality = true;
  p.qual_threshold = 20;
  const std::string truth = "ACGGTTAACCGGATCGGATTAC";
  auto s = spectrum_of(p, truth, 5);
  // Error at a HIGH-quality position: the restricted corrector must not
  // touch it (the original Reptile trusts confident base calls).
  std::string corrupted = truth;
  corrupted[5] = corrupted[5] == 'T' ? 'A' : 'T';
  auto high_conf = read_of(corrupted, /*q=*/35);
  TileCorrector corrector(p);
  auto rc = corrector.correct(high_conf, s);
  EXPECT_EQ(rc.substitutions, 0);
  EXPECT_EQ(high_conf.bases, corrupted);
  // The same error reported with low quality is corrected.
  auto low_conf = read_of(corrupted, 35);
  low_conf.quals[5] = 5;
  rc = corrector.correct(low_conf, s);
  EXPECT_EQ(low_conf.bases, truth);
  EXPECT_EQ(rc.substitutions, 1);
}

TEST(CorrectorEdge, HeterozygousSitesAreNotMiscorrected) {
  // Diploid sample, no sequencing errors: both alleles of every SNP are
  // solid and roughly balanced, so the dominance rule must refuse to
  // "correct" one haplotype toward the other.
  CorrectorParams p;
  p.k = 10;
  p.tile_overlap = 4;
  seq::DatasetSpec spec{"het", 4000, 60, 3000};  // 80X combined coverage
  seq::GenomeParams gp;
  gp.heterozygosity = 0.01;
  seq::ErrorModelParams no_errors;
  no_errors.error_rate_start = 0;
  no_errors.error_rate_end = 0;
  const auto ds = seq::SyntheticDataset::generate(spec, no_errors, 7, gp);
  ASSERT_GT(ds.heterozygous_sites, 10u);
  const auto result = run_sequential(ds.reads, p);
  // Changed bases would all be false positives here. Allow only the usual
  // genome-edge noise (far below one per heterozygous site).
  EXPECT_LT(result.substitutions, ds.heterozygous_sites / 2);
}

TEST(CorrectorEdge, QualityOrderingPrefersLowQualityPositions) {
  // Two possible single-base fixes exist at different positions; the one at
  // the low-quality position must be explored first and win.
  const auto p = tiny();
  const std::string truth = "ACGGTTAACCGGATCGGATTAC";
  auto s = spectrum_of(p, truth, 5);
  std::string corrupted = truth;
  corrupted[6] = corrupted[6] == 'A' ? 'G' : 'A';
  auto r = read_of(corrupted, 35);
  r.quals[6] = 2;  // the true error site reports terrible quality
  TileCorrector corrector(p);
  corrector.correct(r, s);
  EXPECT_EQ(r.bases, truth);
}

// --- degraded evidence and the resumable cursor -----------------------------

/// Answers from a LocalSpectrum, except that every lookup of the tile IDs
/// in `degrade` returns 0 and counts as degraded. Counts every lookup.
class DegradingView final : public SpectrumView {
 public:
  explicit DegradingView(LocalSpectrum& base) : base_(&base) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    ++lookups;
    return base_->kmer_count(id);
  }
  std::uint32_t tile_count(seq::tile_id_t id) override {
    ++lookups;
    if (degrade.count(id) != 0) {
      ++degraded;
      return 0;
    }
    return base_->tile_count(id);
  }
  const LookupStats& stats() const override { return base_->stats(); }
  std::uint64_t degraded_lookups() const override { return degraded; }

  std::set<seq::tile_id_t> degrade;
  std::uint64_t lookups = 0;
  std::uint64_t degraded = 0;

 private:
  LocalSpectrum* base_;
};

/// The corrector as it was before a degraded lookup ended the tile search
/// early: every tile decision runs its whole Hamming-1 and Hamming-2
/// search, and the degradation guard only refuses the substitution at the
/// end. The reference the early stop must reproduce.
ReadCorrection full_search_correct(const CorrectorParams& p, seq::Read& read,
                                   SpectrumView& spectrum) {
  const seq::TileCodec codec(p.k, p.tile_overlap);
  const auto acceptable = [&](seq::tile_id_t t, std::uint32_t& count) {
    count = spectrum.tile_count(t);
    if (count < p.tile_threshold) return false;
    if (spectrum.kmer_count(codec.first_kmer(t)) < p.kmer_threshold) {
      return false;
    }
    return spectrum.kmer_count(codec.second_kmer(t)) >= p.kmer_threshold;
  };
  ReadCorrection result;
  for (const int pos : codec.tile_positions(read.length())) {
    if (result.substitutions >= p.max_corrections_per_read) break;
    const seq::tile_id_t tile =
        codec.pack(std::string_view(read.bases).substr(
            static_cast<std::size_t>(pos)));
    const std::uint64_t before = spectrum.degraded_lookups();
    if (spectrum.tile_count(tile) >= p.tile_threshold) continue;
    ++result.tiles_untrusted;
    std::vector<int> offs(static_cast<std::size_t>(codec.tile_len()));
    for (int i = 0; i < codec.tile_len(); ++i) offs[static_cast<std::size_t>(i)] = i;
    std::stable_sort(offs.begin(), offs.end(), [&](int a, int b) {
      return read.quals[static_cast<std::size_t>(pos + a)] <
             read.quals[static_cast<std::size_t>(pos + b)];
    });
    if (static_cast<int>(offs.size()) > p.max_positions_per_tile) {
      offs.resize(static_cast<std::size_t>(p.max_positions_per_tile));
    }
    std::uint32_t best = 0, second = 0;
    seq::tile_id_t best_tile = 0;
    int o1 = -1, o2 = -1;
    seq::base_t b1 = 0, b2 = 0;
    const auto consider = [&](seq::tile_id_t t, std::uint32_t c, int x1,
                              seq::base_t y1, int x2, seq::base_t y2) {
      if (c > best || (c == best && t < best_tile)) {
        if (best != 0) second = std::max(second, best);
        best = c;
        best_tile = t;
        o1 = x1, b1 = y1, o2 = x2, b2 = y2;
      } else {
        second = std::max(second, c);
      }
    };
    for (const int off : offs) {
      for (seq::base_t b = 0; b < seq::kAlphabetSize; ++b) {
        if (b == codec.base_at(tile, off)) continue;
        const seq::tile_id_t cand = codec.substitute(tile, off, b);
        std::uint32_t c = 0;
        if (acceptable(cand, c)) consider(cand, c, off, b, -1, 0);
      }
    }
    if (best == 0 && p.max_hamming >= 2) {
      for (std::size_t i = 0; i < offs.size(); ++i) {
        for (std::size_t j = i + 1; j < offs.size(); ++j) {
          const int x1 = std::min(offs[i], offs[j]);
          const int x2 = std::max(offs[i], offs[j]);
          for (seq::base_t y1 = 0; y1 < seq::kAlphabetSize; ++y1) {
            if (y1 == codec.base_at(tile, x1)) continue;
            const seq::tile_id_t part = codec.substitute(tile, x1, y1);
            for (seq::base_t y2 = 0; y2 < seq::kAlphabetSize; ++y2) {
              if (y2 == codec.base_at(tile, x2)) continue;
              const seq::tile_id_t cand = codec.substitute(part, x2, y2);
              std::uint32_t c = 0;
              if (acceptable(cand, c)) consider(cand, c, x1, y1, x2, y2);
            }
          }
        }
      }
    }
    const bool degraded = spectrum.degraded_lookups() != before;
    const bool dominant =
        best != 0 && (second == 0 || static_cast<double>(best) >=
                                         p.dominance_ratio *
                                             static_cast<double>(second));
    if (dominant && !degraded) {
      read.bases[static_cast<std::size_t>(pos + o1)] = seq::char_from_base(b1);
      int applied = 1;
      if (o2 >= 0) {
        read.bases[static_cast<std::size_t>(pos + o2)] =
            seq::char_from_base(b2);
        ++applied;
      }
      result.substitutions += applied;
      ++result.tiles_fixed;
    } else if (degraded) {
      ++result.tiles_degraded;
    }
  }
  return result;
}

void expect_same(const ReadCorrection& a, const ReadCorrection& b) {
  EXPECT_EQ(a.substitutions, b.substitutions);
  EXPECT_EQ(a.tiles_untrusted, b.tiles_untrusted);
  EXPECT_EQ(a.tiles_fixed, b.tiles_fixed);
  EXPECT_EQ(a.tiles_degraded, b.tiles_degraded);
}

/// Error-free reads of a random genome for the spectrum, and reads of it
/// with one low-quality substitution each, seeded.
struct OneErrorReads {
  CorrectorParams params;
  std::unique_ptr<LocalSpectrum> spectrum;
  std::vector<seq::Read> truth;
  std::vector<seq::Read> reads;
};

OneErrorReads one_error_reads(int max_hamming, std::uint64_t seed) {
  OneErrorReads out;
  out.params = tiny();
  out.params.max_hamming = max_hamming;
  std::mt19937_64 rng(seed);
  const char* kBases = "ACGT";
  std::string genome(400, 'A');
  for (char& c : genome) c = kBases[rng() % 4];
  out.spectrum = std::make_unique<LocalSpectrum>(out.params);
  for (std::size_t start = 0; start + 30 <= genome.size(); ++start) {
    for (int copy = 0; copy < 4; ++copy) {
      out.spectrum->add_read(genome.substr(start, 30));
    }
  }
  out.spectrum->prune();
  for (int i = 0; i < 40; ++i) {
    const std::size_t start = rng() % (genome.size() - 30);
    seq::Read r = read_of(genome.substr(start, 30));
    out.truth.push_back(r);
    const std::size_t at = 3 + rng() % 24;
    r.bases[at] = kBases[(std::string_view(kBases).find(r.bases[at]) + 1 +
                          rng() % 3) % 4];
    r.quals[at] = 4;  // the error is the first position searched
    out.reads.push_back(r);
  }
  return out;
}

/// The first tile of `read` below the tile threshold: its start and ID.
std::pair<int, seq::tile_id_t> first_untrusted_tile(const OneErrorReads& d,
                                                    const seq::Read& read) {
  const seq::TileCodec codec(d.params.k, d.params.tile_overlap);
  for (const int pos : codec.tile_positions(read.length())) {
    const seq::tile_id_t t = codec.pack(
        std::string_view(read.bases).substr(static_cast<std::size_t>(pos)));
    if (d.spectrum->tile_count(t) < d.params.tile_threshold) return {pos, t};
  }
  return {-1, 0};
}

TEST(CorrectorDegraded, DegradedGateStopsTheTileSearch) {
  for (const int hamming : {1, 2}) {
    const OneErrorReads d = one_error_reads(hamming, 17);
    const TileCorrector corrector(d.params);
    int compared = 0;
    for (const seq::Read& original : d.reads) {
      const auto [pos, gate] = first_untrusted_tile(d, original);
      if (pos < 0) continue;
      DegradingView early(*d.spectrum);
      DegradingView full(*d.spectrum);
      early.degrade.insert(gate);
      full.degrade.insert(gate);
      seq::Read a = original;
      seq::Read b = original;
      const ReadCorrection got = corrector.correct(a, early);
      const ReadCorrection want = full_search_correct(d.params, b, full);
      expect_same(got, want);
      EXPECT_EQ(a.bases, b.bases);
      EXPECT_GE(got.tiles_degraded, 1);
      EXPECT_LT(early.lookups, full.lookups) << "hamming " << hamming;
      ++compared;
    }
    EXPECT_GT(compared, 20);
  }
}

TEST(CorrectorDegraded, DegradedHammingOneSkipsHammingTwo) {
  // Degrading the true tile, the Hamming-1 candidate the gate would be
  // corrected to, leaves Hamming-1 without an acceptable candidate: the
  // full search goes on to Hamming 2, the early stop does not.
  const OneErrorReads d = one_error_reads(2, 29);
  const TileCorrector corrector(d.params);
  const seq::TileCodec codec(d.params.k, d.params.tile_overlap);
  int compared = 0;
  for (std::size_t i = 0; i < d.reads.size(); ++i) {
    const auto [pos, gate] = first_untrusted_tile(d, d.reads[i]);
    if (pos < 0) continue;
    const seq::tile_id_t true_tile = codec.pack(
        std::string_view(d.truth[i].bases).substr(static_cast<std::size_t>(pos)));
    ASSERT_NE(true_tile, gate);
    DegradingView early(*d.spectrum);
    DegradingView full(*d.spectrum);
    early.degrade.insert(true_tile);
    full.degrade.insert(true_tile);
    seq::Read a = d.reads[i];
    seq::Read b = d.reads[i];
    const ReadCorrection got = corrector.correct(a, early);
    const ReadCorrection want = full_search_correct(d.params, b, full);
    expect_same(got, want);
    EXPECT_EQ(a.bases, b.bases);
    EXPECT_GE(got.tiles_degraded, 1);
    EXPECT_LT(early.lookups, full.lookups);
    ++compared;
  }
  EXPECT_GT(compared, 20);
}

TEST(CorrectorDegraded, FaultFreeMatchesTheFullSearch) {
  // Without degradation the early stop never fires: same outcome, same
  // lookups as the full search.
  for (const int hamming : {1, 2}) {
    const OneErrorReads d = one_error_reads(hamming, 41);
    const TileCorrector corrector(d.params);
    for (const seq::Read& original : d.reads) {
      DegradingView early(*d.spectrum);
      DegradingView full(*d.spectrum);
      seq::Read a = original;
      seq::Read b = original;
      expect_same(corrector.correct(a, early),
                  full_search_correct(d.params, b, full));
      EXPECT_EQ(a.bases, b.bases);
      EXPECT_EQ(early.lookups, full.lookups);
    }
  }
}

/// Withholds every ID for `rounds` rounds after it is first asked: until
/// then the lookup returns 0 and counts as degraded.
class WithholdingView final : public SpectrumView {
 public:
  WithholdingView(LocalSpectrum& base, int rounds)
      : base_(&base), rounds_(rounds) {}

  std::uint32_t kmer_count(seq::kmer_id_t id) override {
    return answer(id, /*tile=*/false, base_->kmer_count(id));
  }
  std::uint32_t tile_count(seq::tile_id_t id) override {
    return answer(id, /*tile=*/true, base_->tile_count(id));
  }
  const LookupStats& stats() const override { return base_->stats(); }
  std::uint64_t degraded_lookups() const override { return degraded_; }

  void next_round() { ++round_; }

 private:
  std::uint32_t answer(std::uint64_t id, bool tile, std::uint32_t count) {
    const auto asked = first_asked_.try_emplace({tile, id}, round_).first;
    if (round_ - asked->second >= rounds_) return count;
    ++degraded_;
    return 0;
  }

  LocalSpectrum* base_;
  int rounds_;
  int round_ = 0;
  std::map<std::pair<bool, std::uint64_t>, int> first_asked_;
  std::uint64_t degraded_ = 0;
};

TEST(CorrectorCursor, ResumedCorrectionEqualsOneShot) {
  for (const int rounds : {1, 3}) {
    for (const std::uint64_t seed : {3u, 11u}) {
      CorrectorParams p = tiny();
      seq::DatasetSpec spec{"cursor", 300, 50, 600};
      seq::ErrorModelParams errors;
      errors.error_rate_start = 0.01;
      errors.error_rate_end = 0.03;
      const auto ds = seq::SyntheticDataset::generate(spec, errors, seed);
      LocalSpectrum spectrum(p);
      for (const auto& r : ds.reads) spectrum.add_read(r.bases);
      spectrum.prune();
      const TileCorrector corrector(p);

      std::vector<seq::Read> one_shot = ds.reads;
      std::vector<ReadCorrection> want;
      for (auto& r : one_shot) want.push_back(corrector.correct(r, spectrum));

      std::vector<seq::Read> resumed = ds.reads;
      std::vector<TileCorrector::Cursor> cursors(resumed.size());
      std::vector<bool> done(resumed.size(), false);
      WithholdingView view(spectrum, rounds);
      int round = 0;
      for (bool busy = true; busy; view.next_round(), ++round) {
        ASSERT_LT(round, 1000) << "the cursors stopped making progress";
        busy = false;
        for (std::size_t i = 0; i < resumed.size(); ++i) {
          if (done[i]) continue;
          done[i] = corrector.advance(resumed[i].bases, resumed[i].quals,
                                      cursors[i], view,
                                      /*hold_degraded=*/true);
          busy = busy || !done[i];
        }
      }
      EXPECT_GT(round, rounds) << "nothing was withheld";
      std::uint64_t changed = 0;
      for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_EQ(resumed[i].bases, one_shot[i].bases) << "read " << i;
        expect_same(cursors[i].result, want[i]);
        EXPECT_EQ(cursors[i].result.tiles_degraded, 0);
        changed += want[i].changed() ? 1 : 0;
      }
      EXPECT_GT(changed, 0u);
    }
  }
}

}  // namespace
}  // namespace reptile::core
