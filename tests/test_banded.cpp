// Banded alignment (|i - j| <= band): golden banded model vs the banded
// diagonal kernels, plus band-semantics properties.
#include <gtest/gtest.h>

#include <random>

#include <cstdlib>

#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

std::vector<simd::Isa> all_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);
  return isas;
}

TEST(Banded, GoldenWideBandEqualsFullDp) {
  std::mt19937_64 rng(301);
  for (int it = 0; it < 20; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 120);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 120);
    AlignConfig full;
    AlignConfig banded = full;
    banded.band = static_cast<int>(q.length() + r.length());  // covers all
    EXPECT_EQ(ref_align(q, r, banded).score, ref_align(q, r, full).score);
  }
}

TEST(Banded, GoldenScoreMonotoneInBand) {
  std::mt19937_64 rng(302);
  for (int it = 0; it < 15; ++it) {
    auto q = seq::generate_sequence(rng(), 40 + rng() % 100);
    auto r = seq::generate_sequence(rng(), 40 + rng() % 100);
    AlignConfig cfg;
    int prev = 0;
    for (int band : {0, 1, 2, 4, 8, 16, 32, 64, 1000}) {
      cfg.band = band;
      int s = ref_align(q, r, cfg).score;
      EXPECT_GE(s, prev) << "band " << band;
      prev = s;
    }
    cfg.band = -1;
    EXPECT_EQ(prev, ref_align(q, r, cfg).score);  // widest band == full
  }
}

TEST(Banded, GoldenBandZeroIsDiagonalOnly) {
  // band 0: only the main diagonal; gaps impossible, score = best
  // positive run of per-position substitution scores.
  seq::Sequence q("q", "ARNDAR", seq::Alphabet::protein());
  AlignConfig cfg;
  cfg.band = 0;
  Alignment a = ref_align(q, q, cfg);
  int diag_sum = 0;
  const auto& mat = matrix::ScoreMatrix::blosum62();
  for (uint8_t c : q.codes()) diag_sum += mat.score(c, c);
  EXPECT_EQ(a.score, diag_sum);  // all diagonal scores positive => full run
}

TEST(Banded, GoldenMatrixMaxMatchesAlign) {
  std::mt19937_64 rng(303);
  for (int it = 0; it < 15; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 80);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 80);
    AlignConfig cfg;
    cfg.band = static_cast<int>(rng() % 12);
    Alignment a = ref_align(q, r, cfg);
    auto H = ref_matrix(q, r, cfg);
    int mx = 0;
    for (int h : H) mx = std::max(mx, h);
    EXPECT_EQ(mx, a.score) << "band " << cfg.band;
    // Out-of-band cells are all zero.
    for (int i = 0; i < static_cast<int>(q.length()); ++i)
      for (int j = 0; j < static_cast<int>(r.length()); ++j)
        if (std::abs(i - j) > cfg.band) {
          EXPECT_EQ(H[static_cast<size_t>(i) * r.length() + static_cast<size_t>(j)],
                    0);
        }
  }
}

TEST(Banded, KernelsMatchGoldenAcrossBandsAndIsas) {
  std::mt19937_64 rng(304);
  Workspace ws;
  for (simd::Isa isa : all_isas()) {
    for (int it = 0; it < 12; ++it) {
      auto q = seq::generate_sequence(rng(), 1 + rng() % 180);
      auto r = seq::generate_sequence(rng(), 1 + rng() % 180);
      AlignConfig cfg;
      cfg.isa = isa;
      cfg.band = static_cast<int>(rng() % 40);
      cfg.width = (it % 3 == 0)   ? Width::W8
                  : (it % 3 == 1) ? Width::W16
                                  : Width::W32;
      Alignment ref = ref_align(q, r, cfg);
      Alignment got = diag_align(q, r, cfg, ws);
      if (got.saturated) continue;
      EXPECT_EQ(got.score, ref.score)
          << simd::isa_name(isa) << " band=" << cfg.band << " it=" << it;
      EXPECT_EQ(got.end_query, ref.end_query);
      EXPECT_EQ(got.end_ref, ref.end_ref);
    }
  }
}

TEST(Banded, KernelTracebackReplaysWithinBand) {
  std::mt19937_64 rng(305);
  Workspace ws;
  for (int it = 0; it < 25; ++it) {
    auto q = seq::generate_sequence(rng(), 20 + rng() % 150);
    auto hom = seq::mutate(q, rng(), 0.25);
    AlignConfig cfg;
    cfg.band = 4 + static_cast<int>(rng() % 20);
    cfg.traceback = true;
    Alignment got = diag_align(q, hom, cfg, ws);
    if (got.saturated || got.score == 0) continue;
    Alignment ref = ref_align(q, hom, cfg);
    EXPECT_EQ(got.score, ref.score) << "band " << cfg.band;
    EXPECT_EQ(got.cigar, ref.cigar);
    EXPECT_EQ(replay_score(q, hom, cfg, got), got.score);
    // Every cell of the path stays inside the band.
    int i = got.begin_query, j = got.begin_ref;
    for (size_t k = 0; k < got.cigar.size(); ++k)
      for (uint32_t t = 0; t < got.cigar.len(k); ++t) {
        EXPECT_LE(std::abs(i - j), cfg.band);
        switch (got.cigar.op(k)) {
          case CigarOp::Match: ++i; ++j; break;
          case CigarOp::Ins: ++i; break;
          case CigarOp::Del: ++j; break;
        }
      }
  }
}

TEST(Banded, BandZeroKernelHandlesEmptyDiagonals) {
  Workspace ws;
  auto q = seq::generate_sequence(9, 100);
  AlignConfig cfg;
  cfg.band = 0;
  for (simd::Isa isa : all_isas()) {
    cfg.isa = isa;
    Alignment got = diag_align(q, q, cfg, ws);
    Alignment ref = ref_align(q, q, cfg);
    if (!got.saturated) {
      EXPECT_EQ(got.score, ref.score) << simd::isa_name(isa);
    }
  }
}

TEST(Banded, CellAccountingCountsOnlyBandCells) {
  Workspace ws;
  auto q = seq::generate_sequence(10, 200);
  auto r = seq::generate_sequence(11, 200);
  AlignConfig cfg;
  cfg.band = 10;
  cfg.width = Width::W16;
  Alignment a = diag_align(q, r, cfg, ws);
  // Band of width 2*10+1 over 200 diagonal positions, minus corners.
  EXPECT_LT(a.stats.cells, 21u * 200u + 1u);
  EXPECT_GT(a.stats.cells, 15u * 180u);
}

TEST(Banded, BatchKernelRejectsBand) {
  seq::SyntheticConfig sc;
  sc.seed = 12;
  sc.target_residues = 3000;
  auto db = seq::SequenceDatabase::synthetic(sc);
  Batch32Db bdb(db, 32);
  Workspace ws;
  AlignConfig cfg;
  cfg.band = 5;
  auto q = seq::generate_sequence(13, 40);
  EXPECT_THROW(batch_scores(q, bdb, db, cfg, ws), std::invalid_argument);
}

TEST(Banded, ReadMappingUseCase) {
  // A banded alignment of a read against its true locus window costs a
  // fraction of the full DP and finds the same alignment.
  auto ref = seq::generate_sequence(14, 5000, seq::AlphabetKind::Dna);
  auto read = seq::mutate(ref.subsequence(1000, 150), 15, 0.05);
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 2;
  cfg.mismatch = -3;
  cfg.gap_open = 5;
  cfg.gap_extend = 2;
  Workspace ws;
  auto window = ref.subsequence(990, 170);
  Alignment full = diag_align(read, window, cfg, ws);
  cfg.band = 32;
  Alignment banded = diag_align(read, window, cfg, ws);
  EXPECT_EQ(banded.score, full.score);  // small indels stay in the band
  EXPECT_LT(banded.stats.cells, full.stats.cells / 2);
}

}  // namespace
}  // namespace swve::core
