// Differential tests: core::pair_align (the column sweep where its rule
// admits the pair, else the diagonal kernel) against diag_align on the same
// config, and both against the golden scalar model.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

bool column_sweep_host() {
  return simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi;
}

uint8_t max_code(seq::SeqView s) {
  uint8_t mx = 0;
  for (size_t i = 0; i < s.length; ++i) mx = std::max(mx, s[i]);
  return mx;
}

/// A reference of length n holding a copy of (a prefix of) q with about
/// `subst_pct` percent substitutions, flanked by random residues.
seq::Sequence related(const seq::Sequence& q, uint32_t n, uint64_t seed,
                      int subst_pct, int alphabet_codes = 20) {
  std::mt19937_64 rng(seed);
  const seq::Sequence base = seq::generate_sequence(seed, n, q.alphabet().kind());
  std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
  const size_t copy = std::min<size_t>(q.length(), n);
  const size_t at = (n - copy) / 2;
  for (size_t k = 0; k < copy; ++k) {
    uint8_t c = q.codes()[k];
    if (static_cast<int>(rng() % 100) < subst_pct)
      c = static_cast<uint8_t>(rng() % alphabet_codes);
    codes[at + k] = c;
  }
  return seq::Sequence("rel", std::move(codes), q.alphabet());
}

/// pair_align equals diag_align in every result field, takes the sweep the
/// rule names, and both agree with the scalar model when not saturated.
void check_pair(seq::SeqView q, seq::SeqView r,
                const AlignConfig& cfg, const std::string& what) {
  Workspace ws;
  const Alignment d = diag_align(q, r, cfg, ws);
  const Alignment p = pair_align(q, r, cfg, ws);
  const bool column =
      column_sweep_runs(cfg, simd::resolve_isa(cfg.isa), q.length, max_code(q));
  EXPECT_EQ(p.sweep, column ? Sweep::Column : Sweep::Diagonal) << what;
  EXPECT_EQ(d.sweep, Sweep::Diagonal) << what;
  EXPECT_EQ(p.score, d.score) << what;
  EXPECT_EQ(p.end_query, d.end_query) << what;
  EXPECT_EQ(p.end_ref, d.end_ref) << what;
  EXPECT_EQ(p.begin_query, d.begin_query) << what;
  EXPECT_EQ(p.begin_ref, d.begin_ref) << what;
  EXPECT_EQ(p.cigar, d.cigar) << what << " col " << p.cigar.to_string()
                              << " diag " << d.cigar.to_string();
  EXPECT_EQ(p.width_used, d.width_used) << what;
  EXPECT_EQ(p.saturated_8, d.saturated_8) << what;
  EXPECT_EQ(p.saturated_16, d.saturated_16) << what;
  EXPECT_EQ(p.saturated, d.saturated) << what;
  EXPECT_EQ(p.stats.cells, d.stats.cells) << what;
  EXPECT_EQ(p.stats.column_cells, column ? p.stats.cells : 0) << what;
  EXPECT_EQ(d.stats.column_cells, 0u) << what;
  if (d.saturated) return;
  const Alignment ref = ref_align(q, r, cfg);
  EXPECT_EQ(d.score, ref.score) << what;
  EXPECT_EQ(d.end_query, ref.end_query) << what;
  EXPECT_EQ(d.end_ref, ref.end_ref) << what;
  if (cfg.traceback && ref.score > 0) {
    EXPECT_EQ(p.cigar, ref.cigar) << what;
    EXPECT_EQ(replay_score(q, r, cfg, p), p.score) << what;
  }
}

std::string label(const char* name, size_t m, size_t n, const AlignConfig& cfg) {
  return std::string(name) + " m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " w=" + std::to_string(static_cast<int>(cfg.width)) +
         " gm=" + std::to_string(static_cast<int>(cfg.gap_model)) +
         " open=" + std::to_string(cfg.gap_open) + " ext=" +
         std::to_string(cfg.gap_extend) + " tb=" + std::to_string(cfg.traceback);
}

TEST(PairAlign, RuleAdmitsShortPairsOnAvx512Vbmi) {
  AlignConfig cfg;
  const simd::Isa avx512 = simd::Isa::Avx512;
  const bool host = column_sweep_host();
  EXPECT_EQ(column_sweep_runs(cfg, avx512, 1, 0), host);
  EXPECT_EQ(column_sweep_runs(cfg, avx512, 128, 23), host);
  EXPECT_FALSE(column_sweep_runs(cfg, avx512, 0, 0));
  // The query bound (kColumnSweepMaxQuery); the reference length is no
  // part of the rule.
  EXPECT_EQ(column_sweep_runs(cfg, avx512, kColumnSweepMaxQuery, 0), host);
  EXPECT_FALSE(column_sweep_runs(cfg, avx512, kColumnSweepMaxQuery + 1, 0));
  EXPECT_FALSE(column_sweep_runs(cfg, avx512, 64, 24));  // past the table
  EXPECT_FALSE(column_sweep_runs(cfg, simd::Isa::Avx2, 64, 0));
  EXPECT_FALSE(column_sweep_runs(cfg, simd::Isa::Scalar, 64, 0));
  AlignConfig c = cfg;
  c.band = 8;
  EXPECT_FALSE(column_sweep_runs(c, avx512, 64, 0));
  c = cfg;
  c.width = Width::W32;
  EXPECT_FALSE(column_sweep_runs(c, avx512, 64, 0));
  for (Width w : {Width::W8, Width::W16, Width::Adaptive}) {
    c.width = w;
    EXPECT_EQ(column_sweep_runs(c, avx512, 64, 0), host);
  }
  c = cfg;
  c.scheme = ScoreScheme::Fixed;
  EXPECT_EQ(column_sweep_runs(c, avx512, 64, 200), host);  // any code
  // A query whose score could reach the 16-bit limit needs a 32-bit rung.
  c.match = 600;
  c.mismatch = -1;
  EXPECT_FALSE(column_sweep_runs(c, avx512, 128, 0));
  EXPECT_EQ(column_sweep_runs(c, avx512, 100, 0), host);
}

TEST(PairAlign, LengthGridMatchesDiagonalKernel) {
  const std::vector<uint32_t> ms = {1,   2,   31,  32,  33,  63,  64,  65,  127,
                                    128, 129, 191, 192, 193, 255, 256, 257};
  const std::vector<uint32_t> ns = {1, 2, 5, 64, 65, 127, 128, 129, 257, 300, 1000, 4096};
  uint64_t seed = 100;
  for (uint32_t m : ms) {
    const seq::Sequence q = seq::generate_sequence(seed++, m);
    for (uint32_t n : ns) {
      const seq::Sequence rnd = seq::generate_sequence(seed++, n);
      const seq::Sequence rel = related(q, n, seed++, 8);
      for (GapModel gm : {GapModel::Affine, GapModel::Linear}) {
        for (bool tb : {false, true}) {
          AlignConfig cfg;
          cfg.gap_model = gm;
          if (gm == GapModel::Linear) cfg.gap_extend = 4;
          cfg.traceback = tb;
          check_pair(q, rnd, cfg, label("random", m, n, cfg));
          check_pair(q, rel, cfg, label("related", m, n, cfg));
        }
      }
    }
  }
}

TEST(PairAlign, EveryMatrixAndFixedScoring) {
  uint64_t seed = 500;
  for (const std::string& name : matrix::ScoreMatrix::builtin_names()) {
    AlignConfig cfg;
    cfg.matrix = matrix::ScoreMatrix::find(name);
    for (uint32_t m : {40u, 100u, 128u}) {
      const seq::Sequence q = seq::generate_sequence(seed++, m);
      const seq::Sequence r = related(q, 120, seed++, 15);
      for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
        for (bool tb : {false, true}) {
          cfg.width = w;
          cfg.traceback = tb;
          check_pair(q, r, cfg, label(name.c_str(), m, 120, cfg));
        }
      }
    }
  }
  AlignConfig fixed;
  fixed.scheme = ScoreScheme::Fixed;
  for (auto [match, mismatch] : {std::pair{2, -3}, {5, -4}, {1, 0}, {3, 3}}) {
    fixed.match = match;
    fixed.mismatch = mismatch;
    const seq::Sequence q = seq::generate_sequence(seed++, 90);
    const seq::Sequence r = related(q, 128, seed++, 10);
    for (GapModel gm : {GapModel::Affine, GapModel::Linear}) {
      fixed.gap_model = gm;
      fixed.traceback = true;
      check_pair(q, r, fixed, label("fixed", 90, 128, fixed));
    }
  }
}

TEST(PairAlign, DnaMatchesDiagonalKernel) {
  AlignConfig cfg;
  cfg.matrix = &matrix::ScoreMatrix::dna_iupac();
  cfg.gap_open = 8;
  cfg.gap_extend = 2;
  uint64_t seed = 900;
  for (uint32_t m : {20u, 64u, 120u}) {
    const seq::Sequence q = seq::generate_sequence(seed++, m, seq::AlphabetKind::Dna);
    const seq::Sequence r = related(q, 128, seed++, 10, 4);
    for (bool tb : {false, true}) {
      cfg.traceback = tb;
      check_pair(q, r, cfg, label("dna", m, 128, cfg));
    }
  }
}

// The 8-bit limit first reached in column 0, in a middle column and in the
// last column: the adaptive sweep continues at 16 bits in place.
TEST(PairAlign, SaturatingPairsWidenInPlace) {
  AlignConfig cfg;
  cfg.traceback = true;
  uint64_t seed = 1300;
  {  // column 0: one match alone reaches the 8-bit limit
    AlignConfig c = cfg;
    c.scheme = ScoreScheme::Fixed;
    c.match = 127;
    c.mismatch = -1;
    const seq::Sequence q = seq::generate_sequence(seed++, 80);
    const seq::Sequence r = related(q, 120, seed++, 5);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check_pair(q, r, c, label("col0", 80, 120, c));
    }
    // The limit below 0: 8 bits hold no cell, the sweep starts at 16.
    c.match = 300;
    c.mismatch = -3;
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check_pair(q, r, c, label("no8", 80, 120, c));
    }
  }
  {  // a middle column: a long identical stretch under BLOSUM62
    const seq::Sequence q = seq::generate_sequence(seed++, 128);
    const seq::Sequence r = related(q, 128, seed++, 2);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      for (bool tb : {false, true}) {
        AlignConfig c = cfg;
        c.width = w;
        c.traceback = tb;
        check_pair(q, r, c, label("middle", 128, 128, c));
      }
    }
    Workspace ws;
    const Alignment a = pair_align(q, r, cfg, ws);
    EXPECT_TRUE(a.saturated_8);
    EXPECT_EQ(a.width_used, Width::W16);
  }
  {  // the last column: +2 per identical residue reaches 250 at column 124
    AlignConfig c = cfg;
    c.scheme = ScoreScheme::Fixed;
    c.match = 2;
    c.mismatch = -3;
    const seq::Sequence q = seq::generate_sequence(seed++, 125);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check_pair(q, q, c, label("last", 125, 125, c));
    }
    Workspace ws;
    c.width = Width::Adaptive;
    const Alignment a = pair_align(q, q, c, ws);
    EXPECT_EQ(a.score, 250);
    EXPECT_TRUE(a.saturated_8);
    EXPECT_EQ(a.width_used, Width::W16);
  }
}

TEST(PairAlign, ExtremeGapPenalties) {
  uint64_t seed = 1700;
  const seq::Sequence q = seq::generate_sequence(seed++, 70);
  const seq::Sequence r = related(q, 120, seed++, 20);
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  for (Gaps g : {Gaps{GapModel::Affine, 0, 0}, Gaps{GapModel::Linear, 0, 0},
                 Gaps{GapModel::Affine, 300, 280}, Gaps{GapModel::Affine, 300, 1},
                 Gaps{GapModel::Linear, 0, 300}}) {
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      AlignConfig cfg;
      cfg.gap_model = g.gm;
      cfg.gap_open = g.open;
      cfg.gap_extend = g.ext;
      cfg.width = w;
      cfg.traceback = true;
      check_pair(q, r, cfg, label("gaps", 70, 120, cfg));
    }
  }
}

// The reference is the query with L residues cut from its middle or 20
// residues before its end (and the roles swapped), so the best alignment
// crosses a vertical (and a horizontal) gap of L rows, in the first lanes
// or only in later ones. The query rows are striped over S vectors (S 1-4
// at 8 bits, 1-8 at 16), and the gap scan's carry steps shift by S*2^s
// rows; L runs across every such shift of both widths, and one either
// side, so the scan's early stop is exercised before, at and after each of
// its steps, and the gaps cross lane blocks.
TEST(PairAlign, VerticalGapsCrossEveryScanStep) {
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  const Gaps gaps[] = {{GapModel::Affine, 11, 1}, {GapModel::Affine, 5, 2},
                       {GapModel::Linear, 0, 3}, {GapModel::Affine, 6, 0}};
  uint64_t seed = 2000;
  for (int m : {63, 64, 65, 127, 128, 129, 193, static_cast<int>(kColumnSweepMaxQuery)}) {
    const seq::Sequence q = seq::generate_sequence(seed++, static_cast<uint32_t>(m));
    std::set<int> cuts;
    for (int s : {(m + 63) / 64, (m + 31) / 32})
      for (int step = s; step < m; step *= 2)
        for (int d : {-1, 0, 1}) cuts.insert(step + d);
    for (int gap : cuts) {
      for (int at : {(m - gap) / 2, m - gap - 20}) {
        if (gap < 1 || gap >= m || at < 0) continue;
        std::vector<uint8_t> cut(q.codes().begin(), q.codes().end());
        cut.erase(cut.begin() + at, cut.begin() + at + gap);
        const seq::Sequence r("cut", std::move(cut), q.alphabet());
        const std::string where = " gap=" + std::to_string(gap) + " at=" + std::to_string(at);
        for (const Gaps& g : gaps) {
          for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
            for (bool tb : {false, true}) {
              AlignConfig cfg;
              cfg.gap_model = g.gm;
              cfg.gap_open = g.open;
              cfg.gap_extend = g.ext;
              cfg.width = w;
              cfg.traceback = tb;
              check_pair(q, r, cfg, label("vertical", q.length(), r.length(), cfg) + where);
              check_pair(r, q, cfg, label("horizontal", r.length(), q.length(), cfg) + where);
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// Long references holding several copies of the query, each with a long
// block deleted (a vertical gap) or a long random block inserted (a
// horizontal one): the gap scan's early stop rarely fires in the columns
// that cross them, and the best alignment may end in any copy.
TEST(PairAlign, LongReferencesCrossLongGaps) {
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  const Gaps gaps[] = {{GapModel::Affine, 11, 1}, {GapModel::Affine, 4, 1},
                       {GapModel::Linear, 0, 2}};
  std::mt19937_64 rng(2050);
  for (uint32_t m : {64u, 128u, 200u, static_cast<uint32_t>(kColumnSweepMaxQuery)}) {
    const seq::Sequence q = seq::generate_sequence(rng(), m);
    for (uint32_t n : {1000u, 4096u}) {
      const seq::Sequence base = seq::generate_sequence(rng(), n);
      std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
      for (size_t pos = rng() % 100; pos < n; pos += m + 100 + rng() % 300) {
        std::vector<uint8_t> copy(q.codes().begin(), q.codes().end());
        const size_t len = m / 8 + rng() % (m / 2);
        const size_t at = rng() % (m - len);
        if (rng() % 2 == 0) {
          copy.erase(copy.begin() + at, copy.begin() + at + len);
        } else {
          for (size_t k = 0; k < len; ++k)
            copy.insert(copy.begin() + at, static_cast<uint8_t>(rng() % 20));
        }
        for (auto& c : copy)
          if (rng() % 100 < 5) c = static_cast<uint8_t>(rng() % 20);
        for (size_t k = 0; k < copy.size() && pos + k < n; ++k) codes[pos + k] = copy[k];
      }
      const seq::Sequence r("long", std::move(codes), q.alphabet());
      for (const Gaps& g : gaps) {
        for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
          for (bool tb : {false, true}) {
            AlignConfig cfg;
            cfg.gap_model = g.gm;
            cfg.gap_open = g.open;
            cfg.gap_extend = g.ext;
            cfg.width = w;
            cfg.traceback = tb;
            check_pair(q, r, cfg, label("long", m, n, cfg));
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(PairAlign, OtherShapesTakeTheDiagonalKernel) {
  uint64_t seed = 2100;
  const seq::Sequence q = seq::generate_sequence(seed++, 60);
  const seq::Sequence r = related(q, 90, seed++, 10);
  AlignConfig cfg;
  cfg.traceback = true;
  cfg.band = 12;
  check_pair(q, r, cfg, "banded");
  cfg.band = -1;
  cfg.width = Width::W32;
  check_pair(q, r, cfg, "w32");
  cfg.width = Width::Adaptive;
  for (simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Avx2}) {
    if (!simd::isa_available(isa)) continue;
    cfg.isa = isa;
    check_pair(q, r, cfg, simd::isa_name(isa));
  }
}

// Query codes past the in-register table run on the diagonal kernel, and
// fail alike where its Shuffle delivery cannot take them.
TEST(PairAlign, QueryCodesPastTheTableTakeTheDiagonalKernel) {
  const seq::Sequence base = seq::generate_sequence(2500, 50);
  const seq::Sequence r = related(base, 80, 2501, 10);
  std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
  codes[7] = 24;
  codes[30] = 31;
  const seq::SeqView q(codes.data(), codes.size());
  AlignConfig cfg;
  cfg.traceback = true;
  cfg.delivery = ScoreDelivery::Gather;
  check_pair(q, r, cfg, "gather");
  Workspace ws;
  EXPECT_EQ(pair_align(q, r, cfg, ws).sweep, Sweep::Diagonal);
  if (column_sweep_host()) {
    cfg.delivery = ScoreDelivery::Auto;  // resolves to Shuffle here
    EXPECT_THROW(diag_align(q, r, cfg, ws), std::invalid_argument);
    EXPECT_THROW(pair_align(q, r, cfg, ws), std::invalid_argument);
  }
  // A reference code past the padded table fails on both kernels.
  std::vector<uint8_t> rc(r.codes().begin(), r.codes().end());
  rc[3] = 40;
  const seq::SeqView bad(rc.data(), rc.size());
  const seq::Sequence q2 = seq::generate_sequence(2502, 50);
  cfg.delivery = ScoreDelivery::Auto;
  EXPECT_THROW(diag_align(q2, bad, cfg, ws), std::invalid_argument);
  EXPECT_THROW(pair_align(q2, bad, cfg, ws), std::invalid_argument);
}

TEST(PairAlign, TracebackOverTheCellCapThrows) {
  const seq::Sequence q = seq::generate_sequence(2600, 20);
  const seq::Sequence r = seq::generate_sequence(2601, 20);
  AlignConfig cfg;
  cfg.traceback = true;
  cfg.max_traceback_cells = 100;
  Workspace ws;
  EXPECT_THROW(diag_align(q, r, cfg, ws), std::length_error);
  EXPECT_THROW(pair_align(q, r, cfg, ws), std::length_error);
  cfg.traceback = false;
  EXPECT_EQ(pair_align(q, r, cfg, ws).score, diag_align(q, r, cfg, ws).score);
}

TEST(PairAlign, EmptyReferenceAndColumnCounts) {
  const seq::Sequence q = seq::generate_sequence(2700, 40);
  const seq::Sequence empty("e", std::vector<uint8_t>{}, seq::Alphabet::protein());
  for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
    AlignConfig cfg;
    cfg.width = w;
    check_pair(q, empty, cfg, "empty ref");
  }
  if (!column_sweep_host()) GTEST_SKIP() << "needs AVX-512 VBMI";
  const seq::Sequence r = seq::generate_sequence(2701, 77);
  Workspace ws;
  const Alignment a = pair_align(q, r, AlignConfig{}, ws);
  EXPECT_EQ(a.sweep, Sweep::Column);
  EXPECT_EQ(a.stats.cells, 40u * 77u);
  EXPECT_EQ(a.stats.vector_cells, a.stats.cells);
  EXPECT_EQ(a.stats.diagonals, 77u);  // the column sweep counts columns
  EXPECT_EQ(a.stats.column_cells, a.stats.cells);
  // A long reference takes the sweep too.
  const seq::Sequence long_r = seq::generate_sequence(2702, 4000);
  const Alignment b = pair_align(q, long_r, AlignConfig{}, ws);
  EXPECT_EQ(b.sweep, Sweep::Column);
  EXPECT_EQ(b.stats.column_cells, 40u * 4000u);
  // The longest query the rule admits takes the sweep, one residue more the
  // diagonal kernel.
  const seq::Sequence at_bound = seq::generate_sequence(2703, kColumnSweepMaxQuery);
  EXPECT_EQ(pair_align(at_bound, r, AlignConfig{}, ws).sweep, Sweep::Column);
  const seq::Sequence past = seq::generate_sequence(2704, kColumnSweepMaxQuery + 1);
  const Alignment c = pair_align(past, r, AlignConfig{}, ws);
  EXPECT_EQ(c.sweep, Sweep::Diagonal);
  EXPECT_EQ(c.stats.column_cells, 0u);
}

// Random shapes and configs: the rule's whole domain plus its edges.
TEST(PairAlign, RandomPairsMatchDiagonalKernel) {
  std::mt19937_64 rng(31337);
  auto names = matrix::ScoreMatrix::builtin_names();
  for (int it = 0; it < 300; ++it) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng() % 300);
    const uint32_t n = 1 + static_cast<uint32_t>(rng() % 600);
    const seq::Sequence q = seq::generate_sequence(rng(), m);
    const seq::Sequence r = rng() % 3 == 0 ? related(q, n, rng(), 8)
                                           : seq::generate_sequence(rng(), n);
    AlignConfig cfg;
    if (rng() % 4 == 0) {
      cfg.scheme = ScoreScheme::Fixed;
      cfg.match = 1 + static_cast<int>(rng() % 8);
      cfg.mismatch = -static_cast<int>(rng() % 8);
    } else {
      cfg.matrix = matrix::ScoreMatrix::find(names[rng() % names.size()]);
    }
    if (rng() % 3 == 0) {
      cfg.gap_model = GapModel::Linear;
      cfg.gap_extend = static_cast<int>(rng() % 6);
    } else {
      cfg.gap_extend = static_cast<int>(rng() % 4);
      cfg.gap_open = cfg.gap_extend + static_cast<int>(rng() % 14);
    }
    const Width widths[] = {Width::Adaptive, Width::W8, Width::W16};
    cfg.width = widths[rng() % 3];
    cfg.traceback = rng() % 2 == 0;
    check_pair(q, r, cfg, label("random", m, n, cfg) + " it=" + std::to_string(it));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace swve::core
