// Differential tests: core::pair_align (the column sweep where its rule
// admits the pair, else the diagonal kernel) against diag_align on the same
// config, and both against the golden scalar model. The pair generators
// live in pair_cases.hpp, shared with the emulated sweep's tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "pair_cases.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

using pair_cases::max_code;

bool column_sweep_host() {
  return simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi;
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
  pair_cases::length_grid(check_pair);
}

TEST(PairAlign, EveryMatrixAndFixedScoring) {
  pair_cases::every_matrix_and_fixed(check_pair);
}

TEST(PairAlign, DnaMatchesDiagonalKernel) {
  pair_cases::dna(check_pair);
}

// The 8-bit limit first reached in column 0, in a middle column and in the
// last column: the adaptive sweep continues at 16 bits in place.
TEST(PairAlign, SaturatingPairsWidenInPlace) {
  pair_cases::saturating(check_pair);
  AlignConfig cfg;
  cfg.traceback = true;
  {  // the middle-column pair: it widens
    const seq::Sequence q = seq::generate_sequence(1302, 128);
    const seq::Sequence r = pair_cases::related(q, 128, 1303, 2);
    Workspace ws;
    const Alignment a = pair_align(q, r, cfg, ws);
    EXPECT_TRUE(a.saturated_8);
    EXPECT_EQ(a.width_used, Width::W16);
  }
  {  // the last-column pair: 250 at column 124
    AlignConfig c = cfg;
    c.scheme = ScoreScheme::Fixed;
    c.match = 2;
    c.mismatch = -3;
    const seq::Sequence q = seq::generate_sequence(1304, 125);
    Workspace ws;
    const Alignment a = pair_align(q, q, c, ws);
    EXPECT_EQ(a.score, 250);
    EXPECT_TRUE(a.saturated_8);
    EXPECT_EQ(a.width_used, Width::W16);
  }
}

TEST(PairAlign, ExtremeGapPenalties) {
  pair_cases::extreme_gaps(check_pair);
}

TEST(PairAlign, VerticalGapsCrossEveryScanStep) {
  pair_cases::vertical_gaps(check_pair);
}

TEST(PairAlign, LongReferencesCrossLongGaps) {
  pair_cases::long_references(check_pair);
}

TEST(PairAlign, OtherShapesTakeTheDiagonalKernel) {
  uint64_t seed = 2100;
  const seq::Sequence q = seq::generate_sequence(seed++, 60);
  const seq::Sequence r = pair_cases::related(q, 90, seed++, 10);
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
  const seq::Sequence r = pair_cases::related(base, 80, 2501, 10);
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
  pair_cases::empty_reference(check_pair);
  const seq::Sequence q = seq::generate_sequence(2700, 40);
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

TEST(PairAlign, RandomPairsMatchDiagonalKernel) {
  pair_cases::random_pairs(check_pair, 31337, 300);
}

}  // namespace
}  // namespace swve::core
