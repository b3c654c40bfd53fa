// The column sweep's template (core/column_kernel.hpp) on the emulated
// engines, at the AVX-512 widths (64 8-bit lanes, 32 16-bit ones): built
// without ISA flags, so every build and host runs it. It must equal
// diag_align in every result field on the pairs of the pair_align tests
// (pair_cases.hpp; every k-th pair of the three largest grids), and the
// scalar model where unsaturated; on an AVX-512 VBMI host it must also
// equal the AVX-512 instantiation.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "core/column_kernel.hpp"
#include "core/scalar_ref.hpp"
#include "host_classes.hpp"
#include "pair_cases.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"
#include "simd/engines_emu.hpp"

namespace swve::core {
namespace {

using pair_cases::max_code;

/// simd::EmuEngine<T, N> with the ops the sweep calls kept out of line: its
/// 48 sweep_block instances then compile in seconds, not minutes (sanitizer
/// builds included), for some run time. Each op is EmuEngine's.
template <class T, int N>
struct OutOfLine : simd::EmuEngine<T, N> {
  using Base = simd::EmuEngine<T, N>;
#define SWVE_OUT_OF_LINE(op) \
  template <class... A>      \
  [[gnu::noinline]] static auto op(A... a) { return Base::op(a...); }
  SWVE_OUT_OF_LINE(zero)
  SWVE_OUT_OF_LINE(set1)
  SWVE_OUT_OF_LINE(loadu)
  SWVE_OUT_OF_LINE(storeu)
  SWVE_OUT_OF_LINE(add_score)
  SWVE_OUT_OF_LINE(sub_floor)
  SWVE_OUT_OF_LINE(max)
  SWVE_OUT_OF_LINE(cmpeq)
  SWVE_OUT_OF_LINE(cmpgt)
  SWVE_OUT_OF_LINE(blend)
  SWVE_OUT_OF_LINE(set_bits_ne)
  SWVE_OUT_OF_LINE(store_dir_u8_masked)
  SWVE_OUT_OF_LINE(store_best_cols)
  SWVE_OUT_OF_LINE(shift_index)
  SWVE_OUT_OF_LINE(shift_up)
  SWVE_OUT_OF_LINE(lookup256)
  SWVE_OUT_OF_LINE(load_table32)
  SWVE_OUT_OF_LINE(lookup32)
#undef SWVE_OUT_OF_LINE
};
using Emu8 = OutOfLine<uint8_t, 64>;
using Emu16 = OutOfLine<uint16_t, 32>;

/// The shapes column_sweep_runs admits on an AVX-512 VBMI host (the part
/// of the rule that does not look at the host), which is the sweep's
/// domain.
bool sweep_domain(const AlignConfig& cfg, size_t m, uint8_t q_max_code) {
  const int64_t limit16 = 65535 - cfg.bias() - cfg.max_subst_score();
  return m >= 1 && m <= kColumnSweepMaxQuery && cfg.band < 0 && cfg.width != Width::W32 &&
         (cfg.scheme == ScoreScheme::Fixed || q_max_code < seq::kShuffleCodes) &&
         static_cast<int64_t>(m) * cfg.max_subst_score() < limit16;
}

Alignment emu_sweep(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg, Workspace& ws) {
  return column_sweep<Emu8, Emu16>(q, r, max_code(r), cfg, ws);
}

/// Every result field but isa_used, which the caller of the template sets.
void expect_same(const Alignment& a, const Alignment& b, const std::string& what) {
  EXPECT_EQ(a.score, b.score) << what;
  EXPECT_EQ(a.end_query, b.end_query) << what;
  EXPECT_EQ(a.end_ref, b.end_ref) << what;
  EXPECT_EQ(a.begin_query, b.begin_query) << what;
  EXPECT_EQ(a.begin_ref, b.begin_ref) << what;
  EXPECT_EQ(a.cigar, b.cigar) << what << " " << a.cigar.to_string() << " vs "
                              << b.cigar.to_string();
  EXPECT_EQ(a.width_used, b.width_used) << what;
  EXPECT_EQ(a.sweep, b.sweep) << what;
  EXPECT_EQ(a.saturated_8, b.saturated_8) << what;
  EXPECT_EQ(a.saturated_16, b.saturated_16) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.stats.cells, b.stats.cells) << what;
  EXPECT_EQ(a.stats.vector_cells, b.stats.vector_cells) << what;
  EXPECT_EQ(a.stats.scalar_cells, b.stats.scalar_cells) << what;
  EXPECT_EQ(a.stats.diagonals, b.stats.diagonals) << what;
  EXPECT_EQ(a.stats.column_cells, b.stats.column_cells) << what;
}

/// The emulated sweep against diag_align and, unsaturated, the scalar
/// model. The two kernels differ by design in `sweep` and in how they split
/// and count their cells (the sweep's steps are columns, all of them
/// vector ones); the rest must be equal.
void check_emu(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
               const std::string& what) {
  if (!sweep_domain(cfg, q.length, max_code(q))) return;
  Workspace ws;
  const Alignment d = diag_align(q, r, cfg, ws);
  Alignment e = emu_sweep(q, r, cfg, ws);
  EXPECT_EQ(e.sweep, Sweep::Column) << what;
  EXPECT_EQ(e.stats.diagonals, r.length) << what;
  EXPECT_EQ(e.stats.vector_cells, e.stats.cells) << what;
  EXPECT_EQ(e.stats.scalar_cells, 0u) << what;
  EXPECT_EQ(e.stats.column_cells, e.stats.cells) << what;
  e.sweep = d.sweep;
  const uint64_t cells = e.stats.cells;
  e.stats = d.stats;
  e.stats.cells = cells;
  expect_same(e, d, what);
  if (d.saturated) return;
  const Alignment ref = ref_align(q, r, cfg);
  EXPECT_EQ(e.score, ref.score) << what;
  EXPECT_EQ(e.end_query, ref.end_query) << what;
  EXPECT_EQ(e.end_ref, ref.end_ref) << what;
  if (cfg.traceback && ref.score > 0) {
    EXPECT_EQ(e.cigar, ref.cigar) << what;
  }
}

/// check_emu on every k-th pair of a generator. k is coprime with the
/// generators' inner loop counts, so every config still runs: the emulated
/// sweep costs several times what diag_align does, and the full grids
/// would take minutes under AddressSanitizer.
auto every(int k) {
  return [k, n = 0](seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                    const std::string& what) mutable {
    if (n++ % k == 0) check_emu(q, r, cfg, what);
  };
}

TEST(ColumnEmu, DomainIsTheRuleOnAVbmiHost) {
#if defined(SWVE_HAVE_AVX512_BUILD)
  std::mt19937_64 rng(7);
  for (int it = 0; it < 2000; ++it) {
    AlignConfig cfg;
    if (rng() % 2 == 0) {
      cfg.scheme = ScoreScheme::Fixed;
      cfg.match = static_cast<int>(rng() % 700);
    }
    cfg.band = rng() % 8 == 0 ? 10 : -1;
    const Width widths[] = {Width::Adaptive, Width::W8, Width::W16, Width::W32};
    cfg.width = widths[rng() % 4];
    const size_t m = rng() % 300;
    const uint8_t q_max = static_cast<uint8_t>(rng() % 32);
    EXPECT_EQ(sweep_domain(cfg, m, q_max),
              column_sweep_runs(cfg, simd::Isa::Avx512, m, q_max, host_classes::vbmi))
        << "m=" << m << " q_max=" << int{q_max};
  }
#else
  GTEST_SKIP() << "the rule admits the sweep only in builds with the AVX-512 kernels";
#endif
}

TEST(ColumnEmu, LengthGridMatchesDiagonalKernel) { pair_cases::length_grid(every(3)); }

TEST(ColumnEmu, EveryMatrixAndFixedScoring) { pair_cases::every_matrix_and_fixed(check_emu); }

TEST(ColumnEmu, DnaMatchesDiagonalKernel) { pair_cases::dna(check_emu); }

TEST(ColumnEmu, SaturatingPairsWidenInPlace) { pair_cases::saturating(check_emu); }

TEST(ColumnEmu, ExtremeGapPenalties) { pair_cases::extreme_gaps(check_emu); }

TEST(ColumnEmu, VerticalGapsCrossEveryScanStep) { pair_cases::vertical_gaps(every(7)); }

TEST(ColumnEmu, LongReferencesCrossLongGaps) { pair_cases::long_references(every(5)); }

TEST(ColumnEmu, EmptyReference) { pair_cases::empty_reference(check_emu); }

TEST(ColumnEmu, RandomPairsMatchDiagonalKernel) {
  pair_cases::random_pairs(check_emu, 4242, 300);
}

// The emulated and the AVX-512 instantiations agree in every field on
// random pairs (the VM-scale run of this comparison is in EXPERIMENTS.md).
TEST(ColumnEmu, MatchesTheAvx512Instantiation) {
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (!simd::isa_available(simd::Isa::Avx512) || !simd::cpu_features().avx512vbmi)
    GTEST_SKIP() << "needs AVX-512 VBMI";
  pair_cases::random_pairs(
      [](seq::SeqView q, seq::SeqView r, const AlignConfig& cfg, const std::string& what) {
        if (!sweep_domain(cfg, q.length, max_code(q))) return;
        Workspace ws;
        Alignment v = column_avx512(q, r, max_code(r), cfg, ws);
        EXPECT_EQ(v.isa_used, simd::Isa::Avx512) << what;
        expect_same(emu_sweep(q, r, cfg, ws), v, what);
      },
      5151, 500);
#else
  GTEST_SKIP() << "built without the AVX-512 kernels";
#endif
}

}  // namespace
}  // namespace swve::core
