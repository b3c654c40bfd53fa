// The Parasail-style baselines (striped / scan / diag) against the golden
// scalar model, including lazy-F adversarial inputs.
#include <gtest/gtest.h>

#include <random>

#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::baseline {
namespace {

using core::AlignConfig;
using core::GapModel;
using core::ScoreScheme;
using core::Workspace;

bool have_avx2() { return simd::isa_available(simd::Isa::Avx2); }

class BaselineSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!have_avx2()) GTEST_SKIP() << "baseline kernels require AVX2";
  }
  Workspace ws_;
};

TEST_F(BaselineSweep, StripedMatchesGoldenOnRandomPairs) {
  std::mt19937_64 rng(31);
  for (int it = 0; it < 50; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 250);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 250);
    AlignConfig cfg;
    cfg.gap_open = 4 + static_cast<int>(rng() % 12);
    cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
    int ref = core::ref_align(q, r, cfg).score;
    StripedAligner sa(q, cfg);
    BaselineResult r16 = sa.align16(r, ws_);
    EXPECT_EQ(r16.score, ref) << "striped16 it=" << it;
    BaselineResult r8 = sa.align8(r, ws_);
    if (!r8.saturated) {
      EXPECT_EQ(r8.score, ref) << "striped8 it=" << it;
    }
    EXPECT_EQ(sa.align(r, ws_).score, ref) << "striped adaptive it=" << it;
  }
}

TEST_F(BaselineSweep, ScanMatchesGoldenOnRandomPairs) {
  std::mt19937_64 rng(32);
  for (int it = 0; it < 50; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 250);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 250);
    AlignConfig cfg;
    cfg.gap_open = 4 + static_cast<int>(rng() % 12);
    cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
    int ref = core::ref_align(q, r, cfg).score;
    ScanAligner sa(q, cfg);
    EXPECT_EQ(sa.align16(r, ws_).score, ref) << "scan16 it=" << it;
  }
}

TEST_F(BaselineSweep, DiagBasicMatchesGoldenOnRandomPairs) {
  std::mt19937_64 rng(33);
  for (int it = 0; it < 50; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 250);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 250);
    AlignConfig cfg;
    cfg.gap_open = 4 + static_cast<int>(rng() % 12);
    cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
    int ref = core::ref_align(q, r, cfg).score;
    DiagBasicAligner da(q, cfg);
    EXPECT_EQ(da.align16(r, ws_).score, ref) << "diag16 it=" << it;
  }
}

// Adversarial for the lazy-F loop: cheap gaps and long identical runs force
// vertical-gap chains across the whole striped vector.
TEST_F(BaselineSweep, LazyFGapHeavyInputs) {
  std::mt19937_64 rng(34);
  for (int it = 0; it < 30; ++it) {
    // Low-complexity sequences: few distinct residues, long runs.
    auto make_runny = [&](uint32_t len) {
      std::vector<uint8_t> codes;
      while (codes.size() < len) {
        uint8_t c = static_cast<uint8_t>(rng() % 3);  // A/R/N only
        size_t run = 1 + rng() % 17;
        for (size_t k = 0; k < run && codes.size() < len; ++k) codes.push_back(c);
      }
      return seq::Sequence("runny", std::move(codes), seq::Alphabet::protein());
    };
    auto q = make_runny(64 + rng() % 200);
    auto r = make_runny(64 + rng() % 200);
    AlignConfig cfg;
    cfg.gap_open = 1 + static_cast<int>(rng() % 2);  // cheap gaps
    cfg.gap_extend = 1;
    int ref = core::ref_align(q, r, cfg).score;
    StripedAligner sa(q, cfg);
    BaselineResult r16 = sa.align16(r, ws_);
    if (!r16.saturated) {
      EXPECT_EQ(r16.score, ref) << "striped16 lazyF it=" << it;
    }
    EXPECT_GT(r16.lazy_f_iterations, 0u);
    ScanAligner sc(q, cfg);
    BaselineResult s16 = sc.align16(r, ws_);
    if (!s16.saturated) {
      EXPECT_EQ(s16.score, ref) << "scan16 lazyF it=" << it;
    }
  }
}

TEST_F(BaselineSweep, LazyFWorkIsDataDependent) {
  // The paper's determinism point: striped does data-dependent correction
  // work. Aggregate the correction iterations of gap-friendly scoring vs
  // gap-hostile scoring over the same low-complexity inputs.
  std::mt19937_64 rng(37);
  auto make_runny = [&](uint32_t len) {
    std::vector<uint8_t> codes;
    while (codes.size() < len) {
      uint8_t c = static_cast<uint8_t>(rng() % 3);
      size_t run = 1 + rng() % 17;
      for (size_t k = 0; k < run && codes.size() < len; ++k) codes.push_back(c);
    }
    return seq::Sequence("runny", std::move(codes), seq::Alphabet::protein());
  };
  AlignConfig cfg;
  cfg.gap_open = 2;
  cfg.gap_extend = 1;
  uint64_t iters_runny = 0, iters_random = 0, cells = 0;
  for (int it = 0; it < 20; ++it) {
    uint32_t m = 150 + static_cast<uint32_t>(rng() % 100);
    uint32_t n = 150 + static_cast<uint32_t>(rng() % 100);
    auto q1 = make_runny(m);
    auto r1 = make_runny(n);
    iters_runny += StripedAligner(q1, cfg).align16(r1, ws_).lazy_f_iterations;
    auto q2 = seq::generate_sequence(rng(), m);
    auto r2 = seq::generate_sequence(rng(), n);
    iters_random += StripedAligner(q2, cfg).align16(r2, ws_).lazy_f_iterations;
    cells += static_cast<uint64_t>(m) * n;
  }
  // Identical problem shapes, different residue statistics => materially
  // different amounts of speculative-correction work.
  double ratio = static_cast<double>(iters_runny) /
                 static_cast<double>(std::max<uint64_t>(1, iters_random));
  EXPECT_GT(std::abs(ratio - 1.0), 0.10)
      << "runny=" << iters_runny << " random=" << iters_random;
  EXPECT_GT(iters_runny + iters_random, 0u);
  (void)cells;
}

TEST_F(BaselineSweep, FixedSchemeAndLinearGaps) {
  std::mt19937_64 rng(35);
  for (int it = 0; it < 20; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 120);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 120);
    AlignConfig cfg;
    cfg.scheme = ScoreScheme::Fixed;
    cfg.match = 4;
    cfg.mismatch = -3;
    cfg.gap_model = GapModel::Linear;
    cfg.gap_extend = 2;
    int ref = core::ref_align(q, r, cfg).score;
    StripedAligner sa(q, cfg);
    ScanAligner sc(q, cfg);
    DiagBasicAligner da(q, cfg);
    EXPECT_EQ(sa.align16(r, ws_).score, ref);
    EXPECT_EQ(sc.align16(r, ws_).score, ref);
    EXPECT_EQ(da.align16(r, ws_).score, ref);
  }
}

TEST_F(BaselineSweep, SaturationEscalatesToExactResult) {
  auto q = seq::generate_sequence(40, 400);
  auto hom = seq::mutate(q, 41, 0.02);
  AlignConfig cfg;
  int ref = core::ref_align(q, hom, cfg).score;
  ASSERT_GT(ref, 255);  // must saturate 8-bit
  StripedAligner sa(q, cfg);
  BaselineResult r8 = sa.align8(hom, ws_);
  EXPECT_TRUE(r8.saturated);
  core::Alignment adaptive = sa.align(hom, ws_);
  EXPECT_TRUE(adaptive.saturated_8);
  EXPECT_EQ(adaptive.score, ref);
}

TEST_F(BaselineSweep, TinyInputs) {
  AlignConfig cfg;
  seq::Sequence e("e", "", seq::Alphabet::protein());
  auto q = seq::generate_sequence(42, 1);
  StripedAligner sa(q, cfg);
  EXPECT_EQ(sa.align16(e, ws_).score, 0);
  StripedAligner se(e, cfg);
  EXPECT_EQ(se.align16(q, ws_).score, 0);
  ScanAligner sc(q, cfg);
  EXPECT_EQ(sc.align16(e, ws_).score, 0);
  DiagBasicAligner da(q, cfg);
  EXPECT_EQ(da.align16(e, ws_).score, 0);
}

TEST_F(BaselineSweep, EndRefPointsAtAMaximalColumn) {
  std::mt19937_64 rng(36);
  for (int it = 0; it < 15; ++it) {
    auto q = seq::generate_sequence(rng(), 40 + rng() % 60);
    auto r = seq::generate_sequence(rng(), 40 + rng() % 60);
    AlignConfig cfg;
    StripedAligner sa(q, cfg);
    BaselineResult res = sa.align16(r, ws_);
    if (res.score == 0) continue;
    ASSERT_GE(res.end_ref, 0);
    // Some cell in the reported column must hold the max score.
    auto H = core::ref_matrix(q, r, cfg);
    bool found = false;
    for (size_t i = 0; i < q.length(); ++i)
      if (H[i * r.length() + static_cast<size_t>(res.end_ref)] == res.score)
        found = true;
    EXPECT_TRUE(found) << "it=" << it;
  }
}

}  // namespace
}  // namespace swve::baseline
