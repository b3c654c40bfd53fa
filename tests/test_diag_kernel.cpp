// Differential tests: every diagonal-kernel instantiation (ISA x width x
// gap model x score scheme x traceback) against the golden scalar model.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

struct Param {
  simd::Isa isa;
  Width width;
  // gtest prints a parameter that has no PrintTo overload as a byte dump,
  // and that dump becomes part of each discovered test name. Spelling the
  // padding out as zeroed bytes keeps stale stack bytes (which vary with
  // ASLR) out of the names.
  uint8_t zero_pad[3] = {};
};
static_assert(std::has_unique_object_representations_v<Param>);

std::vector<Param> kernel_params() {
  std::vector<Param> p;
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Sse41)) isas.push_back(simd::Isa::Sse41);
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);
  for (simd::Isa isa : isas)
    for (Width w : {Width::W8, Width::W16, Width::W32, Width::Adaptive})
      p.push_back({isa, w});
  return p;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string w;
  switch (info.param.width) {
    case Width::W8: w = "w8"; break;
    case Width::W16: w = "w16"; break;
    case Width::W32: w = "w32"; break;
    case Width::Adaptive: w = "adaptive"; break;
  }
  return std::string(simd::isa_name(info.param.isa)) + "_" + w;
}

class DiagKernelTest : public ::testing::TestWithParam<Param> {
 protected:
  AlignConfig base_config() {
    AlignConfig cfg;
    cfg.isa = GetParam().isa;
    cfg.width = GetParam().width;
    return cfg;
  }
  Workspace ws_;
};

void expect_equal(const Alignment& got, const Alignment& ref, const char* what) {
  ASSERT_FALSE(got.saturated) << what;
  EXPECT_EQ(got.score, ref.score) << what;
  EXPECT_EQ(got.end_query, ref.end_query) << what;
  EXPECT_EQ(got.end_ref, ref.end_ref) << what;
}

TEST_P(DiagKernelTest, MatchesGoldenOnRandomPairs) {
  std::mt19937_64 rng(101);
  for (int it = 0; it < 40; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 250);
    AlignConfig cfg = base_config();
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;  // legal for fixed narrow widths
    Alignment ref = ref_align(q, r, cfg);
    expect_equal(got, ref, "random pair");
  }
}

TEST_P(DiagKernelTest, MatchesGoldenAcrossGapModelsAndSchemes) {
  std::mt19937_64 rng(102);
  for (int scheme = 0; scheme < 2; ++scheme)
    for (int gm = 0; gm < 2; ++gm)
      for (int it = 0; it < 8; ++it) {
        auto q = seq::generate_sequence(rng(), 1 + rng() % 120);
        auto r = seq::generate_sequence(rng(), 1 + rng() % 120);
        AlignConfig cfg = base_config();
        cfg.scheme = scheme ? ScoreScheme::Fixed : ScoreScheme::Matrix;
        cfg.gap_model = gm ? GapModel::Linear : GapModel::Affine;
        cfg.gap_open = 6 + static_cast<int>(rng() % 8);
        cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
        Alignment got = diag_align(q, r, cfg, ws_);
        if (got.saturated) continue;
        expect_equal(got, ref_align(q, r, cfg), "scheme/gap sweep");
      }
}

TEST_P(DiagKernelTest, MatchesGoldenOnAllMatrices) {
  std::mt19937_64 rng(103);
  for (const std::string& name : matrix::ScoreMatrix::builtin_names()) {
    auto q = seq::generate_sequence(rng(), 90);
    auto r = seq::generate_sequence(rng(), 110);
    AlignConfig cfg = base_config();
    cfg.matrix = matrix::ScoreMatrix::find(name);
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;
    expect_equal(got, ref_align(q, r, cfg), name.c_str());
  }
}

TEST_P(DiagKernelTest, RaggedShapesExerciseScalarTail) {
  // Lengths around the lane counts hit every ragged-diagonal case.
  std::mt19937_64 rng(104);
  for (int m : {1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65})
    for (int n : {1, 5, 16, 33, 64}) {
      auto q = seq::generate_sequence(rng(), static_cast<uint32_t>(m));
      auto r = seq::generate_sequence(rng(), static_cast<uint32_t>(n));
      AlignConfig cfg = base_config();
      Alignment got = diag_align(q, r, cfg, ws_);
      if (got.saturated) continue;
      expect_equal(got, ref_align(q, r, cfg), "ragged shape");
    }
}

TEST_P(DiagKernelTest, CellAccountingIsExact) {
  auto q = seq::generate_sequence(7, 70);
  auto r = seq::generate_sequence(8, 90);
  AlignConfig cfg = base_config();
  if (cfg.width == Width::Adaptive) cfg.width = Width::W16;
  Alignment a = diag_align(q, r, cfg, ws_);
  EXPECT_EQ(a.stats.cells, 70u * 90u);
  EXPECT_EQ(a.stats.vector_cells + a.stats.scalar_cells, a.stats.cells);
  EXPECT_EQ(a.stats.diagonals, 70u + 90u - 1u);
}

TEST_P(DiagKernelTest, TracebackReplaysToReportedScore) {
  std::mt19937_64 rng(105);
  for (int it = 0; it < 25; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 150);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 150);
    AlignConfig cfg = base_config();
    cfg.traceback = true;
    cfg.gap_model = (it & 1) ? GapModel::Linear : GapModel::Affine;
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated || got.score == 0) continue;
    Alignment ref = ref_align(q, r, cfg);
    expect_equal(got, ref, "traceback pair");
    EXPECT_EQ(replay_score(q, r, cfg, got), got.score);
    EXPECT_EQ(got.begin_query, ref.begin_query);
    EXPECT_EQ(got.begin_ref, ref.begin_ref);
    EXPECT_EQ(got.cigar, ref.cigar);
  }
}

TEST_P(DiagKernelTest, AllScoreDeliveriesAgree) {
  std::mt19937_64 rng(107);
  for (int it = 0; it < 12; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 200);
    AlignConfig cfg = base_config();
    cfg.traceback = (it & 1) != 0;
    Alignment ref = ref_align(q, r, cfg);
    for (ScoreDelivery d : {ScoreDelivery::Gather, ScoreDelivery::Fill,
                            ScoreDelivery::Shuffle, ScoreDelivery::Auto}) {
      cfg.delivery = d;
      Alignment got = diag_align(q, r, cfg, ws_);
      if (got.saturated) continue;
      EXPECT_EQ(got.score, ref.score) << "delivery " << static_cast<int>(d);
      EXPECT_EQ(got.end_query, ref.end_query);
      EXPECT_EQ(got.end_ref, ref.end_ref);
      if (cfg.traceback && got.score > 0) EXPECT_EQ(got.cigar, ref.cigar);
    }
  }
}

TEST_P(DiagKernelTest, EmptyInputs) {
  seq::Sequence e("e", "", seq::Alphabet::protein());
  auto q = seq::generate_sequence(1, 10);
  AlignConfig cfg = base_config();
  Alignment a = diag_align(e, q, cfg, ws_);
  EXPECT_EQ(a.score, 0);
  EXPECT_EQ(a.end_query, -1);
  a = diag_align(q, e, cfg, ws_);
  EXPECT_EQ(a.score, 0);
  a = diag_align(e, e, cfg, ws_);
  EXPECT_EQ(a.score, 0);
}

TEST_P(DiagKernelTest, HighIdentityPairSaturatesNarrowWidths) {
  // ~600 residues of near-identity: score ~ 600*5 >> 255.
  auto q = seq::generate_sequence(9, 600);
  auto hom = seq::mutate(q, 10, 0.05);
  AlignConfig cfg = base_config();
  Alignment ref = ref_align(q, hom, cfg);
  ASSERT_GT(ref.score, 300);  // enough to overflow 8-bit
  Alignment got = diag_align(q, hom, cfg, ws_);
  switch (GetParam().width) {
    case Width::W8:
      EXPECT_TRUE(got.saturated);
      break;
    case Width::Adaptive:
      EXPECT_TRUE(got.saturated_8);
      EXPECT_FALSE(got.saturated);
      EXPECT_EQ(got.score, ref.score);
      break;
    default:
      EXPECT_FALSE(got.saturated);
      EXPECT_EQ(got.score, ref.score);
      break;
  }
}

TEST_P(DiagKernelTest, DeterministicAcrossRepeats) {
  auto q = seq::generate_sequence(11, 130);
  auto r = seq::generate_sequence(12, 170);
  AlignConfig cfg = base_config();
  cfg.traceback = true;
  Alignment a = diag_align(q, r, cfg, ws_);
  for (int rep = 0; rep < 3; ++rep) {
    Alignment b = diag_align(q, r, cfg, ws_);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.end_query, b.end_query);
    EXPECT_EQ(a.end_ref, b.end_ref);
    EXPECT_EQ(a.cigar, b.cigar);
  }
}

TEST_P(DiagKernelTest, WorkspaceReuseAcrossShapes) {
  // Shrinking then growing inputs must not leak state between calls.
  std::mt19937_64 rng(106);
  AlignConfig cfg = base_config();
  for (uint32_t len : {200u, 3u, 150u, 1u, 64u, 300u, 2u}) {
    auto q = seq::generate_sequence(rng(), len);
    auto r = seq::generate_sequence(rng(), len / 2 + 1);
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;
    expect_equal(got, ref_align(q, r, cfg), "workspace reuse");
  }
}

TEST_P(DiagKernelTest, TracebackCellCapThrows) {
  AlignConfig cfg = base_config();
  cfg.traceback = true;
  cfg.max_traceback_cells = 10;
  auto q = seq::generate_sequence(1, 20);
  auto r = seq::generate_sequence(2, 20);
  EXPECT_THROW(diag_align(q, r, cfg, ws_), std::length_error);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DiagKernelTest,
                         ::testing::ValuesIn(kernel_params()), param_name);

TEST(DiagDispatch, RejectsAdaptiveWidthAtKernelLevel) {
  DiagRequest rq;
  EXPECT_THROW(run_diag_kernel(rq, simd::Isa::Scalar, Width::Adaptive),
               std::invalid_argument);
}

TEST(DiagDispatch, AutoIsaResolvesAndRuns) {
  Workspace ws;
  auto q = seq::generate_sequence(1, 50);
  auto r = seq::generate_sequence(2, 60);
  AlignConfig cfg;
  cfg.isa = simd::Isa::Auto;
  Alignment a = diag_align(q, r, cfg, ws);
  EXPECT_EQ(a.isa_used, simd::resolve_isa(simd::Isa::Auto));
  EXPECT_EQ(a.score, ref_align(q, r, cfg).score);
}

}  // namespace
}  // namespace swve::core
