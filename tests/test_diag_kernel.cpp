// Differential tests: every diagonal-kernel instantiation (ISA x width x
// gap model x score scheme x traceback) against the golden scalar model.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "host_classes.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

#if defined(SWVE_TEST_AVX512)
namespace swve::test {
// tests/shuffle_lookup_avx512.cpp
void shuffle_lookup_u8(const uint8_t* mat8, const uint8_t* q, const uint8_t* r,
                       uint8_t* out);
void shuffle_lookup_u16(const uint8_t* mat8, const uint16_t* q,
                        const uint16_t* r, uint16_t* out);
}  // namespace swve::test
#endif

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

std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  for (simd::Isa isa : {simd::Isa::Avx2, simd::Isa::Avx512})
    if (simd::isa_available(isa)) isas.push_back(isa);
  return isas;
}

std::vector<Param> kernel_params() {
  std::vector<Param> p;
  for (simd::Isa isa : available_isas())
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
  std::vector<std::pair<seq::Sequence, seq::Sequence>> pairs;
  for (int it = 0; it < 12; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 200);
    pairs.emplace_back(std::move(q), std::move(r));
  }
  // Around the column sweep's limit (kColumnSweepMaxQuery) and well past
  // it, against near-copies, so the narrow rungs saturate.
  for (size_t m : {255u, 256u, 257u, 700u}) {
    auto q = seq::generate_sequence(rng(), m);
    auto r = seq::mutate(q, rng(), 0.1);
    pairs.emplace_back(std::move(q), std::move(r));
  }
  for (size_t it = 0; it < pairs.size(); ++it) {
    const auto& [q, r] = pairs[it];
    AlignConfig cfg = base_config();
    cfg.traceback = (it & 1) != 0;
    Alignment ref = ref_align(q, r, cfg);
    // The query feed a search request builds once and hands to every call.
    const PreparedQuery prep(q);
    for (ScoreDelivery d : {ScoreDelivery::Gather, ScoreDelivery::Fill,
                            ScoreDelivery::Shuffle, ScoreDelivery::Auto}) {
      cfg.delivery = d;
      SCOPED_TRACE(::testing::Message() << "pair " << it << " (m "
                                        << q.length() << "), delivery "
                                        << static_cast<int>(d));
      Alignment got = diag_align(q, r, cfg, ws_);
      Alignment fed = diag_align(q, r, cfg, ws_, &prep);
      EXPECT_EQ(fed.score, got.score);
      EXPECT_EQ(fed.end_query, got.end_query);
      EXPECT_EQ(fed.end_ref, got.end_ref);
      EXPECT_EQ(fed.begin_query, got.begin_query);
      EXPECT_EQ(fed.begin_ref, got.begin_ref);
      EXPECT_EQ(fed.cigar, got.cigar);
      EXPECT_EQ(fed.width_used, got.width_used);
      EXPECT_EQ(fed.saturated_8, got.saturated_8);
      EXPECT_EQ(fed.saturated_16, got.saturated_16);
      EXPECT_EQ(fed.saturated, got.saturated);
      if (got.saturated) continue;  // a lower bound, not the exact score
      EXPECT_EQ(got.score, ref.score);
      EXPECT_EQ(got.end_query, ref.end_query);
      EXPECT_EQ(got.end_ref, ref.end_ref);
      if (cfg.traceback && got.score > 0) {
        EXPECT_EQ(got.cigar, ref.cigar);
      }
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

// ---- score delivery -----------------------------------------------------

// The rule's value per host class is pinned by KernelRules.EveryHostClass;
// on this host it is a function of the detected features, the default.
TEST(DiagDispatch, AutoDeliveryIsAFixedRule) {
  const AlignConfig cfg;
  for (simd::Isa isa : available_isas()) {
    const ScoreDelivery first = delivery_for(cfg, isa, Width::Adaptive);
    for (int k = 0; k < 100; ++k)
      ASSERT_EQ(delivery_for(cfg, isa, Width::Adaptive), first);
    for (Width w : {Width::W8, Width::W16, Width::W32})
      EXPECT_EQ(delivery_for(cfg, isa, w),
                delivery_for(cfg, isa, w, simd::cpu_features()))
          << simd::isa_name(isa) << " width " << static_cast<int>(w);
    EXPECT_EQ(delivery_for(cfg, isa, Width::Adaptive),
              delivery_for(cfg, isa, Width::W8));
  }
}

TEST(DiagDispatch, ShuffleDegradesToTheRuleWhereItCannotRun) {
  AlignConfig cfg;
  cfg.delivery = ScoreDelivery::Shuffle;
  const simd::CpuFeatures& vbmi = host_classes::vbmi;
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx512, Width::W8, vbmi),
            ScoreDelivery::Shuffle);
  // Not at 32 bits, not below AVX-512, not without VBMI.
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx512, Width::W32, vbmi),
            ScoreDelivery::Gather);
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx2, Width::W8, vbmi),
            ScoreDelivery::Gather);
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx512, Width::W8, host_classes::avx512),
            ScoreDelivery::Gather);
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx2, Width::W8,
                         host_classes::avx2_slow_gathers),
            ScoreDelivery::Fill);
  // Not with a matrix of more codes than the in-register table holds.
  std::vector<int8_t> square(30 * 30, -1);
  for (int a = 0; a < 30; ++a) square[static_cast<size_t>(a) * 30 + a] = 4;
  const matrix::ScoreMatrix wide("wide", seq::Alphabet::protein(), square, 30);
  cfg.matrix = &wide;
  EXPECT_EQ(delivery_for(cfg, simd::Isa::Avx512, Width::W8, vbmi),
            ScoreDelivery::Gather);
}

TEST(DiagDispatch, RejectsResidueCodesTheKernelCannotIndex) {
  Workspace ws;
  const std::vector<uint8_t> qv = {0, 5, 23, 7};
  std::vector<uint8_t> rowv = {1, 2, 24, 3};   // 24: a padding row, no Shuffle
  std::vector<uint8_t> pastv = {1, 2, 32, 3};  // 32: past the padded table
  const seq::SeqView q(qv.data(), qv.size()), row(rowv.data(), rowv.size()),
      past(pastv.data(), pastv.size());
  for (simd::Isa isa : available_isas())
    for (ScoreDelivery d : {ScoreDelivery::Auto, ScoreDelivery::Gather,
                            ScoreDelivery::Fill, ScoreDelivery::Shuffle}) {
      AlignConfig cfg;
      cfg.isa = isa;
      cfg.delivery = d;
      EXPECT_NO_THROW(diag_align(q, q, cfg, ws));
      EXPECT_THROW(diag_align(q, past, cfg, ws), std::invalid_argument);
      EXPECT_THROW(diag_align(past, q, cfg, ws), std::invalid_argument);
      // Any delivery reads a whole 32-column row for a reference code.
      EXPECT_EQ(diag_align(q, row, cfg, ws).score, ref_align(q, row, cfg).score);
      if (delivery_for(cfg, isa, cfg.width) == ScoreDelivery::Shuffle) {
        EXPECT_THROW(diag_align(row, q, cfg, ws), std::invalid_argument);
      } else {
        EXPECT_EQ(diag_align(row, q, cfg, ws).score,
                  ref_align(row, q, cfg).score);
      }
    }
  // The Fixed scheme compares codes and indexes no table.
  AlignConfig fixed;
  fixed.scheme = ScoreScheme::Fixed;
  pastv[2] = 200;
  EXPECT_NO_THROW(diag_align(past, past, fixed, ws));
}

#if defined(SWVE_TEST_AVX512)
TEST(ShuffleLookup, EveryCodePairMatchesTheBiasedTable) {
  if (!simd::cpu_features().avx512vbmi) GTEST_SKIP() << "needs AVX-512 VBMI";
  std::vector<const matrix::ScoreMatrix*> mats = {
      &matrix::ScoreMatrix::dna_iupac()};
  for (const std::string& name : matrix::ScoreMatrix::builtin_names())
    mats.push_back(matrix::ScoreMatrix::find(name));
  for (const matrix::ScoreMatrix* m : mats) {
    const uint8_t* mat8 = m->rows_biased_u8();
    for (int qc = 0; qc < seq::kShuffleCodes; ++qc) {
      // 64 byte lanes: every reference code twice.
      uint8_t q8[64], r8[64], out8[64];
      for (int k = 0; k < 64; ++k) {
        q8[k] = static_cast<uint8_t>(qc);
        r8[k] = static_cast<uint8_t>(k % seq::kMatrixStride);
      }
      test::shuffle_lookup_u8(mat8, q8, r8, out8);
      uint16_t q16[32], r16[32], out16[32];
      for (int k = 0; k < 32; ++k) {
        q16[k] = static_cast<uint16_t>(qc);
        r16[k] = static_cast<uint16_t>(k);
      }
      test::shuffle_lookup_u16(mat8, q16, r16, out16);
      for (int k = 0; k < 64; ++k)
        ASSERT_EQ(out8[k], mat8[qc * seq::kMatrixStride + r8[k]])
            << m->name() << " q " << qc << " r " << int{r8[k]};
      for (int k = 0; k < 32; ++k)
        ASSERT_EQ(out16[k], mat8[qc * seq::kMatrixStride + k])
            << m->name() << " q " << qc << " r " << k << " (16-bit)";
    }
  }
}
#endif

// Sequences whose residues come mostly from `codes`.
seq::Sequence dense_in(std::mt19937_64& rng, const std::vector<uint8_t>& codes,
                       int alphabet, uint32_t len, const seq::Alphabet& a) {
  std::vector<uint8_t> out(len);
  for (auto& c : out)
    c = rng() % 10 < 7 ? codes[rng() % codes.size()]
                       : static_cast<uint8_t>(rng() % static_cast<uint64_t>(alphabet));
  return seq::Sequence("dense", std::move(out), a);
}

TEST(DiagDelivery, TopSegmentAndDnaCodesAgreeAcrossDeliveries) {
  // Codes 20-23 (B, Z, X, *) are the lookup's top segment; DNA uses 16.
  struct Case {
    const matrix::ScoreMatrix* matrix;
    const seq::Alphabet* alphabet;
    std::vector<uint8_t> dense;
  };
  const std::vector<Case> cases = {
      {&matrix::ScoreMatrix::blosum62(), &seq::Alphabet::protein(),
       {20, 21, 22, 23}},
      {&matrix::ScoreMatrix::pam250(), &seq::Alphabet::protein(),
       {20, 21, 22, 23}},
      {&matrix::ScoreMatrix::dna_iupac(), &seq::Alphabet::dna(),
       {0, 1, 2, 3, 14, 15}},
  };
  std::mt19937_64 rng(108);
  Workspace ws;
  for (const Case& c : cases)
    for (Width w : {Width::W8, Width::W16})
      for (int it = 0; it < 12; ++it) {
        const int alphabet = c.alphabet->size();
        auto q = dense_in(rng, c.dense, alphabet, 20 + rng() % 150, *c.alphabet);
        auto r = it % 3 == 0 ? seq::mutate(q, rng(), 0.2)
                             : dense_in(rng, c.dense, alphabet, 20 + rng() % 150,
                                        *c.alphabet);
        AlignConfig cfg;
        cfg.matrix = c.matrix;
        cfg.traceback = true;
        cfg.width = w;
        const Alignment ref = ref_align(q, r, cfg);
        for (ScoreDelivery d : {ScoreDelivery::Shuffle, ScoreDelivery::Gather,
                                ScoreDelivery::Fill}) {
          cfg.delivery = d;
          const Alignment got = diag_align(q, r, cfg, ws);
          if (got.saturated) continue;  // a hot pair at 8 bits
          const std::string what = c.matrix->name() + " w" +
                                   std::to_string(static_cast<int>(w)) +
                                   " delivery " +
                                   std::to_string(static_cast<int>(d));
          EXPECT_EQ(got.score, ref.score) << what;
          EXPECT_EQ(got.end_query, ref.end_query) << what;
          EXPECT_EQ(got.end_ref, ref.end_ref) << what;
          EXPECT_EQ(got.cigar, ref.cigar) << what;
        }
      }
}

TEST(DiagDelivery, CodesPastTheMatrixAlphabetScoreItsMinimum) {
  // Protein codes 16-23 against the 16-code DNA matrix land on the padding
  // rows and columns, which hold the matrix minimum, in every delivery.
  const matrix::ScoreMatrix& dna = matrix::ScoreMatrix::dna_iupac();
  EXPECT_EQ(dna.score(20, 0), dna.min_score());
  EXPECT_EQ(dna.score(0, 20), dna.min_score());
  std::mt19937_64 rng(109);
  Workspace ws;
  for (int it = 0; it < 8; ++it) {
    auto q = dense_in(rng, {16, 17, 20, 23}, 24, 30 + rng() % 100,
                      seq::Alphabet::protein());
    auto r = it % 2 == 0 ? seq::mutate(q, rng(), 0.2)
                         : dense_in(rng, {0, 1, 18, 22}, 24, 30 + rng() % 100,
                                    seq::Alphabet::protein());
    AlignConfig cfg;
    cfg.matrix = &dna;
    cfg.traceback = true;
    const Alignment ref = ref_align(q, r, cfg);
    for (simd::Isa isa : available_isas())
      for (ScoreDelivery d : {ScoreDelivery::Shuffle, ScoreDelivery::Gather,
                              ScoreDelivery::Fill}) {
        cfg.isa = isa;
        cfg.delivery = d;
        const Alignment got = diag_align(q, r, cfg, ws);
        const std::string what = std::string(simd::isa_name(isa)) +
                                 " delivery " +
                                 std::to_string(static_cast<int>(d));
        EXPECT_EQ(got.score, ref.score) << what;
        EXPECT_EQ(got.end_query, ref.end_query) << what;
        EXPECT_EQ(got.end_ref, ref.end_ref) << what;
        EXPECT_EQ(got.cigar, ref.cigar) << what;
      }
  }
}

// ---- adaptive ladder: a saturated rung widens in place ----------------------

// Lanes of each ISA's 8-bit diagonal engine.
int lanes8(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::Avx512:
      return 64;
    case simd::Isa::Avx2:
      return 32;
    default:
      return 16;  // the portable engine
  }
}

// Where an 8-bit kernel of `lanes` lanes meets the first anti-diagonal that
// holds a cell at or above `limit`: a scalar tiny diagonal, a full vector,
// or only the masked tail vector.
enum class SatSite { None, Scalar, Body, Tail };

struct FirstSaturation {
  SatSite site = SatSite::None;
  int diag = -1;
};

FirstSaturation first_saturation(const std::vector<int>& H, int m, int n,
                                 int band, int64_t limit, int lanes) {
  for (int d = 0; d < m + n - 1; ++d) {
    const auto [lo, hi] = detail::diag_range(d, m, n, band);
    if (hi < lo) continue;
    const int len = hi - lo + 1;
    const int tail = lo + len / lanes * lanes;  // first masked-tail row
    bool hit = false, body = false;
    for (int i = lo; i <= hi; ++i)
      if (H[static_cast<size_t>(i) * static_cast<size_t>(n) +
            static_cast<size_t>(d - i)] >= limit) {
        hit = true;
        body = body || i < tail;
      }
    if (!hit) continue;
    if (len <= detail::kScalarDiagonal) return {SatSite::Scalar, d};
    return {body ? SatSite::Body : SatSite::Tail, d};
  }
  return {};
}

// One rung of the adaptive ladder run alone: `width` may widen to 32 bits,
// continuing from `resume` when given.
DiagOutput ladder_rung(const seq::Sequence& q, const seq::Sequence& r,
                       const AlignConfig& cfg, simd::Isa isa, Width width,
                       Workspace& ws, const DiagHandoff* resume = nullptr) {
  AlignConfig resolved = cfg;
  resolved.delivery = delivery_for(cfg, isa, width);
  DiagRequest rq;
  rq.q = q.data();
  rq.m = static_cast<int>(q.length());
  rq.r = r.data();
  rq.n = static_cast<int>(r.length());
  rq.cfg = &resolved;
  rq.ws = &ws;
  rq.may_widen = true;
  rq.resume = resume;
  return run_diag_kernel(rq, isa, width);
}

// The whole contract of an Adaptive result against the golden model and a
// fixed 32-bit run of the same config.
void expect_ladder_result(const Alignment& a, const Alignment& ref,
                          const Alignment& w32, int64_t sat8, int64_t sat16,
                          const seq::Sequence& q, const seq::Sequence& r,
                          const std::string& what) {
  const bool s8 = ref.score >= sat8, s16 = ref.score >= sat16;
  EXPECT_FALSE(a.saturated) << what;
  EXPECT_EQ(a.saturated_8, s8) << what;
  EXPECT_EQ(a.saturated_16, s16) << what;
  EXPECT_EQ(a.width_used, s16 ? Width::W32 : s8 ? Width::W16 : Width::W8)
      << what;
  for (const Alignment* want : {&ref, &w32}) {
    EXPECT_EQ(a.score, want->score) << what;
    EXPECT_EQ(a.end_query, want->end_query) << what;
    EXPECT_EQ(a.end_ref, want->end_ref) << what;
    EXPECT_EQ(a.begin_query, want->begin_query) << what;
    EXPECT_EQ(a.begin_ref, want->begin_ref) << what;
    EXPECT_EQ(a.cigar, want->cigar) << what;
  }
  EXPECT_EQ(a.stats.cells, w32.stats.cells) << what;
  EXPECT_EQ(a.stats.diagonals, q.length() + r.length() - 1) << what;
}

seq::Sequence concat(std::initializer_list<const seq::Sequence*> parts) {
  std::vector<uint8_t> codes;
  for (const seq::Sequence* p : parts)
    codes.insert(codes.end(), p->data(), p->data() + p->length());
  return seq::Sequence("cat", std::move(codes), seq::Alphabet::protein());
}

TEST(DiagLadder, EarlyExitMatchesScalarRefAndFixedWidths) {
  // +100 per match: a few matches saturate 8 bits, ~650 saturate 16.
  const matrix::ScoreMatrix hot =
      matrix::ScoreMatrix::match_mismatch(100, -40, seq::Alphabet::protein());
  struct Pair {
    seq::Sequence q, r;
  };
  std::vector<Pair> pairs;
  for (uint32_t len : {90u, 130u}) {
    auto q = seq::generate_sequence(len, len);
    pairs.push_back({q, seq::mutate(q, len + 1, 0.05)});  // saturates 8 bits
  }
  auto big = seq::generate_sequence(7, 720);
  pairs.push_back({big, seq::mutate(big, 8, 0.02)});  // saturates 16 bits
  auto lone = seq::generate_sequence(9, 60);
  pairs.push_back({lone, seq::generate_sequence(10, 70)});
  for (const matrix::ScoreMatrix* m :
       {&hot, &matrix::ScoreMatrix::blosum62()}) {
    AlignConfig cfg;
    cfg.matrix = m;
    cfg.traceback = true;
    const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
    const int64_t sat16 = 65535 - cfg.bias() - cfg.max_subst_score();
    for (simd::Isa isa : available_isas())
      for (const Pair& p : pairs) {
        cfg.isa = isa;
        const std::string what = m->name() + " " + simd::isa_name(isa) +
                                 " m=" + std::to_string(p.q.length());
        cfg.width = Width::Adaptive;
        const Alignment ref = ref_align(p.q, p.r, cfg);
        Workspace ws;
        const Alignment a = diag_align(p.q, p.r, cfg, ws);
        cfg.width = Width::W32;
        const Alignment w32 = diag_align(p.q, p.r, cfg, ws);
        cfg.width = Width::W16;
        const Alignment w16 = diag_align(p.q, p.r, cfg, ws);
        expect_ladder_result(a, ref, w32, sat8, sat16, p.q, p.r, what);
        EXPECT_EQ(w16.saturated, ref.score >= sat16) << what;
        if (!w16.saturated) {
          EXPECT_EQ(a.score, w16.score) << what;
          EXPECT_EQ(a.end_ref, w16.end_ref) << what;
          EXPECT_EQ(a.cigar, w16.cigar) << what;
        }
        // Each saturated rung hands its state on: the ladder computes every
        // cell and every diagonal exactly once (KernelStats, result.hpp).
        EXPECT_EQ(a.stats.cells, p.q.length() * p.r.length()) << what;
        EXPECT_EQ(a.stats.vector_cells + a.stats.scalar_cells, a.stats.cells)
            << what;
      }
  }
}

TEST(DiagLadder, HandOffEdgesMatchScalarRefAndFixedW32) {
  // +20 per match: about a dozen matches saturate 8 bits. Each pair plants
  // a mutated copy behind a random prefix of the query, so the diagonal
  // where the 8-bit rung first saturates falls on full vectors, on the
  // masked tail, or (at the far corner of a short identical pair, and on
  // every diagonal of a band of 2) on the scalar tiny diagonals.
  const matrix::ScoreMatrix warm =
      matrix::ScoreMatrix::match_mismatch(20, -10, seq::Alphabet::protein());
  std::vector<std::pair<seq::Sequence, seq::Sequence>> pairs;
  std::mt19937_64 rng(211);
  for (uint32_t prefix : {0u, 9u, 23u, 47u, 70u, 101u})
    for (uint32_t core : {14u, 40u, 83u}) {
      const auto pre = seq::generate_sequence(rng(), prefix);
      const auto c = seq::generate_sequence(rng(), core);
      const auto suf = seq::generate_sequence(rng(), 5 + rng() % 30);
      pairs.emplace_back(concat({&pre, &c, &suf}), seq::mutate(c, rng(), 0.04));
    }
  for (uint32_t len : {12u, 13u, 14u}) {  // saturate at the far corner
    const auto c = seq::generate_sequence(rng(), len);
    pairs.emplace_back(c, c);
  }
  for (uint32_t m : {2u, 3u, 4u}) {
    const auto r = seq::generate_sequence(rng(), 90);
    pairs.emplace_back(r.subsequence(30, m), r);
  }
  pairs.emplace_back(seq::generate_sequence(rng(), 60),
                     seq::generate_sequence(rng(), 70));  // never saturates

  std::set<std::tuple<simd::Isa, int, SatSite>> seen;
  for (int scheme = 0; scheme < 2; ++scheme)
    for (GapModel gm : {GapModel::Affine, GapModel::Linear})
      for (int band : {-1, 2, 70})
        for (bool tb : {false, true}) {
          AlignConfig cfg;
          cfg.scheme = scheme ? ScoreScheme::Fixed : ScoreScheme::Matrix;
          cfg.matrix = &warm;
          cfg.match = 20;
          cfg.mismatch = -10;
          cfg.gap_model = gm;
          cfg.gap_open = 15;
          cfg.gap_extend = 3;
          cfg.band = band;
          cfg.traceback = tb;
          const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
          const int64_t sat16 = 65535 - cfg.bias() - cfg.max_subst_score();
          for (const auto& [q, r] : pairs) {
            const Alignment ref = ref_align(q, r, cfg);
            const std::vector<int> H = ref_matrix(q, r, cfg);
            const int m = static_cast<int>(q.length());
            const int n = static_cast<int>(r.length());
            for (simd::Isa isa : available_isas()) {
              const FirstSaturation fs =
                  first_saturation(H, m, n, band, sat8, lanes8(isa));
              seen.insert({isa, band, fs.site});
              for (ScoreDelivery d : {ScoreDelivery::Gather, ScoreDelivery::Fill,
                                      ScoreDelivery::Shuffle}) {
                if (scheme == 1 && d != ScoreDelivery::Gather) continue;
                cfg.isa = isa;
                cfg.delivery = d;
                const std::string what =
                    std::string(simd::isa_name(isa)) + " scheme " +
                    std::to_string(scheme) + " gm " +
                    std::to_string(static_cast<int>(gm)) + " band " +
                    std::to_string(band) + " tb " + std::to_string(tb) +
                    " delivery " + std::to_string(static_cast<int>(d)) +
                    " m=" + std::to_string(m) + " n=" + std::to_string(n);
                Workspace ws;
                // The 8-bit rung stops right after the first saturated
                // diagonal, wherever that diagonal's saturated cells lie.
                const DiagOutput o8 = ladder_rung(q, r, cfg, isa, Width::W8, ws);
                EXPECT_EQ(o8.saturated, fs.site != SatSite::None) << what;
                if (o8.saturated) {
                  EXPECT_EQ(o8.handoff.next_diag, fs.diag + 1) << what;
                }
                cfg.width = Width::W32;
                const Alignment w32 = diag_align(q, r, cfg, ws);
                cfg.width = Width::Adaptive;
                const Alignment a = diag_align(q, r, cfg, ws);
                expect_ladder_result(a, ref, w32, sat8, sat16, q, r, what);
              }
            }
          }
        }
  // Every edge of the hand-off was reached on every ISA.
  for (simd::Isa isa : available_isas()) {
    const std::string name = simd::isa_name(isa);
    EXPECT_TRUE(seen.count({isa, -1, SatSite::Scalar})) << name;
    EXPECT_TRUE(seen.count({isa, -1, SatSite::Body})) << name;
    EXPECT_TRUE(seen.count({isa, -1, SatSite::Tail})) << name;
    EXPECT_TRUE(seen.count({isa, -1, SatSite::None})) << name;
    EXPECT_TRUE(seen.count({isa, 2, SatSite::Scalar})) << name;
    EXPECT_TRUE(seen.count({isa, 70, SatSite::Body})) << name;
    EXPECT_TRUE(seen.count({isa, 70, SatSite::Tail})) << name;
  }
}

TEST(DiagLadder, WidensFrom16To32AtTheFirstDiagonalPastTheLimit) {
  // +100 per match over ~700 matches: both narrow rungs hand off.
  const matrix::ScoreMatrix hot =
      matrix::ScoreMatrix::match_mismatch(100, -40, seq::Alphabet::protein());
  const auto q = seq::generate_sequence(7, 720);
  const auto r = seq::mutate(q, 8, 0.02);
  const int m = static_cast<int>(q.length());
  const int n = static_cast<int>(r.length());
  for (int scheme = 0; scheme < 2; ++scheme)
    for (GapModel gm : {GapModel::Affine, GapModel::Linear})
      for (bool tb : {false, true}) {
        AlignConfig cfg;
        cfg.scheme = scheme ? ScoreScheme::Fixed : ScoreScheme::Matrix;
        cfg.matrix = &hot;
        cfg.match = 100;
        cfg.mismatch = -40;
        cfg.gap_model = gm;
        cfg.traceback = tb;
        const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
        const int64_t sat16 = 65535 - cfg.bias() - cfg.max_subst_score();
        const Alignment ref = ref_align(q, r, cfg);
        ASSERT_GE(ref.score, sat16);
        const std::vector<int> H = ref_matrix(q, r, cfg);
        const FirstSaturation fs16 = first_saturation(H, m, n, -1, sat16, 1);
        for (simd::Isa isa : available_isas())
          for (ScoreDelivery d : {ScoreDelivery::Gather, ScoreDelivery::Fill,
                                  ScoreDelivery::Shuffle}) {
            if (scheme == 1 && d != ScoreDelivery::Gather) continue;
            cfg.isa = isa;
            cfg.delivery = d;
            const std::string what =
                std::string(simd::isa_name(isa)) + " scheme " +
                std::to_string(scheme) + " gm " +
                std::to_string(static_cast<int>(gm)) + " tb " +
                std::to_string(tb) + " delivery " +
                std::to_string(static_cast<int>(d));
            Workspace ws;
            const DiagOutput o8 = ladder_rung(q, r, cfg, isa, Width::W8, ws);
            ASSERT_TRUE(o8.saturated) << what;
            const DiagHandoff h8 = o8.handoff;
            const DiagOutput o16 =
                ladder_rung(q, r, cfg, isa, Width::W16, ws, &h8);
            ASSERT_TRUE(o16.saturated) << what;
            EXPECT_EQ(o16.handoff.next_diag, fs16.diag + 1) << what;
            EXPECT_EQ(o8.stats.diagonals + o16.stats.diagonals,
                      static_cast<uint64_t>(fs16.diag + 1))
                << what;
            cfg.width = Width::W32;
            const Alignment w32 = diag_align(q, r, cfg, ws);
            cfg.width = Width::Adaptive;
            const Alignment a = diag_align(q, r, cfg, ws);
            expect_ladder_result(a, ref, w32, sat8, sat16, q, r, what);
          }
      }
}

TEST(DiagLadder, HandOffRightAfterTheWorkspaceGrowsOrShrinks) {
  // One workspace: saturating pairs large then small, small then large,
  // and fixed narrow runs (which size the state for their own width only)
  // between them, so a hand-off follows every kind of buffer growth.
  const matrix::ScoreMatrix hot =
      matrix::ScoreMatrix::match_mismatch(100, -40, seq::Alphabet::protein());
  struct Step {
    uint32_t len;
    Width width;
  };
  const std::vector<Step> steps = {
      {600, Width::Adaptive}, {40, Width::Adaptive},  {300, Width::Adaptive},
      {3, Width::Adaptive},   {720, Width::Adaptive}, {50, Width::Adaptive},
      {900, Width::W8},       {200, Width::Adaptive}, {2, Width::Adaptive},
      {500, Width::W16},      {650, Width::Adaptive}, {120, Width::Adaptive}};
  for (simd::Isa isa : available_isas())
    for (bool tb : {false, true}) {
      AlignConfig cfg;
      cfg.matrix = &hot;
      cfg.isa = isa;
      cfg.traceback = tb;
      const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
      const int64_t sat16 = 65535 - cfg.bias() - cfg.max_subst_score();
      Workspace shared;
      uint64_t seed = 300;
      for (const Step& s : steps) {
        const auto q = seq::generate_sequence(++seed, s.len);
        const auto r = seq::mutate(q, ++seed, 0.03);
        cfg.width = s.width;
        const Alignment a = diag_align(q, r, cfg, shared);
        Workspace fresh;
        const Alignment want = diag_align(q, r, cfg, fresh);
        const std::string what = std::string(simd::isa_name(isa)) + " len " +
                                 std::to_string(s.len) + " tb " +
                                 std::to_string(tb);
        EXPECT_EQ(a.score, want.score) << what;
        EXPECT_EQ(a.end_query, want.end_query) << what;
        EXPECT_EQ(a.end_ref, want.end_ref) << what;
        EXPECT_EQ(a.cigar, want.cigar) << what;
        EXPECT_EQ(a.saturated, want.saturated) << what;
        if (s.width != Width::Adaptive) continue;
        cfg.width = Width::W32;
        const Alignment w32 = diag_align(q, r, cfg, fresh);
        expect_ladder_result(a, ref_align(q, r, cfg), w32, sat8, sat16, q, r,
                             what);
      }
    }
}

TEST(DiagLadder, ARungThatHoldsNoCellHandsOffBeforeDiagonalZero) {
  // bias 100 + max score 200 leave 8 bits no headroom: the 8-bit rung
  // computes nothing and the 16-bit rung starts the matrix.
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 200;
  cfg.mismatch = -100;
  cfg.traceback = true;
  const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
  const int64_t sat16 = 65535 - cfg.bias() - cfg.max_subst_score();
  ASSERT_LE(sat8, 0);
  const auto q = seq::generate_sequence(41, 90);
  const auto r = seq::mutate(q, 42, 0.1);
  const Alignment ref = ref_align(q, r, cfg);
  for (simd::Isa isa : available_isas()) {
    cfg.isa = isa;
    Workspace ws;
    const DiagOutput o8 = ladder_rung(q, r, cfg, isa, Width::W8, ws);
    EXPECT_TRUE(o8.saturated);
    EXPECT_EQ(o8.handoff.next_diag, 0);
    EXPECT_EQ(o8.stats.cells, 0u);
    cfg.width = Width::W32;
    const Alignment w32 = diag_align(q, r, cfg, ws);
    cfg.width = Width::Adaptive;
    const Alignment a = diag_align(q, r, cfg, ws);
    expect_ladder_result(a, ref, w32, sat8, sat16, q, r, simd::isa_name(isa));
  }
}

TEST(DiagLadder, ExactScoreWidthIsTheRungTheLadderEndsOn) {
  // Scores from 0 to past the 16-bit limit: the width picked from the exact
  // score is the ladder's final rung, and a run there gives its result.
  const matrix::ScoreMatrix hot =
      matrix::ScoreMatrix::match_mismatch(100, -40, seq::Alphabet::protein());
  std::mt19937_64 rng(223);
  Workspace ws;
  for (const matrix::ScoreMatrix* mat : {&matrix::ScoreMatrix::blosum62(), &hot})
    for (uint32_t len : {1u, 20u, 45u, 60u, 130u, 700u})
      for (double rate : {0.02, 0.6}) {
        AlignConfig cfg;
        cfg.matrix = mat;
        cfg.traceback = true;
        const auto q = seq::generate_sequence(rng(), len);
        const auto r = seq::mutate(q, rng(), rate);
        const Alignment a = diag_align(q, r, cfg, ws);
        const std::string what = mat->name() + " len " + std::to_string(len);
        EXPECT_EQ(exact_score_width(cfg, a.score), a.width_used) << what;
        cfg.width = a.width_used;
        const Alignment at = diag_align(q, r, cfg, ws);
        EXPECT_FALSE(at.saturated) << what;
        EXPECT_EQ(at.score, a.score) << what;
        EXPECT_EQ(at.end_query, a.end_query) << what;
        EXPECT_EQ(at.end_ref, a.end_ref) << what;
        EXPECT_EQ(at.cigar, a.cigar) << what;
      }
}

TEST(DiagLadder, FixedNarrowWidthStillComputesTheWholeMatrix) {
  auto q = seq::generate_sequence(21, 140);
  auto r = seq::mutate(q, 22, 0.05);
  AlignConfig cfg;
  cfg.width = Width::W8;
  cfg.traceback = true;
  const int64_t sat8 = 255 - cfg.bias() - cfg.max_subst_score();
  ASSERT_GE(ref_align(q, r, cfg).score, sat8);
  Workspace ws;
  std::vector<Alignment> got;
  for (simd::Isa isa : available_isas()) {
    cfg.isa = isa;
    const Alignment a = diag_align(q, r, cfg, ws);
    EXPECT_TRUE(a.saturated) << simd::isa_name(isa);
    EXPECT_GE(a.score, sat8) << simd::isa_name(isa);
    EXPECT_EQ(a.stats.cells, q.length() * r.length()) << simd::isa_name(isa);
    EXPECT_EQ(a.stats.diagonals, q.length() + r.length() - 1);
    got.push_back(a);
  }
  // Every ISA reports the same full-matrix saturated result.
  for (const Alignment& a : got) {
    EXPECT_EQ(a.score, got[0].score);
    EXPECT_EQ(a.end_query, got[0].end_query);
    EXPECT_EQ(a.end_ref, got[0].end_ref);
  }
}

}  // namespace
}  // namespace swve::core
