#include <gtest/gtest.h>

#include "matrix/score_matrix.hpp"

namespace swve::matrix {
namespace {

using seq::Alphabet;
using seq::kMatrixStride;

class BuiltinMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BuiltinMatrixTest, Symmetric) {
  const ScoreMatrix* m = ScoreMatrix::find(GetParam());
  ASSERT_NE(m, nullptr);
  for (int a = 0; a < m->dim(); ++a)
    for (int b = 0; b < m->dim(); ++b)
      EXPECT_EQ(m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                m->score(static_cast<uint8_t>(b), static_cast<uint8_t>(a)))
          << GetParam() << " asymmetric at (" << a << "," << b << ")";
}

TEST_P(BuiltinMatrixTest, DiagonalDominatesRowAndIsPositive) {
  const ScoreMatrix* m = ScoreMatrix::find(GetParam());
  ASSERT_NE(m, nullptr);
  for (int a = 0; a < 20; ++a) {  // real amino acids
    int diag = m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(a));
    EXPECT_GT(diag, 0);
    for (int b = 0; b < 20; ++b)
      if (a != b) {
        EXPECT_GE(diag, m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(b)));
      }
  }
}

TEST_P(BuiltinMatrixTest, PaddingScoresMinimum) {
  const ScoreMatrix* m = ScoreMatrix::find(GetParam());
  ASSERT_NE(m, nullptr);
  for (int pad = m->dim(); pad < kMatrixStride; ++pad) {
    EXPECT_EQ(m->score(static_cast<uint8_t>(pad), 0), m->min_score());
    EXPECT_EQ(m->score(0, static_cast<uint8_t>(pad)), m->min_score());
  }
}

TEST_P(BuiltinMatrixTest, BiasedByteRowsConsistent) {
  const ScoreMatrix* m = ScoreMatrix::find(GetParam());
  ASSERT_NE(m, nullptr);
  const uint8_t* rows = m->rows_biased_u8();
  const int8_t* raw = m->rows_i8();
  for (int a = 0; a < kMatrixStride; ++a)
    for (int b = 0; b < kMatrixStride; ++b) {
      const int score = m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(b));
      EXPECT_EQ(rows[a * kMatrixStride + b], score + m->bias());
      EXPECT_EQ(raw[a * kMatrixStride + b], score);
    }
}

TEST_P(BuiltinMatrixTest, MinMaxConsistent) {
  const ScoreMatrix* m = ScoreMatrix::find(GetParam());
  ASSERT_NE(m, nullptr);
  int mn = 1000, mx = -1000;
  for (int a = 0; a < m->dim(); ++a)
    for (int b = 0; b < m->dim(); ++b) {
      mn = std::min(mn, m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(b)));
      mx = std::max(mx, m->score(static_cast<uint8_t>(a), static_cast<uint8_t>(b)));
    }
  EXPECT_EQ(mn, m->min_score());
  EXPECT_EQ(mx, m->max_score());
  EXPECT_EQ(m->bias(), -mn);
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinMatrixTest,
                         ::testing::ValuesIn(ScoreMatrix::builtin_names()),
                         [](const auto& info) { return info.param; });

TEST(ScoreMatrix, KnownBlosum62Values) {
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  const Alphabet& a = Alphabet::protein();
  auto s = [&](char x, char y) { return m.score(a.encode(x), a.encode(y)); };
  EXPECT_EQ(s('A', 'A'), 4);
  EXPECT_EQ(s('W', 'W'), 11);
  EXPECT_EQ(s('C', 'C'), 9);
  EXPECT_EQ(s('A', 'R'), -1);
  EXPECT_EQ(s('W', 'C'), -2);
  EXPECT_EQ(s('E', 'Q'), 2);
  EXPECT_EQ(s('I', 'L'), 2);
  EXPECT_EQ(s('N', 'B'), 3);
  EXPECT_EQ(s('X', 'X'), -1);
  EXPECT_EQ(s('*', '*'), 1);
  EXPECT_EQ(s('A', '*'), -4);
  EXPECT_EQ(m.min_score(), -4);
  EXPECT_EQ(m.max_score(), 11);
  EXPECT_EQ(m.bias(), 4);
}

TEST(ScoreMatrix, KnownBlosum50Values) {
  const ScoreMatrix& m = ScoreMatrix::blosum50();
  const Alphabet& a = Alphabet::protein();
  auto s = [&](char x, char y) { return m.score(a.encode(x), a.encode(y)); };
  EXPECT_EQ(s('A', 'A'), 5);
  EXPECT_EQ(s('W', 'W'), 15);
  EXPECT_EQ(s('C', 'C'), 13);
  EXPECT_EQ(s('R', 'K'), 3);
}

TEST(ScoreMatrix, FindIsCaseInsensitive) {
  EXPECT_EQ(ScoreMatrix::find("BLOSUM62"), &ScoreMatrix::blosum62());
  EXPECT_EQ(ScoreMatrix::find("Pam250"), &ScoreMatrix::pam250());
  EXPECT_EQ(ScoreMatrix::find("nope"), nullptr);
}

TEST(ScoreMatrix, BuiltinNamesAllResolve) {
  for (const std::string& n : ScoreMatrix::builtin_names())
    EXPECT_NE(ScoreMatrix::find(n), nullptr) << n;
}

TEST(ScoreMatrix, MatchMismatch) {
  ScoreMatrix m = ScoreMatrix::match_mismatch(2, -3, Alphabet::dna());
  EXPECT_EQ(m.score(0, 0), 2);
  EXPECT_EQ(m.score(0, 1), -3);
  EXPECT_EQ(m.max_score(), 2);
  EXPECT_EQ(m.min_score(), -3);
  EXPECT_EQ(m.bias(), 3);
  EXPECT_THROW(ScoreMatrix::match_mismatch(-3, 2, Alphabet::dna()),
               std::invalid_argument);
}

TEST(ScoreMatrix, ConstructorValidation) {
  std::vector<int8_t> t16(16 * 16, 1);
  EXPECT_NO_THROW(ScoreMatrix("t", Alphabet::dna(), t16, 16));
  // dim must cover the alphabet:
  std::vector<int8_t> t(4, 1);
  EXPECT_THROW(ScoreMatrix("t", Alphabet::protein(), t, 2), std::invalid_argument);
  EXPECT_THROW(ScoreMatrix("t", Alphabet::protein(), t, 40), std::invalid_argument);
  std::vector<int8_t> wrong(5, 1);
  EXPECT_THROW(ScoreMatrix("t", Alphabet::protein(), wrong, 24),
               std::invalid_argument);
}

TEST(ScoreMatrix, Gather32LayoutMatchesScore) {
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  const int32_t* d = m.data32();
  for (int a = 0; a < kMatrixStride; ++a)
    for (int b = 0; b < kMatrixStride; ++b)
      EXPECT_EQ(d[a * kMatrixStride + b],
                m.score(static_cast<uint8_t>(a), static_cast<uint8_t>(b)));
}

}  // namespace
}  // namespace swve::matrix
