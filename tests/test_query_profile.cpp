#include <gtest/gtest.h>

#include "matrix/query_profile.hpp"
#include "seq/synthetic.hpp"

namespace swve::matrix {
namespace {

using seq::Alphabet;
using seq::kMatrixStride;

TEST(StripedProfile, EntriesMatchMatrix) {
  auto q = seq::generate_sequence(1, 53);
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  const int lanes = 16;
  StripedProfile<int16_t> prof(q, m, lanes, int16_t{-30000}, 0);
  const int seg = prof.seg_len();
  EXPECT_EQ(seg, (53 + lanes - 1) / lanes);
  for (int c = 0; c < kMatrixStride; ++c) {
    const int16_t* row = prof.row(static_cast<uint8_t>(c));
    for (int v = 0; v < seg; ++v)
      for (int k = 0; k < lanes; ++k) {
        int i = k * seg + v;
        int16_t expect =
            i < 53 ? static_cast<int16_t>(
                         m.score(q.codes()[static_cast<size_t>(i)],
                                 static_cast<uint8_t>(c)))
                   : int16_t{-30000};
        EXPECT_EQ(row[v * lanes + k], expect) << "c=" << c << " v=" << v << " k=" << k;
      }
  }
}

TEST(StripedProfile, BiasedUnsigned) {
  auto q = seq::generate_sequence(2, 20);
  const ScoreMatrix& m = ScoreMatrix::blosum62();
  StripedProfile<uint8_t> prof(q, m, 32, uint8_t{0}, m.bias());
  const uint8_t* row = prof.row(0);  // db letter 'A'
  for (int v = 0; v < prof.seg_len(); ++v)
    for (int k = 0; k < 32; ++k) {
      int i = k * prof.seg_len() + v;
      if (i < 20) {
        EXPECT_EQ(row[v * 32 + k],
                  m.score(q.codes()[static_cast<size_t>(i)], 0) + m.bias());
      }
    }
}

TEST(StripedProfile, EmptyQueryKeepsNonEmptyRows) {
  seq::Sequence q("e", "", Alphabet::protein());
  StripedProfile<int16_t> prof(q, ScoreMatrix::blosum62(), 16, int16_t{-1}, 0);
  EXPECT_GE(prof.seg_len(), 1);
  EXPECT_EQ(prof.query_length(), 0);
}

TEST(StripedProfile, BadLanesThrow) {
  seq::Sequence q("q", "AR", Alphabet::protein());
  EXPECT_THROW(StripedProfile<int16_t>(q, ScoreMatrix::blosum62(), 0, int16_t{0}, 0),
               std::invalid_argument);
}

TEST(SequentialProfile, EntriesMatchMatrixWithPadding) {
  auto q = seq::generate_sequence(3, 37);
  const ScoreMatrix& m = ScoreMatrix::pam250();
  SequentialProfile<int32_t> prof(q, m, 8, int32_t{-99}, 0);
  for (int c = 0; c < kMatrixStride; ++c) {
    const int32_t* row = prof.row(static_cast<uint8_t>(c));
    for (int i = 0; i < 37; ++i)
      EXPECT_EQ(row[i],
                m.score(q.codes()[static_cast<size_t>(i)], static_cast<uint8_t>(c)));
    for (int i = 37; i < 37 + 8; ++i) EXPECT_EQ(row[i], -99);
  }
}

TEST(SequentialProfile, NegativePaddingThrows) {
  seq::Sequence q("q", "AR", Alphabet::protein());
  EXPECT_THROW(
      SequentialProfile<int16_t>(q, ScoreMatrix::blosum62(), -1, int16_t{0}, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace swve::matrix
