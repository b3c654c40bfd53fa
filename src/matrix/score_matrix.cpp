#include "matrix/score_matrix.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace swve::matrix {

using seq::kMatrixStride;

ScoreMatrix::ScoreMatrix(std::string name, const seq::Alphabet& alphabet,
                         std::span<const int8_t> square, int dim)
    : name_(std::move(name)), alphabet_(&alphabet), dim_(dim) {
  if (dim <= 0 || dim > kMatrixStride)
    throw std::invalid_argument("ScoreMatrix: dim must be in [1, 32]");
  if (square.size() != static_cast<size_t>(dim) * static_cast<size_t>(dim))
    throw std::invalid_argument("ScoreMatrix: table size != dim*dim");
  if (dim < alphabet.size())
    throw std::invalid_argument("ScoreMatrix: table smaller than alphabet");

  min_ = square[0];
  max_ = square[0];
  for (int8_t v : square) {
    min_ = std::min<int>(min_, v);
    max_ = std::max<int>(max_, v);
  }

  data32_.assign(static_cast<size_t>(kMatrixStride) * kMatrixStride, min_);
  for (int a = 0; a < dim; ++a)
    for (int b = 0; b < dim; ++b)
      data32_[static_cast<size_t>(a) * kMatrixStride + b] =
          square[static_cast<size_t>(a) * static_cast<size_t>(dim) +
                 static_cast<size_t>(b)];

  rows_u8_.assign(data32_.size(), 0);
  rows_i8_.assign(data32_.size(), 0);
  const int bias_v = bias();
  for (size_t i = 0; i < data32_.size(); ++i) {
    int v = data32_[i] + bias_v;
    rows_u8_[i] = static_cast<uint8_t>(std::clamp(v, 0, 255));
    rows_i8_[i] = static_cast<int8_t>(data32_[i]);
  }
  cols_u8_.resize(rows_u8_.size());
  for (int a = 0; a < kMatrixStride; ++a)
    for (int b = 0; b < kMatrixStride; ++b)
      cols_u8_[static_cast<size_t>(b) * kMatrixStride + a] =
          rows_u8_[static_cast<size_t>(a) * kMatrixStride + b];
}

ScoreMatrix ScoreMatrix::match_mismatch(int match, int mismatch,
                                        const seq::Alphabet& alphabet) {
  if (match < mismatch)
    throw std::invalid_argument("match_mismatch: match < mismatch");
  if (match > 127 || mismatch < -128)
    throw std::invalid_argument("match_mismatch: scores must fit int8");
  const int dim = alphabet.size();
  std::vector<int8_t> t(static_cast<size_t>(dim) * static_cast<size_t>(dim),
                        static_cast<int8_t>(mismatch));
  for (int a = 0; a < dim; ++a)
    t[static_cast<size_t>(a) * static_cast<size_t>(dim) + static_cast<size_t>(a)] =
        static_cast<int8_t>(match);
  return ScoreMatrix("match" + std::to_string(match) + "/mismatch" +
                         std::to_string(mismatch),
                     alphabet, t, dim);
}

const ScoreMatrix* ScoreMatrix::find(const std::string& name) {
  std::string t;
  for (char c : name) t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (t == "blosum45") return &blosum45();
  if (t == "blosum50") return &blosum50();
  if (t == "blosum62") return &blosum62();
  if (t == "blosum80") return &blosum80();
  if (t == "blosum90") return &blosum90();
  if (t == "pam120") return &pam120();
  if (t == "pam250") return &pam250();
  if (t == "dna_iupac" || t == "dna") return &dna_iupac();
  return nullptr;
}

const ScoreMatrix& ScoreMatrix::dna_iupac() {
  static const ScoreMatrix m = [] {
    const seq::Alphabet& a = seq::Alphabet::dna();  // "ACGTUSWRYKMBVHDN"
    // Base sets as bitmasks over A=1, C=2, G=4, T=8 (U == T).
    auto base_set = [](char c) -> unsigned {
      switch (c) {
        case 'A': return 1;
        case 'C': return 2;
        case 'G': return 4;
        case 'T': case 'U': return 8;
        case 'S': return 2 | 4;          // strong: C/G
        case 'W': return 1 | 8;          // weak:   A/T
        case 'R': return 1 | 4;          // purine: A/G
        case 'Y': return 2 | 8;          // pyrimidine: C/T
        case 'K': return 4 | 8;          // keto:   G/T
        case 'M': return 1 | 2;          // amino:  A/C
        case 'B': return 2 | 4 | 8;      // not A
        case 'V': return 1 | 2 | 4;      // not T
        case 'H': return 1 | 2 | 8;      // not G
        case 'D': return 1 | 4 | 8;      // not C
        case 'N': return 1 | 2 | 4 | 8;  // any
        default: return 1 | 2 | 4 | 8;
      }
    };
    const int dim = a.size();
    std::vector<int8_t> t(static_cast<size_t>(dim) * static_cast<size_t>(dim));
    for (int x = 0; x < dim; ++x)
      for (int y = 0; y < dim; ++y) {
        const unsigned sx = base_set(a.decode(static_cast<uint8_t>(x)));
        const unsigned sy = base_set(a.decode(static_cast<uint8_t>(y)));
        const double p = static_cast<double>(__builtin_popcount(sx & sy)) /
                         (__builtin_popcount(sx) * __builtin_popcount(sy));
        const double s = 5.0 * p - 4.0 * (1.0 - p);
        t[static_cast<size_t>(x) * static_cast<size_t>(dim) +
          static_cast<size_t>(y)] =
            static_cast<int8_t>(s >= 0 ? s + 0.5 : s - 0.5);
      }
    return ScoreMatrix("dna_iupac", a, t, dim);
  }();
  return m;
}

std::vector<std::string> ScoreMatrix::builtin_names() {
  return {"blosum45", "blosum50", "blosum62", "blosum80",
          "blosum90", "pam120",   "pam250"};
}

}  // namespace swve::matrix
