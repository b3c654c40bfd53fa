// Substitution matrices in the 32-column padded layout of the paper (Fig 4).
//
// Each row holds 32 int32 entries (24 real letters + padding), so:
//   * `32*q + r` indexes the flat array — one shift+add feeding vpgatherdd;
//   * one row is 32 bytes in the byte copies — exactly one 256-bit load,
//     which is what the kernels' in-register shuffle LUTs eat.
// Padding codes score the matrix minimum so they can never win an alignment.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"

namespace swve::matrix {

class ScoreMatrix {
 public:
  /// Build from a dim x dim score table in the alphabet's code order.
  ScoreMatrix(std::string name, const seq::Alphabet& alphabet,
              std::span<const int8_t> square, int dim);

  /// Constant match/mismatch matrix over a whole alphabet ("without
  /// substitution matrix" mode of Fig 9, and the usual DNA scoring).
  static ScoreMatrix match_mismatch(int match, int mismatch,
                                    const seq::Alphabet& alphabet);

  // --- the built-in NCBI tables ---------------------------------------
  static const ScoreMatrix& blosum45();
  static const ScoreMatrix& blosum50();
  static const ScoreMatrix& blosum62();
  static const ScoreMatrix& blosum80();
  static const ScoreMatrix& blosum90();
  static const ScoreMatrix& pam120();
  static const ScoreMatrix& pam250();
  /// IUPAC-ambiguity-aware nucleotide matrix over the 16-letter DNA
  /// alphabet, computed from base-set overlap:
  ///   score(X, Y) = round(5 * p - 4 * (1 - p)),  p = |X n Y| / (|X| * |Y|)
  /// giving the classic +5/-4 on unambiguous bases and EDNAFULL-style
  /// negatives on ambiguity codes (N vs N = -2). U is treated as T.
  static const ScoreMatrix& dna_iupac();
  /// Case-insensitive lookup ("blosum62", "pam250", "dna_iupac", ...);
  /// nullptr if unknown.
  static const ScoreMatrix* find(const std::string& name);
  /// Names of the built-in protein matrices (benches iterate these).
  static std::vector<std::string> builtin_names();

  const std::string& name() const noexcept { return name_; }
  const seq::Alphabet& alphabet() const noexcept { return *alphabet_; }
  int dim() const noexcept { return dim_; }

  int score(uint8_t a, uint8_t b) const noexcept {
    return data32_[static_cast<size_t>(a) * seq::kMatrixStride + b];
  }
  /// Flat 32x32 int32 table for the gather unit.
  const int32_t* data32() const noexcept { return data32_.data(); }

  int min_score() const noexcept { return min_; }
  int max_score() const noexcept { return max_; }
  /// Bias that makes every entry non-negative (unsigned-domain kernels).
  int bias() const noexcept { return min_ < 0 ? -min_ : 0; }

  /// 32x32 biased uint8 copy: entry = score + bias(). Row q is one 256-bit
  /// load; used by the diagonal kernel's shuffle LUT.
  const uint8_t* rows_biased_u8() const noexcept { return rows_u8_.data(); }
  /// The same rows as raw int8 scores; used by the batch32 kernel's
  /// signed score profile.
  const int8_t* rows_i8() const noexcept { return rows_i8_.data(); }
  /// The same biased bytes column-major: entry r*32 + q = score(q, r) +
  /// bias(). Column r is one 256-bit load; the column sweep's query profile
  /// looks a whole query up in it with one vpermb.
  const uint8_t* cols_biased_u8() const noexcept { return cols_u8_.data(); }

 private:
  std::string name_;
  const seq::Alphabet* alphabet_;
  int dim_;
  int min_ = 0, max_ = 0;
  std::vector<int32_t> data32_;  // 32*32
  std::vector<uint8_t> rows_u8_;  // 32*32
  std::vector<int8_t> rows_i8_;   // 32*32
  std::vector<uint8_t> cols_u8_;  // 32*32, transposed
};

}  // namespace swve::matrix
