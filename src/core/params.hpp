// Alignment configuration shared by every kernel.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/error.hpp"
#include "matrix/score_matrix.hpp"
#include "simd/cpu.hpp"

namespace swve::core {

/// Gap penalty model (Fig 7). A gap of length k costs
/// open + (k-1)*extend under Affine and k*extend under Linear
/// (penalties are non-negative; scores subtract them).
enum class GapModel : uint8_t { Affine, Linear };

/// Integer width of the DP arithmetic (contribution iii of the paper).
/// Adaptive runs 8-bit first; on saturation it widens in place to 16 and
/// then 32 bits, continuing after the first saturated anti-diagonal.
enum class Width : uint8_t { W8, W16, W32, Adaptive };

/// Score source (Fig 9): a full substitution matrix reached through the
/// gather unit, or a constant match/mismatch score reached through compares.
enum class ScoreScheme : uint8_t { Matrix, Fixed };

/// How Matrix-scheme scores reach the diagonal kernel:
///   Gather — vpgatherdd from the 32-column matrix (Fig 4). The paper's
///            primary path; "not exceptionally fast" (§IV-C) and
///            catastrophically slow on Downfall-mitigated parts.
///   Fill   — per-diagonal scalar staging of the scores into a linear
///            buffer, then vector consumption.
///   Shuffle— in-register lookups of the biased byte table with vpermi2b
///            (8/16-bit AVX-512-VBMI kernels, matrices of at most 24 codes;
///            the Fig 4/5 "extract scores with shuffling" path). Where it
///            cannot run it degrades to Auto's choice.
///   Auto   — a fixed rule of the ISA and the host's features, no timing
///            (core::delivery_for): Shuffle wherever it runs; Fill where
///            the OS reports Downfall-mitigated gathers; Gather elsewhere.
enum class ScoreDelivery : uint8_t { Auto, Gather, Fill, Shuffle };

struct AlignConfig {
  ScoreScheme scheme = ScoreScheme::Matrix;
  ScoreDelivery delivery = ScoreDelivery::Auto;
  const matrix::ScoreMatrix* matrix = &matrix::ScoreMatrix::blosum62();
  int match = 2;       ///< Fixed scheme only
  int mismatch = -3;   ///< Fixed scheme only

  GapModel gap_model = GapModel::Affine;
  int gap_open = 11;   ///< penalty of the first gap residue (Affine)
  int gap_extend = 1;  ///< penalty of each further gap residue

  /// Banded alignment: only cells with |i - j| <= band are computed
  /// (out-of-band cells contribute 0, i.e. alignments cannot leave the
  /// band). < 0 disables the band (full DP). The diagonal traversal makes
  /// banding free — the band just tightens each anti-diagonal's row range.
  int band = -1;

  Width width = Width::Adaptive;
  simd::Isa isa = simd::Isa::Auto;

  bool traceback = false;
  /// Refuse traceback if m*n exceeds this many cells (1 byte per cell).
  uint64_t max_traceback_cells = uint64_t{1} << 31;

  /// Largest substitution score under this config (saturation bound).
  int max_subst_score() const noexcept {
    return scheme == ScoreScheme::Matrix ? matrix->max_score()
                                         : (match > mismatch ? match : mismatch);
  }
  /// Smallest substitution score (bias bound).
  int min_subst_score() const noexcept {
    return scheme == ScoreScheme::Matrix ? matrix->min_score()
                                         : (match < mismatch ? match : mismatch);
  }
  /// Bias that makes every substitution score non-negative.
  int bias() const noexcept {
    int mn = min_subst_score();
    return mn < 0 ? -mn : 0;
  }

  /// Non-throwing validation: returns the first problem found as a
  /// machine-readable ConfigError. The async service uses this so a bad
  /// request fails its future instead of throwing on a worker thread.
  ErrorOr<void> try_validate() const {
    using Code = ConfigError::Code;
    if (scheme == ScoreScheme::Matrix && matrix == nullptr)
      return ConfigError{Code::MissingMatrix,
                         "AlignConfig: Matrix scheme needs a matrix"};
    if (gap_open < 0 || gap_extend < 0)
      return ConfigError{Code::NegativeGapPenalty,
                         "AlignConfig: gap penalties must be >= 0"};
    if (gap_model == GapModel::Affine && gap_open < gap_extend)
      return ConfigError{Code::OpenLessThanExtend,
                         "AlignConfig: affine gap_open must be >= gap_extend"};
    if (scheme == ScoreScheme::Fixed && match < mismatch)
      return ConfigError{Code::MatchLessThanMismatch,
                         "AlignConfig: match < mismatch"};
    return {};
  }

  /// Throwing validation (synchronous API). Prefer try_validate() on
  /// threads that must not unwind.
  void validate() const {
    if (auto st = try_validate(); !st)
      throw std::invalid_argument(st.error().message);
  }
};

}  // namespace swve::core
