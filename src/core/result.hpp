// Alignment results: scores, end/begin cells, CIGAR, kernel statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "simd/cpu.hpp"

namespace swve::core {

/// CIGAR operations use SAM semantics relative to the query:
///   M consumes one query and one reference residue (match or mismatch);
///   I consumes one query residue  (gap in the reference, vertical/E move);
///   D consumes one reference residue (gap in the query, horizontal/F move).
enum class CigarOp : uint8_t { Match = 0, Ins = 1, Del = 2 };

class Cigar {
 public:
  /// BAM-style packing: length << 2 | op.
  void push(CigarOp op, uint32_t len) {
    if (len == 0) return;
    if (!packed_.empty() && (packed_.back() & 3u) == static_cast<uint32_t>(op)) {
      packed_.back() += len << 2;
      return;
    }
    packed_.push_back(len << 2 | static_cast<uint32_t>(op));
  }
  void clear() { packed_.clear(); }
  bool empty() const noexcept { return packed_.empty(); }
  size_t size() const noexcept { return packed_.size(); }
  CigarOp op(size_t i) const noexcept { return static_cast<CigarOp>(packed_[i] & 3u); }
  uint32_t len(size_t i) const noexcept { return packed_[i] >> 2; }
  void reverse() { std::reverse(packed_.begin(), packed_.end()); }

  uint64_t query_consumed() const noexcept {
    uint64_t n = 0;
    for (size_t i = 0; i < size(); ++i)
      if (op(i) != CigarOp::Del) n += len(i);
    return n;
  }
  uint64_t ref_consumed() const noexcept {
    uint64_t n = 0;
    for (size_t i = 0; i < size(); ++i)
      if (op(i) != CigarOp::Ins) n += len(i);
    return n;
  }

  std::string to_string() const {
    static constexpr char kOps[] = {'M', 'I', 'D'};
    std::string s;
    for (size_t i = 0; i < size(); ++i)
      s += std::to_string(len(i)) + kOps[static_cast<int>(op(i))];
    return s;
  }

  bool operator==(const Cigar&) const = default;

 private:
  std::vector<uint32_t> packed_;
};

/// Cell accounting for the Fig 3 vector/scalar split and GCUPS math.
/// Counts what the kernels computed, summed over every rung of the width
/// ladder. An 8- or 16-bit rung that saturates hands its state to the next
/// width, which continues from the following anti-diagonal, so the ladder
/// counts every cell and diagonal of the matrix once, as a fixed-width call
/// does.
struct KernelStats {
  uint64_t cells = 0;         ///< total DP cells computed
  uint64_t vector_cells = 0;  ///< computed in full-width vector ops
  uint64_t scalar_cells = 0;  ///< ragged-segment cells on the scalar path
  /// Anti-diagonals processed by the diagonal kernels; reference columns
  /// for the column sweep (each of its steps is one column of m cells).
  uint64_t diagonals = 0;
  /// Of `cells`, those the column sweep computed (the rest ran on the
  /// diagonal or batch kernels); not carried on the wire.
  uint64_t column_cells = 0;

  KernelStats& operator+=(const KernelStats& o) {
    cells += o.cells;
    vector_cells += o.vector_cells;
    scalar_cells += o.scalar_cells;
    diagonals += o.diagonals;
    column_cells += o.column_cells;
    return *this;
  }
};

/// Which dynamic-programming sweep produced an Alignment.
///   Diagonal — the paper's anti-diagonal kernel (every ISA, width and band).
///   Column   — the column sweep core::pair_align runs for queries of up
///              to 256 residues on AVX-512 VBMI: query rows striped over
///              the lanes, one reference column per step (docs/kernel.md,
///              "Column sweep").
enum class Sweep : uint8_t { Diagonal, Column };

struct Alignment {
  int score = 0;
  /// End cell of the optimal local alignment (0-based residue indices;
  /// -1,-1 for an empty alignment). Ties break to the smallest query index,
  /// then the smallest reference index, across every kernel.
  int end_query = -1;
  int end_ref = -1;
  /// Begin cell; only filled when traceback is enabled.
  int begin_query = -1;
  int begin_ref = -1;
  Cigar cigar;  ///< empty unless traceback was requested

  Width width_used = Width::W32;
  simd::Isa isa_used = simd::Isa::Scalar;
  Sweep sweep = Sweep::Diagonal;  ///< the kernel that ran
  /// Adaptive-width bookkeeping: which narrower attempts saturated.
  bool saturated_8 = false;
  bool saturated_16 = false;
  /// True only if the FINAL attempt saturated (fixed narrow width on a
  /// too-high-scoring pair); the score is then a lower bound, not exact.
  bool saturated = false;

  KernelStats stats;
};

}  // namespace swve::core
