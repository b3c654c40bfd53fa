// Traceback: per-cell direction flags and the walk that turns them into a
// CIGAR. The walk is shared between the golden scalar model (row-major flag
// storage) and the diagonal kernels (diagonal-major storage, Fig 2) via a
// flag accessor functor, so every kernel's flags are interpreted one way.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "core/result.hpp"
#include "seq/sequence.hpp"

namespace swve::core {

// Direction flag layout (one byte per DP cell).
// Bits 0-1: source of H — and the walk priority on ties is exactly this
// numeric order (zero beats diag beats E beats F):
inline constexpr uint8_t kTbStop = 0;  ///< H == 0 (local alignment starts here)
inline constexpr uint8_t kTbDiag = 1;  ///< H from H(i-1,j-1) + s
inline constexpr uint8_t kTbE = 2;     ///< H from E (vertical gap, consumes query)
inline constexpr uint8_t kTbF = 3;     ///< H from F (horizontal gap, consumes ref)
inline constexpr uint8_t kTbSrcMask = 3;
// Bit 2: E chose gap-extension (came from E(i-1,j) - extend, not H - open).
inline constexpr uint8_t kTbEExt = 4;
// Bit 3: F chose gap-extension.
inline constexpr uint8_t kTbFExt = 8;

struct TracebackResult {
  int begin_query = -1;
  int begin_ref = -1;
  Cigar cigar;
};

/// Walk the flags back from end cell (ei, ej); `flag_at(i, j)` returns the
/// direction byte of cell (i, j). Requires score > 0 at the end cell.
template <class FlagAt>
TracebackResult walk_traceback(FlagAt&& flag_at, int ei, int ej) {
  TracebackResult out;
  Cigar rev;  // built end->begin, reversed at the end
  int i = ei, j = ej;
  out.begin_query = ei;
  out.begin_ref = ej;

  enum class State : uint8_t { H, E, F };
  State st = State::H;
  while (i >= 0 && j >= 0) {
    uint8_t flags = flag_at(i, j);
    if (st == State::H) {
      uint8_t src = flags & kTbSrcMask;
      if (src == kTbStop) break;
      if (src == kTbDiag) {
        rev.push(CigarOp::Match, 1);
        out.begin_query = i;
        out.begin_ref = j;
        --i;
        --j;
      } else {
        st = src == kTbE ? State::E : State::F;
      }
    } else if (st == State::E) {
      rev.push(CigarOp::Ins, 1);
      out.begin_query = i;
      if (!(flags & kTbEExt)) st = State::H;
      --i;
    } else {  // State::F
      rev.push(CigarOp::Del, 1);
      out.begin_ref = j;
      if (!(flags & kTbFExt)) st = State::H;
      --j;
    }
  }
  rev.reverse();
  out.cigar = std::move(rev);
  return out;
}

/// Recompute an alignment's score from its CIGAR and begin cell; used to
/// validate traceback output (the replayed score must equal the reported
/// score). Throws if the CIGAR walks out of bounds or misses the end cell.
int replay_score(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                 const Alignment& aln);

/// Flags for the diagonal-linearized layout: cell (i, j) lives at
/// offsets[i + j] + (i - lo(i+j)) where lo(d) is the diagonal's first row
/// (accounting for the reference length and an optional band).
struct DiagTracebackView {
  const uint8_t* dirs = nullptr;
  const uint64_t* offsets = nullptr;  // per-diagonal start into dirs
  int n = 0;                          // reference length
  int band = -1;                      // |i-j| band, < 0 = none

  uint8_t operator()(int i, int j) const noexcept {
    const int d = i + j;
    int lo = d - n + 1;
    if (lo < 0) lo = 0;
    if (band >= 0) {
      const int blo = (d - band + 1) >> 1;
      if (blo > lo) lo = blo;
    }
    return dirs[offsets[d] + static_cast<uint64_t>(i - lo)];
  }
};

/// x / s for 0 <= x < 4096 and 1 <= s <= 8, by a multiply: the column
/// sweep's stripe count is a run-time value, and a division per traceback
/// cell would cost more than the lookup it feeds.
inline int divide_by_stripes(int x, int s) noexcept {
  static constexpr uint32_t kInverse[9] = {0,     65536, 32768, 21846, 16384,
                                           13108, 10923, 9363,  8192};
  return static_cast<int>((static_cast<uint32_t>(x) * kInverse[s]) >> 16);
}

/// Flags for the column sweep's layout. Column j holds m bytes at
/// dirs + j*m. The sweep stripes the query rows over S vectors (row i in
/// vector i mod S, lane i / S) and stores vector v's ceil((m-v)/S) rows
/// together from offset v*(m/S) + min(v, m mod S). S is `stripes` before
/// column `wide_from` and `wide_stripes` from it on, since the 8-bit and
/// 16-bit rungs stripe differently; both are at most 8, and m < 4096.
class ColumnTracebackView {
 public:
  ColumnTracebackView(const uint8_t* dirs, int m, int stripes, int wide_from,
                      int wide_stripes) noexcept
      : dirs_(dirs), m_(m), wide_from_(wide_from), narrow_(layout(m, stripes)),
        wide_(layout(m, wide_stripes)) {}

  uint8_t operator()(int i, int j) const noexcept {
    const Layout& s = j < wide_from_ ? narrow_ : wide_;
    const uint64_t col = static_cast<uint64_t>(j) * static_cast<uint64_t>(m_);
    if (s.stripes == 1) return dirs_[col + static_cast<uint64_t>(i)];
    const int lane = divide_by_stripes(i, s.stripes);
    const int v = i - lane * s.stripes;
    return dirs_[col + static_cast<uint64_t>(v * s.rows + (v < s.extra ? v : s.extra) + lane)];
  }

 private:
  struct Layout {
    int stripes;
    int rows;   // m / stripes
    int extra;  // m mod stripes: the vectors holding one row more
  };
  static Layout layout(int m, int s) noexcept {
    const int rows = divide_by_stripes(m, s);
    return {s, rows, m - rows * s};
  }

  const uint8_t* dirs_;
  int m_;
  int wide_from_;
  Layout narrow_, wide_;
};

/// Compiled once, in traceback.cpp without ISA flags, so no kernel unit
/// keeps a copy the linker could pick for every caller.
extern template TracebackResult walk_traceback<const ColumnTracebackView&>(
    const ColumnTracebackView&, int, int);

}  // namespace swve::core
