// Template body of the inter-sequence batch kernel (see batch32.hpp).
// Instantiated per batch engine: emulated (any CPU), AVX2 (32 lanes,
// double-pshufb row lookup), AVX-512-VBMI (64 lanes, vpermb row lookup).
//
// Column-blocked row loop: column j of the batch is one vector of `lanes`
// residues (Fig 5), and one pass over the query rows computes
// kBatchBlockCols = K consecutive columns j0..j0+K-1. A row step loads
// H(i, j0-1) and F(i, j0), carries the block's K E vectors and the previous
// row's H of columns j0..j0+K-2 (the next row's diagonals) in registers,
// passes F across the block in a register, and stores only H(i, j0+K-1) and
// F(i, j0+K). That is 1 + 2/K loads and 2/K stores per cell against the
// m-row H and F buffers, instead of 3 and 2 for one column per pass. The
// ncols mod K tail columns run the same block function at K = 1. While
// computing a block the kernel prefetches the columns kBatchPrefetchCols
// ahead, i.e. the next block.
//
// Signed domain: a cell holds H - 128 as an int8, so H = 0, the local
// alignment floor, is -128, and the H and F columns start filled with 0x80.
// The diagonal term is one saturating add of the raw score, hs =
// adds(hdiag, s), whose floor at -128 is the max(0, .) of Fig 5; E and F
// decay through a saturating subtract. The running maximum leaves the kernel
// through one xor 0x80, back to the unsigned H the caller expects.
//
// Score profile (SWAPHI): before a pass the kernel extracts one score
// vector per query letter and block column, prof[c][k] = score(c, column
// j0+k) as an int8, with the engine's lookup32 of the matrix's int8 row
// (select_eq for the fixed scheme). A row reads its K score vectors from
// one contiguous run.
//
// Affine gaps carry F forward: cell (i, j) yields F(i, j+1) = max(H(i,j) -
// open, F(i,j) - ext), reusing the H - open that E needs anyway. Linear gaps
// keep their own shorter body (F = H(i, j-1) - ext, which for every column
// but the block's first is the left cell's E): running them as affine with
// open = ext would be bit-identical but measurably slower.
//
// Port map (AVX-512; batch32_avx512.cpp): vpaddsb, vpsubsb and vpmaxsb share
// one port, and max_alt, a compare to mask plus a merge-masked identity
// vpermb, runs on the other. The affine cell runs its saturating add, three
// subtracts and two maxes on the first port, and three max_alts, 6 uops, on
// the second: the hs/E join, E's update and the running maximum. That is 24
// uops per 4 cells on each port. The linear cell has no F decay; it takes
// the running maximum and the hs/E join of 3 of its 4 columns through
// max_alt, 14 uops per 4 cells on each port. The running maximum alternates
// between two accumulators (columns 0/2 and 1/3), so each carries two
// max_alts, not four, per row step. A merge-masked op overwrites its merge
// target, so every max_alt merges into a value that dies there: hs, the
// decayed E or the accumulator.
//
// Row step latency: F threads the block's K columns, so its link from one
// column to the next is the row step's longest chain. The cell therefore
// takes F last, H = max(max_alt(hs, E), F), and F' = max(H - open, F -
// ext) keeps F's link at max -> subs -> max on the first port, with F's own
// decay beside it.
//
// Saturating headroom rule: H is exact while it stays below sat_limit = 255
// - bias - max_subst_score. A saturating add cannot wrap, so the first cell
// whose exact H reaches sat_limit reads at least sat_limit, goes into the
// lane's running maximum, and flags the lane (rescored exactly by the
// caller); unflagged lanes hold exact values. Two clamps keep every operand
// in an int8:
//   * Substitution scores are clamped to int8 when the profile is built. A
//     score outside int8 already puts sat_limit below 128 (a score above
//     127, or a bias above 128), and a clamped score changes only cells
//     that read at least sat_limit either way.
//   * A gap penalty above 127 does not fit one subs: it runs as 127, and
//     sat_limit drops to at most 128. An unflagged lane then holds H <= 127
//     in every cell, where H - 127 and H - p both floor at 0.
// Every cell gets the same value as in a one-column-per-pass loop, so
// results do not depend on K.
//
// Batch engine concept (byte vectors, signed int8 lanes):
//   vec, lanes
//   set1/load/store
//   adds, subs                  — saturating add and subtract (epi8)
//   max, max_alt                — signed max; max_alt returns the same value
//                                 through other execution ports, merging into
//                                 its first operand
//   select_eq(a, b, t, f)       — per lane: a == b ? t : f
//   lookup32(row32, idx)        — per lane: row32[idx], idx in [0, 32)
//   prefetch(p)                 — hint a future column block into cache
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "core/batch32.hpp"
#include "core/params.hpp"
#include "core/workspace.hpp"

namespace swve::core {

/// Database columns per pass over the query rows (the register block).
inline constexpr int kBatchBlockCols = 4;

/// Software-prefetch distance of the batch kernel, in columns: while
/// computing the block at column j0 it prefetches the kBatchBlockCols
/// columns from j0 + kBatchPrefetchCols on (the next block).
inline constexpr uint32_t kBatchPrefetchCols = kBatchBlockCols;

namespace batch_detail {

template <class BE>
struct Consts {
  typename BE::vec open, ext, match, mis;
  const uint8_t* rows;  // int8 matrix rows; nullptr for the fixed scheme
};

// prof[a][k] = score(a, column k of `cols`) as an int8, for letters a in
// [0, letters).
template <class BE, int K>
void build_profile(const uint8_t* cols, int letters, const Consts<BE>& c,
                   uint8_t* prof) {
  constexpr int B = BE::lanes;
  for (int k = 0; k < K; ++k) {
    const auto sym = BE::load(cols + static_cast<size_t>(k) * B);
    for (int a = 0; a < letters; ++a)
      BE::store(prof + static_cast<size_t>(a * K + k) * B,
                c.rows ? BE::lookup32(c.rows + static_cast<size_t>(a) * seq::kMatrixStride,
                                      sym)
                       : BE::select_eq(BE::set1(a), sym, c.match, c.mis));
  }
}

// One pass over the m query rows computing K consecutive columns. hcol holds
// H of the column left of the block on entry and H of its last column on
// exit; fcol (affine) holds F of the block's first column on entry and F of
// the column after it on exit. Column k's running maximum goes to
// vmax[k % 2].
template <class BE, int K, bool Affine>
void row_pass(seq::SeqView q, const uint8_t* prof, uint8_t* hcol, uint8_t* fcol,
              const Consts<BE>& c, typename BE::vec (&vmax)[2]) {
  using vec = typename BE::vec;
  constexpr int B = BE::lanes;
  vec e[K];      // E(i, j0+k), vertical gaps, carried down each column
  vec hdiag[K];  // H(i-1, j0+k-1)
  for (int k = 0; k < K; ++k) e[k] = hdiag[k] = BE::set1(-128);
  for (size_t i = 0; i < q.length; ++i) {
    const uint8_t* s = prof + static_cast<size_t>(q[i]) * K * B;
    uint8_t* hrow = hcol + i * B;
    vec hl = BE::load(hrow);  // H(i, j0-1), then H(i, j0+k-1)
    vec f = Affine ? BE::load(fcol + i * B) : BE::subs(hl, c.ext);  // F(i, j0+k)
    // The diagonal terms first: each hdiag register is then free to take
    // this row's H of its left column.
    vec hs[K];
    for (int k = 0; k < K; ++k)
      hs[k] = BE::adds(hdiag[k], BE::load(s + static_cast<size_t>(k) * B));
    for (int k = 0; k < K; ++k) {
      // F joins last: the F chain through the block is max -> subs -> max.
      // The linear body keeps its last column's hs/E join on the first
      // port, which balances it at 14 uops per 4 cells on each port.
      const vec hse =
          Affine || k < K - 1 ? BE::max_alt(hs[k], e[k]) : BE::max(hs[k], e[k]);
      const vec h = BE::max(hse, f);
      if constexpr (Affine) {
        const vec hopen = BE::subs(h, c.open);
        e[k] = BE::max_alt(BE::subs(e[k], c.ext), hopen);
        f = BE::max(hopen, BE::subs(f, c.ext));
      } else {
        e[k] = f = BE::subs(h, c.ext);
      }
      hdiag[k] = hl;
      hl = h;
      vmax[k % 2] = BE::max_alt(vmax[k % 2], h);
    }
    BE::store(hrow, hl);
    if constexpr (Affine) BE::store(fcol + i * B, f);
  }
}

// Columns [j0, j0 + K): profile, prefetch of the next block, row pass.
template <class BE, int K>
void column_block(seq::SeqView q, const uint8_t* columns, uint32_t j0, uint32_t ncols,
                  int letters, bool affine, const Consts<BE>& c, uint8_t* prof,
                  uint8_t* hcol, uint8_t* fcol, typename BE::vec (&vmax)[2]) {
  constexpr int B = BE::lanes;
  for (uint32_t j = j0 + kBatchPrefetchCols; j < j0 + kBatchPrefetchCols + K && j < ncols; ++j)
    BE::prefetch(columns + static_cast<size_t>(j) * B);
  build_profile<BE, K>(columns + static_cast<size_t>(j0) * B, letters, c, prof);
  if (affine)
    row_pass<BE, K, true>(q, prof, hcol, fcol, c, vmax);
  else
    row_pass<BE, K, false>(q, prof, hcol, fcol, c, vmax);
}

}  // namespace batch_detail

template <class BE>
Batch8Result batch32_kernel(seq::SeqView q, const uint8_t* columns, uint32_t ncols,
                            const AlignConfig& cfg, Workspace& ws) {
  using vec = typename BE::vec;
  constexpr int B = BE::lanes;
  constexpr int K = kBatchBlockCols;
  const int m = static_cast<int>(q.length);

  Batch8Result out{};
  std::memset(out.max_score, 0, sizeof(out.max_score));
  out.saturated_mask = 0;
  if (m == 0 || ncols == 0) return out;

  const bool affine = cfg.gap_model == GapModel::Affine;
  int sat_limit = 255 - cfg.bias() - cfg.max_subst_score();
  // Gap penalties above 127 run as 127 (headroom rule above).
  const int widest_gap = affine ? std::max(cfg.gap_open, cfg.gap_extend) : cfg.gap_extend;
  if (widest_gap > 127) sat_limit = std::min(sat_limit, 128);
  auto clamp_i8 = [](int v) { return std::clamp(v, -128, 127); };
  const batch_detail::Consts<BE> c{
      BE::set1(clamp_i8(cfg.gap_open)),
      BE::set1(clamp_i8(cfg.gap_extend)),
      BE::set1(clamp_i8(cfg.match)),
      BE::set1(clamp_i8(cfg.mismatch)),
      cfg.scheme == ScoreScheme::Matrix
          ? reinterpret_cast<const uint8_t*>(cfg.matrix->rows_i8())
          : nullptr};

  // The profile holds rows for letters [0, letters): every code in q.
  int letters = 0;
  for (int i = 0; i < m; ++i)
    letters = std::max(letters, q[static_cast<size_t>(i)] + 1);

  // H = 0 and F = 0 are 0x80 in the signed domain.
  const size_t col_bytes = static_cast<size_t>(m) * B;
  auto* hcol = static_cast<uint8_t*>(ws.batch_h.ensure(col_bytes));
  std::memset(hcol, 0x80, col_bytes);
  auto* fcol = affine ? static_cast<uint8_t*>(ws.batch_f.ensure(col_bytes)) : nullptr;
  if (fcol) std::memset(fcol, 0x80, col_bytes);
  auto* prof = static_cast<uint8_t*>(
      ws.batch_prof.ensure(static_cast<size_t>(seq::kMatrixStride) * K * B));

  vec vmax[2] = {BE::set1(-128), BE::set1(-128)};
  uint32_t j = 0;
  for (; j + K <= ncols; j += K)
    batch_detail::column_block<BE, K>(q, columns, j, ncols, letters, affine, c, prof,
                                      hcol, fcol, vmax);
  for (; j < ncols; ++j)
    batch_detail::column_block<BE, 1>(q, columns, j, ncols, letters, affine, c, prof,
                                      hcol, fcol, vmax);

  // Back to unsigned H, then the per-lane saturation check.
  BE::store(out.max_score, BE::max(vmax[0], vmax[1]));
  for (int k = 0; k < B; ++k) {
    out.max_score[k] ^= 0x80;
    if (out.max_score[k] >= sat_limit) out.saturated_mask |= uint64_t{1} << k;
  }
  return out;
}

template <class BE>
BatchEngineOps batch32_engine_ops(const uint8_t* a, const uint8_t* b) {
  const auto va = BE::load(a), vb = BE::load(b);
  BatchEngineOps r{};
  BE::store(r.adds, BE::adds(va, vb));
  BE::store(r.subs, BE::subs(va, vb));
  BE::store(r.max, BE::max(va, vb));
  BE::store(r.max_alt, BE::max_alt(va, vb));
  return r;
}

/// Portable batch engine.
template <int B>
struct EmuBatchEngine {
  struct vec {
    std::array<int8_t, B> v;
  };
  static constexpr int lanes = B;
  static vec set1(int x) {
    vec r;
    r.v.fill(static_cast<int8_t>(x));
    return r;
  }
  static vec load(const uint8_t* p) {
    vec r;
    std::memcpy(r.v.data(), p, B);
    return r;
  }
  static void store(uint8_t* p, vec a) { std::memcpy(p, a.v.data(), B); }
  template <class Op>
  static vec lanewise(vec a, vec b, Op op) {
    vec r;
    for (int k = 0; k < B; ++k)
      r.v[k] = static_cast<int8_t>(op(int{a.v[k]}, int{b.v[k]}));
    return r;
  }
  static vec adds(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return std::clamp(x + y, -128, 127); });
  }
  static vec subs(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return std::clamp(x - y, -128, 127); });
  }
  static vec max(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return std::max(x, y); });
  }
  static vec max_alt(vec a, vec b) { return max(a, b); }
  static vec select_eq(vec a, vec b, vec t, vec f) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = a.v[k] == b.v[k] ? t.v[k] : f.v[k];
    return r;
  }
  static vec lookup32(const uint8_t* row32, vec idx) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = static_cast<int8_t>(row32[idx.v[k] & 31]);
    return r;
  }
  static void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }
};

}  // namespace swve::core
