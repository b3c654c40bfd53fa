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
// Score profile (SWAPHI): before a pass the kernel extracts one score
// vector per query letter and block column, prof[c][k] = score(c, column
// j0+k) + bias, with the engine's lookup32 (select_eq for the fixed
// scheme). A row reads its K score vectors from one contiguous run.
//
// Affine gaps carry F forward: cell (i, j) yields F(i, j+1) = max(H(i,j) -
// open, F(i,j) - ext), reusing the H - open that E needs anyway. Linear gaps
// keep their own shorter body (F = H(i, j-1) - ext, which for every column
// but the block's first is the left cell's E): running them as affine with
// open = ext would be bit-identical but measurably slower.
//
// Row step latency: F threads the block's K columns, so its link from one
// column to the next is the row step's longest chain. The cell therefore
// takes F last, H = max(max_alt(hs, E), F), and decays it through
// subs_alt: F' = max(H - open, subs_alt(F, ext)). On AVX-512 the link is
// vpmaxub -> vpsubusb -> vpmaxub (~3 cycles), with F's compare-to-mask and
// zero-masked vpsubb (~4) beside the first two: ~5 cycles per column. The
// order max(max_alt(hs, F), E), F' = max_alt(H - open, F - ext) put two
// compare + blend pairs on the link, ~10 cycles per column and ~40 per
// 4-column row step against the 27 busy-port cycles the row needs. Both
// orders run 7 busy-port ops per cell (27 per 4 cells, as the last
// column's running maximum goes through max_alt) and give every cell the
// same value.
//
// Headroom rule: `hdiag + s` uses a wrapping add. It can only wrap when
// hdiag > 255 - s >= sat_limit, and hdiag is an H that already went into
// vmax (in the row step that computed it), so that lane is flagged saturated
// (and rescored exactly by the caller) before the wrap. Unflagged lanes get
// the saturating result. Every cell gets the same value as in a
// one-column-per-pass loop, so results do not depend on K.
//
// Batch engine concept:
//   vec, lanes
//   zero/set1/load/store        — byte vectors
//   add                         — wrapping byte add
//   subs, subs_alt              — unsigned saturating subtract (epu8)
//   max, max_alt                — unsigned max; the _alt forms return the
//                                 same value through other execution ports
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
  typename BE::vec bias, open, ext, match, mis;
  const uint8_t* rows;  // biased matrix rows; nullptr for the fixed scheme
};

// prof[a][k] = score(a, column k of `cols`) + bias, for letters a in
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
// the column after it on exit.
template <class BE, int K, bool Affine>
void row_pass(seq::SeqView q, const uint8_t* prof, uint8_t* hcol, uint8_t* fcol,
              const Consts<BE>& c, typename BE::vec& vmax) {
  using vec = typename BE::vec;
  constexpr int B = BE::lanes;
  vec e[K];      // E(i, j0+k), vertical gaps, carried down each column
  vec hdiag[K];  // H(i-1, j0+k-1)
  for (int k = 0; k < K; ++k) e[k] = hdiag[k] = BE::zero();
  for (size_t i = 0; i < q.length; ++i) {
    const uint8_t* s = prof + static_cast<size_t>(q[i]) * K * B;
    uint8_t* hrow = hcol + i * B;
    vec hl = BE::load(hrow);  // H(i, j0-1), then H(i, j0+k-1)
    vec f = Affine ? BE::load(fcol + i * B) : BE::subs(hl, c.ext);  // F(i, j0+k)
    // The diagonal terms first: each hdiag register is then free to take
    // this row's H of its left column.
    vec hs[K];
    for (int k = 0; k < K; ++k)
      hs[k] = BE::subs(BE::add(hdiag[k], BE::load(s + static_cast<size_t>(k) * B)), c.bias);
    for (int k = 0; k < K; ++k) {
      // F joins last: the F chain through the block is max -> subs -> max.
      const vec h = BE::max(BE::max_alt(hs[k], e[k]), f);
      if constexpr (Affine) {
        const vec hopen = BE::subs(h, c.open);
        e[k] = BE::max(hopen, BE::subs(e[k], c.ext));
        f = BE::max(hopen, BE::subs_alt(f, c.ext));
      } else {
        e[k] = f = BE::subs(h, c.ext);
      }
      hdiag[k] = hl;
      hl = h;
      // The last column's maximum goes through the other ports.
      vmax = k == K - 1 ? BE::max_alt(vmax, h) : BE::max(vmax, h);
    }
    BE::store(hrow, hl);
    if constexpr (Affine) BE::store(fcol + i * B, f);
  }
}

// Columns [j0, j0 + K): profile, prefetch of the next block, row pass.
template <class BE, int K>
void column_block(seq::SeqView q, const uint8_t* columns, uint32_t j0, uint32_t ncols,
                  int letters, bool affine, const Consts<BE>& c, uint8_t* prof,
                  uint8_t* hcol, uint8_t* fcol, typename BE::vec& vmax) {
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
  const int bias = cfg.bias();
  const int sat_limit = 255 - bias - cfg.max_subst_score();
  auto clamp_u8 = [](int v) { return v < 0 ? 0 : (v > 255 ? 255 : v); };
  const batch_detail::Consts<BE> c{
      BE::set1(bias),
      BE::set1(clamp_u8(cfg.gap_open)),
      BE::set1(clamp_u8(cfg.gap_extend)),
      BE::set1(clamp_u8(cfg.match + bias)),
      BE::set1(clamp_u8(cfg.mismatch + bias)),
      cfg.scheme == ScoreScheme::Matrix ? cfg.matrix->rows_biased_u8() : nullptr};

  // The profile holds rows for letters [0, letters): every code in q.
  int letters = 0;
  for (int i = 0; i < m; ++i)
    letters = std::max(letters, q[static_cast<size_t>(i)] + 1);

  auto* hcol = static_cast<uint8_t*>(
      ws.batch_h.ensure_zeroed(static_cast<size_t>(m) * B));
  auto* fcol = affine ? static_cast<uint8_t*>(ws.batch_f.ensure_zeroed(
                            static_cast<size_t>(m) * B))
                      : nullptr;
  auto* prof = static_cast<uint8_t*>(
      ws.batch_prof.ensure(static_cast<size_t>(seq::kMatrixStride) * K * B));

  vec vmax = BE::zero();
  uint32_t j = 0;
  for (; j + K <= ncols; j += K)
    batch_detail::column_block<BE, K>(q, columns, j, ncols, letters, affine, c, prof,
                                      hcol, fcol, vmax);
  for (; j < ncols; ++j)
    batch_detail::column_block<BE, 1>(q, columns, j, ncols, letters, affine, c, prof,
                                      hcol, fcol, vmax);

  // Per-lane saturation check against the unbiased 8-bit headroom bound.
  BE::store(out.max_score, vmax);
  for (int k = 0; k < B; ++k)
    if (out.max_score[k] >= sat_limit) out.saturated_mask |= uint64_t{1} << k;
  return out;
}

template <class BE>
BatchEngineOps batch32_engine_ops(const uint8_t* a, const uint8_t* b) {
  const auto va = BE::load(a), vb = BE::load(b);
  BatchEngineOps r{};
  BE::store(r.subs, BE::subs(va, vb));
  BE::store(r.subs_alt, BE::subs_alt(va, vb));
  BE::store(r.max, BE::max(va, vb));
  BE::store(r.max_alt, BE::max_alt(va, vb));
  return r;
}

/// Portable batch engine.
template <int B>
struct EmuBatchEngine {
  struct vec {
    std::array<uint8_t, B> v;
  };
  static constexpr int lanes = B;
  static vec zero() {
    vec r;
    r.v.fill(0);
    return r;
  }
  static vec set1(int x) {
    vec r;
    r.v.fill(static_cast<uint8_t>(x));
    return r;
  }
  static vec load(const uint8_t* p) {
    vec r;
    std::memcpy(r.v.data(), p, B);
    return r;
  }
  static void store(uint8_t* p, vec a) { std::memcpy(p, a.v.data(), B); }
  static vec add(vec a, vec b) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = static_cast<uint8_t>(a.v[k] + b.v[k]);
    return r;
  }
  static vec subs(vec a, vec b) {
    vec r;
    for (int k = 0; k < B; ++k) {
      int t = a.v[k] - b.v[k];
      r.v[k] = static_cast<uint8_t>(t < 0 ? 0 : t);
    }
    return r;
  }
  static vec max(vec a, vec b) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static vec max_alt(vec a, vec b) { return max(a, b); }
  static vec subs_alt(vec a, vec b) { return subs(a, b); }
  static vec select_eq(vec a, vec b, vec t, vec f) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = a.v[k] == b.v[k] ? t.v[k] : f.v[k];
    return r;
  }
  static vec lookup32(const uint8_t* row32, vec idx) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = row32[idx.v[k] & 31];
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
