// Template body of the inter-sequence batch kernel (see batch32.hpp).
// Instantiated per batch engine: emulated (any CPU), AVX2 (32 lanes,
// double-pshufb row lookup), AVX-512-VBMI (64 lanes, vpermb row lookup).
//
// One column loop, as in Fig 5: column j of the batch is one vector of
// `lanes` residues, and every query row updates that column's H/E/F vectors.
// The column block kBatchPrefetchCols ahead is software-prefetched.
//
// Score profile (SWAPHI): before walking column j the kernel extracts one
// score vector per query letter, prof[c] = score(c, column j) + bias, with
// the engine's lookup32 (select_eq for the fixed scheme). The row loop then
// loads prof[q[i]] instead of shuffling per cell.
//
// Affine gaps carry F forward: row i stores F(i, j+1) = max(H(i,j) - open,
// F(i,j) - ext), reusing the H - open that E needs anyway. Linear gaps keep
// their own shorter body (F = H(i, j-1) - ext, nothing stored): running them
// as affine with open = ext would be bit-identical but measurably slower.
//
// Headroom rule: `hdiag + s` uses a wrapping add. It can only wrap when
// hdiag > 255 - s >= sat_limit, and hdiag is an H that already went into
// vmax, so that lane is flagged saturated (and rescored exactly by the
// caller) before the wrap. Unflagged lanes get the saturating result.
//
// Batch engine concept:
//   vec, lanes
//   zero/set1/load/store        — byte vectors
//   add                         — wrapping byte add
//   subs                        — unsigned saturating subtract (epu8)
//   max, max_alt                — unsigned max; max_alt returns the same
//                                 value through other execution ports
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

/// Software-prefetch distance of the batch kernel, in columns: while
/// walking column j it prefetches column j + kBatchPrefetchCols.
inline constexpr uint32_t kBatchPrefetchCols = 4;

template <class BE>
Batch8Result batch32_kernel(seq::SeqView q, const uint8_t* columns, uint32_t ncols,
                            const AlignConfig& cfg, Workspace& ws) {
  using vec = typename BE::vec;
  constexpr int B = BE::lanes;
  const int m = static_cast<int>(q.length);

  Batch8Result out{};
  std::memset(out.max_score, 0, sizeof(out.max_score));
  out.saturated_mask = 0;
  if (m == 0 || ncols == 0) return out;

  const bool affine = cfg.gap_model == GapModel::Affine;
  const bool use_matrix = cfg.scheme == ScoreScheme::Matrix;
  const int bias = cfg.bias();
  const int sat_limit = 255 - bias - cfg.max_subst_score();
  auto clamp_u8 = [](int v) { return v < 0 ? 0 : (v > 255 ? 255 : v); };
  const vec vzero = BE::zero();
  const vec vbias = BE::set1(bias);
  const vec vopen = BE::set1(clamp_u8(cfg.gap_open));
  const vec vext = BE::set1(clamp_u8(cfg.gap_extend));
  const vec vmatch = BE::set1(clamp_u8(cfg.match + bias));
  const vec vmis = BE::set1(clamp_u8(cfg.mismatch + bias));
  const uint8_t* rows = use_matrix ? cfg.matrix->rows_biased_u8() : nullptr;

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
      ws.batch_prof.ensure(static_cast<size_t>(seq::kMatrixStride) * B));

  vec vmax = vzero;
  for (uint32_t j = 0; j < ncols; ++j) {
    if (j + kBatchPrefetchCols < ncols)
      BE::prefetch(columns + static_cast<size_t>(j + kBatchPrefetchCols) * B);
    const vec sym = BE::load(columns + static_cast<size_t>(j) * B);
    for (int c = 0; c < letters; ++c)
      BE::store(prof + static_cast<size_t>(c) * B,
                use_matrix
                    ? BE::lookup32(rows + static_cast<size_t>(c) * seq::kMatrixStride,
                                   sym)
                    : BE::select_eq(BE::set1(c), sym, vmatch, vmis));
    vec e = vzero;      // E(i, j), vertical gaps, carried down the column
    vec hdiag = vzero;  // H(i-1, j-1)
    for (int i = 0; i < m; ++i) {
      const vec s = BE::load(prof + static_cast<size_t>(q[static_cast<size_t>(i)]) * B);
      uint8_t* hrow = hcol + static_cast<size_t>(i) * B;
      const vec hp = BE::load(hrow);  // H(i, j-1)
      const vec hs = BE::subs(BE::add(hdiag, s), vbias);
      vec h;
      if (affine) {
        uint8_t* frow = fcol + static_cast<size_t>(i) * B;
        const vec f = BE::load(frow);  // F(i, j), stored by column j-1
        h = BE::max(BE::max_alt(hs, f), e);
        const vec hopen = BE::subs(h, vopen);
        e = BE::max(hopen, BE::subs(e, vext));
        BE::store(frow, BE::max_alt(hopen, BE::subs(f, vext)));
      } else {
        h = BE::max(BE::max_alt(hs, BE::subs(hp, vext)), e);
        e = BE::subs(h, vext);
      }
      BE::store(hrow, h);
      hdiag = hp;
      vmax = BE::max(vmax, h);
    }
  }

  // Per-lane saturation check against the unbiased 8-bit headroom bound.
  BE::store(out.max_score, vmax);
  for (int k = 0; k < B; ++k)
    if (out.max_score[k] >= sat_limit) out.saturated_mask |= uint64_t{1} << k;
  return out;
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
