// The column sweep: Smith-Waterman for a query of at most 128 residues on
// AVX-512 VBMI (compiled with the AVX-512 flags; core::pair_align decides
// when it runs). docs/kernel.md, "Column sweep", has the derivation.
//
//   * lane i holds query row i: K = ceil(m/64) vectors of 8-bit cells or
//     ceil(m/32) of 16-bit cells. The sweep walks the reference columns
//     j = 0..n-1 and keeps H, F and the row maxima in registers;
//   * each column loads one profile vector group: the biased scores of
//     every query row against r[j], built once per call for the codes up to
//     r's largest (one vpermb per 64 rows from the matrix's column-major
//     biased table, or match/mismatch selects);
//   * H(i-1, j-1) is the previous column's H moved one lane up; F (the
//     horizontal gap) is lane-wise from the previous column; E (the
//     vertical gap) is an up-to-ceil(log2 m)-step max-plus prefix scan over
//     the lanes of T = max(H(i-1,j-1) + s, F), exact because open >= extend.
//     The scan stops before the first step that can change no lane;
//   * rows >= m score 0 against every code, so their cells never exceed
//     the largest real cell of their column and the columns before it: they
//     cannot trip the saturation check, and their maxima are never read.
//     They only feed higher rows, never real ones;
//   * the maximum is deferred (§III-D): a per-row maximum plus the column of
//     its last strict improvement, kept in the lanes as an offset into a
//     block of fewer than 2^8 (8-bit) or 2^16 (16-bit) columns and flushed
//     to int32 at the block's end;
//   * an adaptive run starts at 8 bits and stops after the first column
//     whose maximum reaches the 8-bit limit. That column is exact, so its
//     H, F and row maxima are zero-extended to 16 bits and the sweep
//     continues at the next column: every cell is computed once.
//     pair_align admits only queries whose score cannot reach the 16-bit
//     limit, so no 32-bit rung follows.
// Direction bytes follow the diagonal kernel's encoding, rows [0, m) of
// column j at tb_dirs + j*m.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/traceback.hpp"
#include "core/dispatch.hpp"
#include "simd/engines_avx512.hpp"

namespace swve::core {

namespace {

using simd::Avx512U16;
using simd::Avx512U8;
using vec = __m512i;

constexpr int kMaxRows = 128;
/// Scan steps for up to kMaxRows rows.
constexpr int kMaxSteps = 7;

/// What the sweep carries between blocks and across the hand-off: H and F
/// of the last column and the row maxima, as elements of the running width
/// (the first 128 bytes at 8 bits, all 256 at 16), and each row's best
/// column.
struct alignas(64) SweepState {
  unsigned char h[2 * kMaxRows];
  unsigned char f[2 * kMaxRows];
  unsigned char rowmax[2 * kMaxRows];
  int32_t best_col[kMaxRows];
};

struct ColumnJob {
  const uint8_t* r = nullptr;
  int m = 0;
  const void* prof = nullptr;  ///< [code][K * lanes] elements
  uint8_t* tb = nullptr;       ///< column-major directions, or null
  int64_t open = 0;            ///< penalty of a gap's first residue
  int64_t ext = 0;
  int bias = 0;
  /// Stop after the first column with a cell at or above sat_limit.
  bool hands_off = false;
  int64_t sat_limit = 0;
  SweepState* st = nullptr;
};

template <class E>
typename E::mask low_lanes(int count) {
  if (count >= E::lanes) return static_cast<typename E::mask>(~uint64_t{0});
  return static_cast<typename E::mask>((uint64_t{1} << count) - 1);
}

/// out = in moved one row up across the K vectors, row 0 zero-filled.
template <class E, int K>
inline void shift_rows1(const vec (&in)[K], vec (&out)[K], vec idx1) {
#pragma GCC unroll 4
  for (int k = 0; k < K; ++k)
    out[k] = E::shift_up(k > 0 ? in[k - 1] : E::zero(), in[k], idx1);
}

/// One max-plus scan step: e[i] = max(e[i], e[i - s] - pen), rows below 0
/// reading 0. s is a power of two; below one vector it is a lane shift,
/// from one vector up a shift by whole vectors.
template <class E, int K>
inline void scan_step(vec (&e)[K], int s, vec idx, vec pen) {
  if (s < E::lanes) {
#pragma GCC unroll 4
    for (int k = K - 1; k >= 0; --k)
      e[k] = E::max(e[k], E::sub_floor(
                              E::shift_up(k > 0 ? e[k - 1] : E::zero(), e[k], idx),
                              pen));
  } else if (s == E::lanes) {
#pragma GCC unroll 4
    for (int k = K - 1; k >= 1; --k) e[k] = E::max(e[k], E::sub_floor(e[k - 1], pen));
  } else {  // two vectors: 16-bit cells, s = 64
#pragma GCC unroll 4
    for (int k = K - 1; k >= 2; --k) e[k] = E::max(e[k], E::sub_floor(e[k - 2], pen));
  }
}

/// Columns [j0, j1) of one block, j1 - j0 <= E::cap. Returns the column
/// after the last one computed: j1, or the column after a saturated one
/// when job.hands_off, which sets `stopped`. GM is Affine only when
/// open > extend (column_avx512 runs open == extend as the Linear model it
/// equals). Kept out of line: it runs once per block, and the CI inner-loop
/// check finds its loop by this name.
template <class E, int K, GapModel GM, bool TB>
[[gnu::noinline]] int sweep_block(const ColumnJob& job, int j0, int j1, bool& stopped) {
  using elem = typename E::elem;
  using mask = typename E::mask;
  constexpr int L = E::lanes;
  SweepState& st = *job.st;
  elem* const sh = reinterpret_cast<elem*>(st.h);
  elem* const sf = reinterpret_cast<elem*>(st.f);
  elem* const srm = reinterpret_cast<elem*>(st.rowmax);
  const elem* const prof = static_cast<const elem*>(job.prof);
  const uint8_t* const r = job.r;
  uint8_t* const tb = job.tb;
  const int m = job.m;
  const bool hands_off = job.hands_off;

  // H, F and the row maxima, and each row's best column as an offset into
  // this block (E::cap: not improved in it).
  vec H[K], F[K], RM[K], BJ[K];
#pragma GCC unroll 4
  for (int k = 0; k < K; ++k) {
    H[k] = E::loadu(sh + k * L);
    F[k] = E::loadu(sf + k * L);
    RM[k] = E::loadu(srm + k * L);
    BJ[k] = E::set1(E::cap);
  }

  const vec vzero = E::zero();
  const vec vbias = E::set1(job.bias);
  const vec vopen = E::set1(std::min<int64_t>(job.open, E::cap));
  const vec vext = E::set1(std::min<int64_t>(job.ext, E::cap));
  const vec idx1 = E::shift_index(1);
  // Scan step t shifts by 2^t rows; ceil(log2 m) steps cover the column.
  int steps = 0;
  vec idx[kMaxSteps], pen[kMaxSteps];
  for (; (1 << steps) < m; ++steps) {
    const int s = 1 << steps;
    idx[steps] = s < L ? E::shift_index(s) : vzero;
    pen[steps] = E::set1(std::min<int64_t>(s * job.ext, E::cap));
  }
  [[maybe_unused]] mask tbm[K];
#pragma GCC unroll 4
  for (int k = 0; k < K; ++k) tbm[k] = low_lanes<E>(m - k * L);
  [[maybe_unused]] const vec v1 = E::set1(kTbDiag);
  [[maybe_unused]] const vec v2 = E::set1(kTbE);
  [[maybe_unused]] const vec v3 = E::set1(kTbF);
  [[maybe_unused]] const vec v4 = E::set1(kTbEExt);
  [[maybe_unused]] const vec v8 = E::set1(kTbFExt);
  const vec vsat_below = E::set1(hands_off ? job.sat_limit - 1 : 0);

  int j = j0;
  while (j < j1) {
    const elem* p = prof + static_cast<size_t>(r[j]) * (K * L);
    vec hd[K];
    shift_rows1<E, K>(H, hd, idx1);
    vec hs[K], f[K], t[K];
    [[maybe_unused]] vec f_open[K];
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k) {
      hs[k] = E::add_score(hd[k], E::loadu(p + k * L), vbias);
      if constexpr (GM == GapModel::Affine) {
        f_open[k] = E::sub_floor(H[k], vopen);
        f[k] = E::max(f_open[k], E::sub_floor(F[k], vext));
      } else {
        f[k] = E::sub_floor(H[k], vext);
      }
      t[k] = E::max(hs[k], f[k]);
    }
    // E(i) = max over k < i of T(k) - open - (i-1-k)*extend, floored at 0:
    // the scan of e_init(i) = T(i-1) - open.
    vec e[K];
    [[maybe_unused]] vec e_init[K];
    shift_rows1<E, K>(t, e, idx1);
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k) {
      e[k] = E::sub_floor(e[k], GM == GapModel::Affine ? vopen : vext);
      if constexpr (GM == GapModel::Affine) e_init[k] = e[k];
    }
    // Early stop: after steps 0..s-1 each row holds its maximum over the
    // rows less than 2^s below it. If no row exceeds pen[s], every candidate
    // of step s floors at 0 and changes nothing, and each later step, with
    // its penalty at least pen[s], sees the same rows: e is already exact.
    for (int s = 0; s < steps; ++s) {
      mask live = 0;
#pragma GCC unroll 4
      for (int k = 0; k < K; ++k) live |= E::cmpgt(e[k], pen[s]);
      if (!E::any(live)) break;
      scan_step<E, K>(e, 1 << s, idx[s], pen[s]);
    }
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k) {
      H[k] = E::max(t[k], e[k]);
      if constexpr (GM == GapModel::Affine) F[k] = f[k];
    }

    if constexpr (TB) {
      uint8_t* col = tb + static_cast<uint64_t>(j) * static_cast<uint64_t>(m);
#pragma GCC unroll 4
      for (int k = 0; k < K; ++k) {
        // Priority on ties: stop > diag > E > F, as the diagonal kernel.
        vec dir = E::blend(E::cmpeq(H[k], e[k]), v3, v2);
        dir = E::blend(E::cmpeq(H[k], hs[k]), dir, v1);
        dir = E::blend(E::cmpeq(H[k], vzero), dir, vzero);
        if constexpr (GM == GapModel::Affine) {
          // E extends when it is not H(i-1, j) - open. With open > extend
          // that is exactly when it is not e_init: an E(i-1) above T(i-1)
          // and open makes both E(i-1) - extend.
          dir = E::set_bits_ne(dir, e[k], e_init[k], v4);
          dir = E::set_bits_ne(dir, f[k], f_open[k], v8);
        }
        E::store_dir_u8_masked(col + k * L, tbm[k], dir);
      }
    }

    // Deferred maximum: rows that strictly improve record this column.
    const vec vj = E::set1(j - j0);
#pragma GCC unroll 4
    for (int k = 0; k < K; ++k) {
      BJ[k] = E::blend(E::cmpgt(H[k], RM[k]), BJ[k], vj);
      RM[k] = E::max(RM[k], H[k]);
    }
    ++j;

    if (hands_off) {
      vec mx = H[0];
#pragma GCC unroll 4
      for (int k = 1; k < K; ++k) mx = E::max(mx, H[k]);
      if (E::any(E::cmpgt(mx, vsat_below))) {
        stopped = true;
        break;
      }
    }
  }

  alignas(64) elem off[K * L];
#pragma GCC unroll 4
  for (int k = 0; k < K; ++k) {
    E::storeu(sh + k * L, H[k]);
    E::storeu(sf + k * L, F[k]);
    E::storeu(srm + k * L, RM[k]);
    E::storeu(off + k * L, BJ[k]);
  }
  // Rows improved in this block take j0 + offset, 16 int32 at a time.
  const vec vj0 = _mm512_set1_epi32(j0);
  const vec vnone = _mm512_set1_epi32(static_cast<int>(E::cap));
  for (int i = 0; i < m; i += 16) {
    vec o;
    if constexpr (sizeof(elem) == 1)
      o = _mm512_cvtepu8_epi32(_mm_load_si128(reinterpret_cast<const __m128i*>(off + i)));
    else
      o = _mm512_cvtepu16_epi32(_mm256_load_si256(reinterpret_cast<const __m256i*>(off + i)));
    _mm512_mask_storeu_epi32(st.best_col + i, _mm512_cmpneq_epi32_mask(o, vnone),
                             _mm512_add_epi32(o, vj0));
  }
  return j;
}

/// Zero-extends kMaxRows 8-bit elements at `b` to 16 bits in place.
void widen_rows(unsigned char* b) {
  const vec lo = _mm512_load_si512(b);
  const vec hi = _mm512_load_si512(b + 64);
  _mm512_store_si512(b, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(lo)));
  _mm512_store_si512(b + 64, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(lo, 1)));
  _mm512_store_si512(b + 128, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(hi)));
  _mm512_store_si512(b + 192, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(hi, 1)));
}

template <class E, int K>
int sweep_columns(const ColumnJob& job, GapModel gm, bool tb, int j0, int j1,
                  bool& stopped) {
  if (gm == GapModel::Affine)
    return tb ? sweep_block<E, K, GapModel::Affine, true>(job, j0, j1, stopped)
              : sweep_block<E, K, GapModel::Affine, false>(job, j0, j1, stopped);
  return tb ? sweep_block<E, K, GapModel::Linear, true>(job, j0, j1, stopped)
            : sweep_block<E, K, GapModel::Linear, false>(job, j0, j1, stopped);
}

/// Sweeps columns [j, n) block by block at E's width. Returns the column
/// after the last one computed; `stopped` is set when a hand-off stopped
/// the sweep at a saturated column.
template <class E>
int run_width(const ColumnJob& job, GapModel gm, bool tb, int j, int n,
              bool& stopped) {
  const int K = (job.m + E::lanes - 1) / E::lanes;
  stopped = false;
  while (j < n && !stopped) {
    const int j1 = std::min<int64_t>(n, j + E::cap);
    int next;
    switch (K) {
      case 1: next = sweep_columns<E, 1>(job, gm, tb, j, j1, stopped); break;
      case 2: next = sweep_columns<E, 2>(job, gm, tb, j, j1, stopped); break;
      case 3:
        if constexpr (E::lanes == 32) {
          next = sweep_columns<E, 3>(job, gm, tb, j, j1, stopped);
          break;
        }
        [[fallthrough]];
      case 4:
        if constexpr (E::lanes == 32) {
          next = sweep_columns<E, 4>(job, gm, tb, j, j1, stopped);
          break;
        }
        [[fallthrough]];
      default:
        throw std::logic_error("column sweep: query longer than 128 rows");
    }
    j = next;
  }
  return j;
}

/// The first row holding the largest row maximum, or -1 when every row
/// maximum is 0; `best` gets that maximum.
template <class E>
int best_row(const SweepState& st, int m, int64_t& best) {
  using elem = typename E::elem;
  constexpr int L = E::lanes;
  const elem* const rm = reinterpret_cast<const elem*>(st.rowmax);
  const int K = (m + L - 1) / L;
  vec v[kMaxRows / L];
  vec mx = E::zero();
  for (int k = 0; k < K; ++k) {
    v[k] = E::blend(low_lanes<E>(m - k * L), E::zero(), E::loadu(rm + k * L));
    mx = E::max(mx, v[k]);
  }
  // Fold to 16 lanes of int32 and reduce.
  __m512i wide;
  if constexpr (L == 64) {
    const __m256i h = _mm256_max_epu8(_mm512_castsi512_si256(mx),
                                      _mm512_extracti64x4_epi64(mx, 1));
    wide = _mm512_cvtepu8_epi32(
        _mm_max_epu8(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1)));
  } else {
    wide = _mm512_cvtepu16_epi32(_mm256_max_epu16(_mm512_castsi512_si256(mx),
                                                  _mm512_extracti64x4_epi64(mx, 1)));
  }
  best = _mm512_reduce_max_epu32(wide);
  if (best == 0) return -1;
  const vec vbest = E::set1(best);
  for (int k = 0;; ++k) {
    const uint64_t hit = E::cmpeq(v[k], vbest);
    if (hit != 0) return k * L + __builtin_ctzll(hit);
  }
}

/// Biased scores of query rows against every code up to `max_code`, rows
/// >= m zero: prof[c * K * lanes + i]. Matrix scores are one vpermb per 64
/// rows from the matrix's column-major biased table (query codes index
/// column c), zero-extended for 16-bit cells; Fixed scores are
/// match/mismatch selects. Kept out of line so the CI inner-loop check
/// finds its loop by name.
template <class E>
[[gnu::noinline]] const typename E::elem* build_profile(seq::SeqView q,
                                                        const AlignConfig& cfg,
                                                        int max_code, Workspace& ws) {
  using elem = typename E::elem;
  constexpr int L = E::lanes;
  const int m = static_cast<int>(q.length);
  const int K = (m + L - 1) / L;
  const size_t stride = static_cast<size_t>(K) * L;
  elem* prof = static_cast<elem*>(
      ws.column_prof.ensure((static_cast<size_t>(max_code) + 1) * stride * sizeof(elem)));
  // Query bytes per 64-row group, zero past m (masked loads read only q).
  const int groups = (m + 63) / 64;
  vec qb[2];
  __mmask64 valid[2];
  for (int g = 0; g < groups; ++g) {
    valid[g] = low_lanes<Avx512U8>(m - 64 * g);
    qb[g] = _mm512_maskz_loadu_epi8(valid[g], q.data + 64 * g);
  }
  if (cfg.scheme == ScoreScheme::Matrix) {
    const uint8_t* const cols = cfg.matrix->cols_biased_u8();
    for (int c = 0; c <= max_code; ++c) {
      elem* const out = prof + static_cast<size_t>(c) * stride;
      const vec col = _mm512_zextsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + 32 * c)));
#pragma GCC unroll 2
      for (int g = 0; g < groups; ++g) {
        const vec s = _mm512_maskz_permutexvar_epi8(valid[g], qb[g], col);
        if constexpr (L == 64) {
          E::storeu(out + 64 * g, s);
        } else {
          E::storeu(out + 64 * g, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(s)));
          if (64 * g + 32 < m)
            E::storeu(out + 64 * g + 32,
                      _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(s, 1)));
        }
      }
    }
    return prof;
  }
  // Fixed: the query codes at the cell width, selected per code.
  vec qk[kMaxRows / L];
  typename E::mask in[kMaxRows / L];
  for (int k = 0; k < K; ++k) {
    in[k] = low_lanes<E>(m - k * L);
    if constexpr (L == 64)
      qk[k] = qb[k];
    else
      qk[k] = _mm512_cvtepu8_epi16(k % 2 == 0 ? _mm512_castsi512_si256(qb[k / 2])
                                              : _mm512_extracti64x4_epi64(qb[k / 2], 1));
  }
  auto clamp = [](int64_t v) { return std::clamp<int64_t>(v, 0, E::cap); };
  const vec vmatch = E::set1(clamp(static_cast<int64_t>(cfg.match) + cfg.bias()));
  const vec vmis = E::set1(clamp(static_cast<int64_t>(cfg.mismatch) + cfg.bias()));
  for (int c = 0; c <= max_code; ++c) {
    elem* const out = prof + static_cast<size_t>(c) * stride;
    const vec code = E::set1(c);
    for (int k = 0; k < K; ++k)
      E::storeu(out + k * L, E::blend(in[k], E::zero(),
                                      E::blend(E::cmpeq(qk[k], code), vmis, vmatch)));
  }
  return prof;
}

}  // namespace

Alignment column_avx512(seq::SeqView q, seq::SeqView r, uint8_t r_max_code,
                        const AlignConfig& cfg, Workspace& ws) {
  const int m = static_cast<int>(q.length);
  const int n = static_cast<int>(r.length);
  if (m < 1 || m > kMaxRows || cfg.width == Width::W32 || cfg.band >= 0)
    throw std::logic_error("column sweep: unsupported shape");
  Alignment a;
  a.isa_used = simd::Isa::Avx512;
  a.sweep = Sweep::Column;

  ColumnJob job;
  job.r = r.data;
  job.m = m;
  job.bias = cfg.bias();
  job.ext = cfg.gap_extend;
  job.open = cfg.gap_model == GapModel::Affine ? cfg.gap_open : cfg.gap_extend;
  // Affine gaps with open == extend are linear ones: E(i-1) <= H(i-1) makes
  // every E and F the open term, so no extend bit is ever set either.
  const GapModel gm = job.open == job.ext ? GapModel::Linear : cfg.gap_model;
  if (cfg.traceback) {
    const uint64_t cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(n);
    if (cells > cfg.max_traceback_cells)
      throw std::length_error("pair_align: traceback matrix exceeds cell cap");
    job.tb = static_cast<uint8_t*>(ws.tb_dirs.ensure(cells + kPad));
  }
  SweepState st;
  std::memset(st.h, 0, sizeof st.h);
  std::memset(st.f, 0, sizeof st.f);
  std::memset(st.rowmax, 0, sizeof st.rowmax);
  job.st = &st;

  const int smax = cfg.max_subst_score();
  const bool adaptive = cfg.width == Width::Adaptive;
  Width w = adaptive ? Width::W8 : cfg.width;
  a.width_used = w;
  if (n == 0) return a;  // no cells: unsaturated at the first rung
  int j = 0;
  int64_t sat_limit = 0;
  if (w == Width::W8) {
    sat_limit = Avx512U8::cap - job.bias - smax;
    if (adaptive && sat_limit <= 0) {  // 8 bits cannot hold any cell
      a.saturated_8 = true;
      w = Width::W16;
    } else {
      job.prof = build_profile<Avx512U8>(q, cfg, r_max_code, ws);
      job.hands_off = adaptive;
      job.sat_limit = sat_limit;
      bool stopped = false;
      j = run_width<Avx512U8>(job, gm, cfg.traceback, 0, n, stopped);
      if (stopped) {
        a.saturated_8 = true;
        w = Width::W16;
        widen_rows(st.h);
        widen_rows(st.f);
        widen_rows(st.rowmax);
      }
    }
  }
  a.stats.cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(j);
  if (w == Width::W16) {
    sat_limit = Avx512U16::cap - job.bias - smax;
    job.prof = build_profile<Avx512U16>(q, cfg, r_max_code, ws);
    job.hands_off = false;
    bool stopped = false;
    const int j16 = j;
    j = run_width<Avx512U16>(job, gm, cfg.traceback, j16, n, stopped);
    a.stats.cells += static_cast<uint64_t>(m) * static_cast<uint64_t>(j - j16);
  }
  a.stats.vector_cells = a.stats.cells;
  a.stats.column_cells = a.stats.cells;
  a.stats.diagonals = static_cast<uint64_t>(n);
  a.width_used = w;

  // ---- deferred global maximum (§III-D) --------------------------------
  int64_t best = 0;
  const int bi = w == Width::W8 ? best_row<Avx512U8>(st, m, best)
                                : best_row<Avx512U16>(st, m, best);
  a.score = static_cast<int>(best);
  if (bi >= 0) {
    a.end_query = bi;
    a.end_ref = st.best_col[bi];
  }
  a.saturated = best >= sat_limit;
  return a;
}

}  // namespace swve::core
