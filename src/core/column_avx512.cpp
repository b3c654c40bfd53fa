// The column sweep: Smith-Waterman for a query of at most 128 residues on
// AVX-512 VBMI (compiled with the AVX-512 flags; core::pair_align decides
// when it runs). docs/kernel.md, "Column sweep", has the derivation.
//
//   * lane i holds query row i: K = ceil(m/64) vectors of 8-bit cells or
//     ceil(m/32) of 16-bit cells. The sweep walks the reference columns
//     j = 0..n-1 and keeps H, F and the row maxima in registers;
//   * each column loads one profile vector group: the biased scores of
//     every query row against r[j], built once per call for the codes
//     present in r (the Shuffle table lookup, or match/mismatch selects);
//   * H(i-1, j-1) is the previous column's H moved one lane up; F (the
//     horizontal gap) is lane-wise from the previous column; E (the
//     vertical gap) is a ceil(log2 m)-step max-plus prefix scan over the
//     lanes of T = max(H(i-1,j-1) + s, F), exact because open >= extend;
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
    for (int s = 0; s < steps; ++s) scan_step<E, K>(e, 1 << s, idx[s], pen[s]);
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
  for (int i = 0; i < m; ++i)
    if (off[i] != E::cap) st.best_col[i] = j0 + off[i];
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

/// Biased scores of query rows against each code present in r, rows >= m
/// zero: prof[c * K * lanes + i]. 8-bit cells take the byte table as is;
/// 16-bit cells zero-extend it (Matrix entries fit a byte), or select the
/// 16-bit match/mismatch values (Fixed).
template <class E>
const typename E::elem* build_profile(seq::SeqView q, const AlignConfig& cfg,
                                      const uint64_t (&present)[4], int max_code,
                                      Workspace& ws) {
  using elem = typename E::elem;
  constexpr int L = E::lanes;
  const int m = static_cast<int>(q.length);
  const int K = (m + L - 1) / L;
  const size_t stride = static_cast<size_t>(K) * L;
  elem* prof = static_cast<elem*>(
      ws.column_prof.ensure((static_cast<size_t>(max_code) + 1) * stride * sizeof(elem)));
  const int bias = cfg.bias();
  // Query bytes per 64-row group, zero past m (masked loads read only q).
  vec qb[2];
  __mmask64 valid[2];
  for (int g = 0; g < 2; ++g) {
    valid[g] = low_lanes<Avx512U8>(std::max(0, m - 64 * g));
    qb[g] = _mm512_maskz_loadu_epi8(valid[g], q.data + 64 * g);
  }
  [[maybe_unused]] simd::detail_avx512::ShuffleTable tab;
  if (cfg.scheme == ScoreScheme::Matrix)
    tab = simd::detail_avx512::load_shuffle_table(cfg.matrix->rows_biased_u8());
  auto clamp = [](int64_t v) { return std::clamp<int64_t>(v, 0, E::cap); };
  const vec vmatch = E::set1(clamp(static_cast<int64_t>(cfg.match) + bias));
  const vec vmis = E::set1(clamp(static_cast<int64_t>(cfg.mismatch) + bias));
  for (int c = 0; c <= max_code; ++c) {
    if (!(present[c >> 6] >> (c & 63) & 1)) continue;
    elem* out = prof + static_cast<size_t>(c) * stride;
    const int groups = (m + 63) / 64;
    for (int g = 0; g < groups; ++g) {
      vec bytes;  // Matrix: 64 biased scores; Fixed: match mask source
      if (cfg.scheme == ScoreScheme::Matrix)
        bytes = _mm512_maskz_mov_epi8(
            valid[g], simd::detail_avx512::lookup_q_r(
                          tab, qb[g], _mm512_set1_epi8(static_cast<char>(c))));
      else
        bytes = qb[g];
      if constexpr (L == 64) {
        if (cfg.scheme == ScoreScheme::Matrix) {
          E::storeu(out, bytes);
        } else {
          const __mmask64 hit =
              _mm512_cmpeq_epi8_mask(bytes, _mm512_set1_epi8(static_cast<char>(c)));
          E::storeu(out, _mm512_maskz_mov_epi8(valid[g], E::blend(hit, vmis, vmatch)));
        }
        out += 64;
      } else {
        for (int half = 0; half < 2 && 64 * g + 32 * half < m; ++half) {
          const vec w = _mm512_cvtepu8_epi16(half == 0 ? _mm512_castsi512_si256(bytes)
                                                       : _mm512_extracti64x4_epi64(bytes, 1));
          if (cfg.scheme == ScoreScheme::Matrix) {
            E::storeu(out, w);
          } else {
            const __mmask32 in = static_cast<__mmask32>(valid[g] >> (32 * half));
            const __mmask32 hit = _mm512_cmpeq_epi16_mask(w, _mm512_set1_epi16(static_cast<short>(c)));
            E::storeu(out, _mm512_maskz_mov_epi16(in, E::blend(hit, vmis, vmatch)));
          }
          out += 32;
        }
      }
    }
  }
  return prof;
}

}  // namespace

Alignment column_avx512(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                        Workspace& ws) {
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

  uint64_t present[4] = {0, 0, 0, 0};
  int max_code = 0;
  for (int j = 0; j < n; ++j) {
    const uint8_t c = r.data[j];
    present[c >> 6] |= uint64_t{1} << (c & 63);
    max_code = std::max<int>(max_code, c);
  }

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
      job.prof = build_profile<Avx512U8>(q, cfg, present, max_code, ws);
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
    job.prof = build_profile<Avx512U16>(q, cfg, present, max_code, ws);
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
  int bi = -1;
  for (int i = 0; i < m; ++i) {
    uint16_t v16;
    std::memcpy(&v16, st.rowmax + 2 * i, sizeof v16);
    const int64_t v = w == Width::W8 ? st.rowmax[i] : v16;
    if (v > best) {
      best = v;
      bi = i;
    }
  }
  a.score = static_cast<int>(best);
  if (bi >= 0) {
    a.end_query = bi;
    a.end_ref = st.best_col[bi];
  }
  a.saturated = best >= sat_limit;
  return a;
}

}  // namespace swve::core
