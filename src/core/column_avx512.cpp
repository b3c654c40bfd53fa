// The column sweep: Smith-Waterman for a query of at most kMaxRows residues
// on AVX-512 VBMI (compiled with the AVX-512 flags; core::pair_align decides
// when it runs). docs/kernel.md, "Column sweep", has the derivation.
//
//   * the query rows are striped (Farrar) over S = ceil(m/L) vectors of L
//     lanes, L = 64 for 8-bit cells and 32 for 16-bit ones: row i sits in
//     vector i mod S, lane i / S, so vector v, lane l holds row l*S + v
//     (slot v*L + l). At S = 1 lane i holds row i. The sweep walks the
//     reference columns j = 0..n-1 and keeps H, F and the row maxima in
//     registers;
//   * each column loads one profile vector group: the biased scores of
//     every slot's row against r[j], built once per call for the codes up to
//     r's largest (one vpermb per 64 slots from the matrix's column-major
//     biased table, or match/mismatch selects);
//   * H(i-1, j-1) of vector v is vector v-1 of the previous column, and for
//     v = 0 vector S-1 moved one lane up; F (the horizontal gap) is lane-wise
//     from the previous column. E (the vertical gap) of T = max(H(i-1,j-1)
//     + s, F) is an in-lane pass over the S vectors, a max-plus carry scan
//     over the lanes of the last vector alone (step t shifts 2^t lanes,
//     2^t*S rows) and one apply pass, exact because open >= extend. The scan
//     stops before the first step that can change no lane;
//   * rows >= m score 0 against every code, so their cells never exceed
//     the largest real cell of their column and the columns before it: they
//     cannot trip the saturation check, and their maxima are never read.
//     They only feed higher rows, never real ones;
//   * the maximum is deferred (§III-D): a per-slot maximum plus the column
//     of its last strict improvement, kept in the lanes as an offset into a
//     block of fewer than 2^8 (8-bit) or 2^16 (16-bit) columns and flushed
//     to int32 at the block's end;
//   * an adaptive run starts at 8 bits and stops after the first column
//     whose maximum reaches the 8-bit limit. That column is exact, so its
//     H, F and row maxima move to the 16-bit slots (one fixed permutation,
//     zero-extended) and the sweep continues at the next column: every cell
//     is computed once. pair_align admits only queries whose score cannot
//     reach the 16-bit limit, so no 32-bit rung follows.
// Direction bytes follow the diagonal kernel's encoding; column j holds m
// bytes at tb_dirs + j*m, vector v's rows together (ColumnTracebackView).
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

constexpr int kMaxRows = 256;
static_assert(kColumnSweepMaxQuery <= kMaxRows);
/// Carry scan steps: the carry vector has at most 64 lanes.
constexpr int kMaxSteps = 6;

/// What the sweep carries between blocks and across the hand-off, per slot
/// of the running width: H and F of the last column and the row maxima (the
/// first 256 bytes at 8 bits, all 512 at 16), and each slot's best column,
/// one array per width; the 16-bit one reads -1 where a slot did not
/// improve at 16 bits.
struct alignas(64) SweepState {
  unsigned char h[2 * kMaxRows];
  unsigned char f[2 * kMaxRows];
  unsigned char rowmax[2 * kMaxRows];
  int32_t best_col[2][kMaxRows];
};

struct ColumnJob {
  const uint8_t* r = nullptr;
  int m = 0;
  const void* prof = nullptr;  ///< [code][S * lanes] elements, slot order
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
  if (count <= 0) return 0;
  if (count >= E::lanes) return static_cast<typename E::mask>(~uint64_t{0});
  return static_cast<typename E::mask>((uint64_t{1} << count) - 1);
}

/// Stripes of a query of m rows at E's width.
template <class E>
int stripes(int m) {
  return (m + E::lanes - 1) / E::lanes;
}

/// How many rows stripe v of s holds: rows v, v+s, ... below m.
inline int stripe_rows(int m, int s, int v) {
  const int rows = divide_by_stripes(m, s);
  return rows + (v < m - rows * s ? 1 : 0);
}

/// Per byte lane, the byte of the 256-byte table t[0..3] at idx.
inline vec lookup256(const vec (&t)[4], vec idx) {
  const vec lo = _mm512_permutex2var_epi8(t[0], idx, t[1]);
  const vec hi = _mm512_permutex2var_epi8(t[2], idx, t[3]);
  return _mm512_mask_blend_epi8(_mm512_movepi8_mask(idx), lo, hi);
}

/// Columns [j0, j1) of one block, j1 - j0 <= E::cap, at S stripes. Returns
/// the column after the last one computed: j1, or the column after a
/// saturated one when job.hands_off, which sets `stopped`. GM is Affine
/// only when open > extend (column_avx512 runs open == extend as the Linear
/// model it equals). Kept out of line: it runs once per block, and the CI
/// inner-loop check finds its loop by this name.
template <class E, int S, GapModel GM, bool TB>
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

  // H, F and the row maxima, and each slot's best column as an offset into
  // this block (E::cap: not improved in it).
  vec H[S], F[S], RM[S], BJ[S];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    H[v] = E::loadu(sh + v * L);
    F[v] = E::loadu(sf + v * L);
    RM[v] = E::loadu(srm + v * L);
    BJ[v] = E::set1(E::cap);
  }

  const vec vzero = E::zero();
  const vec vbias = E::set1(job.bias);
  const vec vopen = E::set1(std::min<int64_t>(job.open, E::cap));
  const vec vext = E::set1(std::min<int64_t>(job.ext, E::cap));
  const vec gopen = GM == GapModel::Affine ? vopen : vext;
  const vec idx1 = E::shift_index(1);
  // Row l*S + v lies v+1 rows above row l*S - 1, the carry's row.
  [[maybe_unused]] vec apen[S];
#pragma GCC unroll 8
  for (int v = 0; v + 1 < S; ++v)
    apen[v] = E::set1(std::min<int64_t>((v + 1) * job.ext, E::cap));
  // Carry scan step t shifts by 2^t lanes (2^t*S rows); ceil(log2 lanes)
  // steps cover the lanes that hold a row < m.
  const int used = (m + S - 1) / S;
  int steps = 0;
  vec idx[kMaxSteps], pen[kMaxSteps];
  for (; (1 << steps) < used; ++steps) {
    idx[steps] = E::shift_index(1 << steps);
    pen[steps] = E::set1(std::min<int64_t>((int64_t{S} << steps) * job.ext, E::cap));
  }
  // Vector v holds rows v, v+S, ...: ceil((m-v)/S) of them, stored at the
  // column's offset v*(m/S) + min(v, m%S).
  [[maybe_unused]] mask tbm[S];
  [[maybe_unused]] int tbo[S];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    tbm[v] = low_lanes<E>(stripe_rows(m, S, v));
    tbo[v] = v * (m / S) + std::min(v, m % S);
  }
  [[maybe_unused]] const vec v1 = E::set1(kTbDiag);
  [[maybe_unused]] const vec v2 = E::set1(kTbE);
  [[maybe_unused]] const vec v3 = E::set1(kTbF);
  [[maybe_unused]] const vec v4 = E::set1(kTbEExt);
  [[maybe_unused]] const vec v8 = E::set1(kTbFExt);
  const vec vsat_below = E::set1(hands_off ? job.sat_limit - 1 : 0);

  int j = j0;
  while (j < j1) {
    const elem* p = prof + static_cast<size_t>(r[j]) * (S * L);
    vec hs[S], f[S], t[S];
    [[maybe_unused]] vec f_open[S];
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      const vec hd = v > 0 ? H[v - 1] : E::shift_up(vzero, H[S - 1], idx1);
      hs[v] = E::add_score(hd, E::loadu(p + v * L), vbias);
      if constexpr (GM == GapModel::Affine) {
        f_open[v] = E::sub_floor(H[v], vopen);
        f[v] = E::max(f_open[v], E::sub_floor(F[v], vext));
      } else {
        f[v] = E::sub_floor(H[v], vext);
      }
      t[v] = E::max(hs[v], f[v]);
    }
    // E(i) = max(T(i-1) - open, E(i-1) - extend), floored at 0. In-lane
    // pass: each lane's scan of e_init(i) = T(i-1) - open over its own S
    // rows.
    vec e[S], e_init[S];
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      e_init[v] = E::sub_floor(v > 0 ? t[v - 1] : E::shift_up(vzero, t[S - 1], idx1), gopen);
      e[v] = v > 0 ? E::max(e_init[v], E::sub_floor(e[v - 1], vext)) : e_init[v];
    }
    // Carry: the max-plus scan of the last rows' E over the lanes, each
    // lane S rows (S*extend) above the one below it. Early stop: after
    // steps 0..s-1 each lane holds its maximum over the lanes less than 2^s
    // below it. If no lane exceeds pen[s], every candidate of step s floors
    // at 0 and changes nothing, and each later step, with its penalty at
    // least pen[s], sees the same lanes: the carry is already exact.
    vec c = e[S - 1];
    for (int s = 0; s < steps; ++s) {
      if (!E::any(E::cmpgt(c, pen[s]))) break;
      c = E::max(c, E::sub_floor(E::shift_up(vzero, c, idx[s]), pen[s]));
    }
    e[S - 1] = c;
    if constexpr (S > 1) {
      // Apply: row l*S + v also takes the full E of row l*S - 1, the carry
      // of lane l-1, extended v+1 rows.
      const vec cin = E::shift_up(vzero, c, idx1);
#pragma GCC unroll 8
      for (int v = 0; v + 1 < S; ++v) e[v] = E::max(e[v], E::sub_floor(cin, apen[v]));
    }
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      H[v] = E::max(t[v], e[v]);
      if constexpr (GM == GapModel::Affine) F[v] = f[v];
    }

    if constexpr (TB) {
      uint8_t* col = tb + static_cast<uint64_t>(j) * static_cast<uint64_t>(m);
#pragma GCC unroll 8
      for (int v = 0; v < S; ++v) {
        // Priority on ties: stop > diag > E > F, as the diagonal kernel.
        vec dir = E::blend(E::cmpeq(H[v], e[v]), v3, v2);
        dir = E::blend(E::cmpeq(H[v], hs[v]), dir, v1);
        dir = E::blend(E::cmpeq(H[v], vzero), dir, vzero);
        if constexpr (GM == GapModel::Affine) {
          // E extends when it is not H(i-1, j) - open. With open > extend
          // that is exactly when it is not e_init: an E(i-1) above T(i-1)
          // and open makes both E(i-1) - extend.
          dir = E::set_bits_ne(dir, e[v], e_init[v], v4);
          dir = E::set_bits_ne(dir, f[v], f_open[v], v8);
        }
        E::store_dir_u8_masked(col + tbo[v], tbm[v], dir);
      }
    }

    // Deferred maximum: slots that strictly improve record this column.
    const vec vj = E::set1(j - j0);
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      BJ[v] = E::blend(E::cmpgt(H[v], RM[v]), BJ[v], vj);
      RM[v] = E::max(RM[v], H[v]);
    }
    ++j;

    if (hands_off) {
      vec mx = H[0];
#pragma GCC unroll 8
      for (int v = 1; v < S; ++v) mx = E::max(mx, H[v]);
      if (E::any(E::cmpgt(mx, vsat_below))) {
        stopped = true;
        break;
      }
    }
  }

  alignas(64) elem off[S * L];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    E::storeu(sh + v * L, H[v]);
    E::storeu(sf + v * L, F[v]);
    E::storeu(srm + v * L, RM[v]);
    E::storeu(off + v * L, BJ[v]);
  }
  // Slots in the lanes that hold rows < m and improved in this block take
  // j0 + offset, 16 int32 at a time. (The zero-masking widens spell out
  // what the plain ones leave undefined, which GCC 12 reports as
  // uninitialized in unrolled loops.)
  int32_t* const best_col = st.best_col[sizeof(elem) - 1];
  const vec vj0 = _mm512_set1_epi32(j0);
  const vec vnone = _mm512_set1_epi32(static_cast<int>(E::cap));
  for (int v = 0; v < S; ++v) {
    for (int i = v * L; i < v * L + used; i += 16) {
      vec o;
      if constexpr (sizeof(elem) == 1)
        o = _mm512_maskz_cvtepu8_epi32(
            0xFFFF, _mm_load_si128(reinterpret_cast<const __m128i*>(off + i)));
      else
        o = _mm512_maskz_cvtepu16_epi32(
            0xFFFF, _mm256_load_si256(reinterpret_cast<const __m256i*>(off + i)));
      _mm512_mask_storeu_epi32(best_col + i, _mm512_cmpneq_epi32_mask(o, vnone),
                               _mm512_add_epi32(o, vj0));
    }
  }
  return j;
}

/// The sweep_block instance for `s` stripes (S counts up to the most E's
/// width takes).
template <class E, int S = 1>
int sweep_columns(const ColumnJob& job, int s, GapModel gm, bool tb, int j0, int j1,
                  bool& stopped) {
  if constexpr (S < kMaxRows / E::lanes) {
    if (s > S) return sweep_columns<E, S + 1>(job, s, gm, tb, j0, j1, stopped);
  }
  if (gm == GapModel::Affine)
    return tb ? sweep_block<E, S, GapModel::Affine, true>(job, j0, j1, stopped)
              : sweep_block<E, S, GapModel::Affine, false>(job, j0, j1, stopped);
  return tb ? sweep_block<E, S, GapModel::Linear, true>(job, j0, j1, stopped)
            : sweep_block<E, S, GapModel::Linear, false>(job, j0, j1, stopped);
}

/// Sweeps columns [j, n) block by block at E's width. Returns the column
/// after the last one computed; `stopped` is set when a hand-off stopped
/// the sweep at a saturated column.
template <class E>
int run_width(const ColumnJob& job, GapModel gm, bool tb, int j, int n,
              bool& stopped) {
  const int s = stripes<E>(job.m);
  stopped = false;
  while (j < n && !stopped)
    j = sweep_columns<E>(job, s, gm, tb, j, std::min<int64_t>(n, j + E::cap), stopped);
  return j;
}

/// Moves H, F and the row maxima from the 8-bit slots to the 16-bit ones,
/// zero-extended; slots of rows >= m read 0. Row i's 8-bit slot is
/// (i mod S8)*64 + i / S8, found per 16-bit slot with one 16-bit multiply
/// (i / S8 for i < 256) and looked up with two vpermi2b.
void restripe_to_16(SweepState& st, int m) {
  const int s8 = stripes<Avx512U8>(m);
  const int s16 = stripes<Avx512U16>(m);
  const vec vs8 = _mm512_set1_epi16(static_cast<short>(s8));
  const vec vinv = _mm512_set1_epi16(static_cast<short>((65536 + s8 - 1) / s8));
  vec idx[kMaxRows / 32];
  __mmask32 valid[kMaxRows / 32];
  for (int v = 0; v < s16; ++v) {
    // Row l*S16 + v of 16-bit lane l.
    const vec i = _mm512_add_epi16(_mm512_mullo_epi16(Avx512U16::iota(),
                                                      _mm512_set1_epi16(static_cast<short>(s16))),
                                   _mm512_set1_epi16(static_cast<short>(v)));
    const vec q = s8 == 1 ? i : _mm512_mulhi_epu16(i, vinv);
    const vec rem = _mm512_sub_epi16(i, _mm512_mullo_epi16(q, vs8));
    idx[v] = _mm512_zextsi256_si512(
        _mm512_cvtepi16_epi8(_mm512_add_epi16(_mm512_slli_epi16(rem, 6), q)));
    valid[v] = _mm512_cmplt_epu16_mask(i, _mm512_set1_epi16(static_cast<short>(m)));
  }
  for (unsigned char* b : {st.h, st.f, st.rowmax}) {
    const vec t[4] = {_mm512_load_si512(b), _mm512_load_si512(b + 64),
                      _mm512_load_si512(b + 128), _mm512_load_si512(b + 192)};
    for (int v = 0; v < s16; ++v)
      _mm512_store_si512(b + 64 * v,
                         _mm512_maskz_cvtepu8_epi16(
                             valid[v], _mm512_castsi512_si256(lookup256(t, idx[v]))));
  }
}

/// The slot of the first row holding the largest row maximum, or -1 when
/// every row maximum is 0; `best` gets that maximum and `row` the row.
/// Among equal slots the smallest row wins: the lowest lane holding one,
/// then the lowest vector in it.
template <class E>
int best_slot(const SweepState& st, int m, int64_t& best, int& row) {
  using elem = typename E::elem;
  constexpr int L = E::lanes;
  const elem* const rm = reinterpret_cast<const elem*>(st.rowmax);
  const int S = stripes<E>(m);
  vec v[kMaxRows / L];
  vec mx = E::zero();
  for (int k = 0; k < S; ++k) {
    v[k] = E::blend(low_lanes<E>(stripe_rows(m, S, k)), E::zero(), E::loadu(rm + k * L));
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
  uint64_t hit[kMaxRows / L], any = 0;
  for (int k = 0; k < S; ++k) any |= hit[k] = E::cmpeq(v[k], vbest);
  const int lane = __builtin_ctzll(any);
  for (int k = 0;; ++k) {
    if (hit[k] >> lane & 1) {
      row = lane * S + k;
      return k * L + lane;
    }
  }
}

/// Biased scores of each slot's query row against every code up to
/// `max_code`, rows >= m zero: prof[c * S * lanes + slot]. The striped query
/// codes are gathered once (two vpermi2b per 64 slots); matrix scores are
/// then one vpermb per 64 slots from the matrix's column-major biased table
/// (query codes index column c), zero-extended for 16-bit cells; Fixed
/// scores are match/mismatch selects. Kept out of line so the CI inner-loop
/// check finds its loop by name.
template <class E>
[[gnu::noinline]] const typename E::elem* build_profile(seq::SeqView q,
                                                        const AlignConfig& cfg,
                                                        int max_code, Workspace& ws) {
  using elem = typename E::elem;
  constexpr int L = E::lanes;
  constexpr int P = 64 / L;  // stripes per 64 byte lanes
  const int m = static_cast<int>(q.length);
  const int S = stripes<E>(m);
  const size_t stride = static_cast<size_t>(S) * L;
  elem* prof = static_cast<elem*>(
      ws.column_prof.ensure((static_cast<size_t>(max_code) + 1) * stride * sizeof(elem)));
  // Query bytes, zero past m (masked loads read only q).
  vec qb[4];
  for (int g = 0; g < 4; ++g)
    qb[g] = _mm512_maskz_loadu_epi8(low_lanes<Avx512U8>(m - 64 * g), q.data + 64 * g);
  // Byte lane k of group g is slot 64g + k: stripe P*g + k/L, lane k%L,
  // row (k%L)*S + P*g + k/L. Rows stay below 256 (S*L <= 256 + L - 1 rows,
  // and only slots of real stripes are stored).
  const vec iota = Avx512U8::iota();
  const vec lane = _mm512_and_si512(iota, _mm512_set1_epi8(L - 1));
  vec lane_rows = _mm512_setzero_si512();
  for (int s = 0; s < S; ++s) lane_rows = _mm512_add_epi8(lane_rows, lane);
  const vec stripe_of =
      _mm512_maskz_mov_epi8(P == 2 ? ~__mmask64{0} << 32 : 0, _mm512_set1_epi8(1));
  const int groups = (S + P - 1) / P;
  vec qs[kMaxRows / 64];
  __mmask64 valid[kMaxRows / 64];
  for (int g = 0; g < groups; ++g) {
    const vec row = _mm512_add_epi8(_mm512_add_epi8(lane_rows, stripe_of),
                                    _mm512_set1_epi8(static_cast<char>(P * g)));
    valid[g] = m >= 256 ? ~__mmask64{0}
                        : _mm512_cmplt_epu8_mask(row, _mm512_set1_epi8(static_cast<char>(m)));
    qs[g] = _mm512_maskz_mov_epi8(valid[g], S == 1 ? qb[0] : lookup256(qb, row));
  }
  if (cfg.scheme == ScoreScheme::Matrix) {
    const uint8_t* const cols = cfg.matrix->cols_biased_u8();
    for (int c = 0; c <= max_code; ++c) {
      elem* const out = prof + static_cast<size_t>(c) * stride;
      const vec col = _mm512_zextsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + 32 * c)));
#pragma GCC unroll 4
      for (int g = 0; g < groups; ++g) {
        const vec s = _mm512_maskz_permutexvar_epi8(valid[g], qs[g], col);
        if constexpr (L == 64) {
          E::storeu(out + 64 * g, s);
        } else {
          E::storeu(out + 64 * g, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(s)));
          if (2 * g + 1 < S)
            E::storeu(out + 64 * g + 32,
                      _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(s, 1)));
        }
      }
    }
    return prof;
  }
  // Fixed: the striped query codes at the cell width, selected per code.
  vec qk[kMaxRows / L];
  typename E::mask in[kMaxRows / L];
  for (int k = 0; k < S; ++k) {
    in[k] = low_lanes<E>(stripe_rows(m, S, k));
    if constexpr (L == 64)
      qk[k] = qs[k];
    else
      qk[k] = _mm512_cvtepu8_epi16(k % 2 == 0 ? _mm512_castsi512_si256(qs[k / 2])
                                              : _mm512_extracti64x4_epi64(qs[k / 2], 1));
  }
  auto clamp = [](int64_t v) { return std::clamp<int64_t>(v, 0, E::cap); };
  const vec vmatch = E::set1(clamp(static_cast<int64_t>(cfg.match) + cfg.bias()));
  const vec vmis = E::set1(clamp(static_cast<int64_t>(cfg.mismatch) + cfg.bias()));
  for (int c = 0; c <= max_code; ++c) {
    elem* const out = prof + static_cast<size_t>(c) * stride;
    const vec code = E::set1(c);
    for (int k = 0; k < S; ++k)
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
  // The slots of either width start at 0: 64 bytes per stripe, and the
  // 16-bit stripes cover the 8-bit ones.
  SweepState st;
  const size_t used = static_cast<size_t>(stripes<Avx512U16>(m)) * 64;
  std::memset(st.h, 0, used);
  std::memset(st.f, 0, used);
  std::memset(st.rowmax, 0, used);
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
        restripe_to_16(st, m);
      }
    }
  }
  a.stats.cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(j);
  const int j16 = w == Width::W16 ? j : n;  // the first 16-bit column
  if (w == Width::W16) {
    sat_limit = Avx512U16::cap - job.bias - smax;
    std::fill_n(st.best_col[1], stripes<Avx512U16>(m) * Avx512U16::lanes, -1);
    job.prof = build_profile<Avx512U16>(q, cfg, r_max_code, ws);
    job.hands_off = false;
    bool stopped = false;
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
  const int slot = w == Width::W8 ? best_slot<Avx512U8>(st, m, best, bi)
                                  : best_slot<Avx512U16>(st, m, best, bi);
  a.score = static_cast<int>(best);
  a.saturated = best >= sat_limit;
  if (slot < 0) return a;
  // The row's best column: from its 16-bit slot where it improved at 16
  // bits, else from its 8-bit one.
  const int s8 = stripes<Avx512U8>(m);
  const int s16 = stripes<Avx512U16>(m);
  int32_t col = w == Width::W16 ? st.best_col[1][slot] : st.best_col[0][slot];
  if (col < 0) {
    const int lane = divide_by_stripes(bi, s8);
    col = st.best_col[0][(bi - lane * s8) * Avx512U8::lanes + lane];
  }
  a.end_query = bi;
  a.end_ref = col;

  if (cfg.traceback && !a.saturated) {
    const ColumnTracebackView view(static_cast<const uint8_t*>(ws.tb_dirs.data()), m, s8,
                                   j16, s16);
    TracebackResult t = walk_traceback(view, a.end_query, a.end_ref);
    a.begin_query = t.begin_query;
    a.begin_ref = t.begin_ref;
    a.cigar = std::move(t.cigar);
  }
  return a;
}

}  // namespace swve::core
