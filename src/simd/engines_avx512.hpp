// AVX-512 engines (512-bit). Include only from translation units compiled
// with -mavx512f -mavx512bw -mavx512vl -mavx512dq. The Shuffle lookups, the
// 8-bit lane shifts and the byte table lookups need -mavx512vbmi too: only
// the units built with it (the diagonal kernel's Shuffle path, the column
// sweep) may call them. Same engine concept as engines_emu.hpp; comparisons
// produce hardware mask registers that blends and masked ops consume
// directly, and narrowing uses vpmovus* so no pack-order fixups are needed.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "seq/alphabet.hpp"

namespace swve::simd {

namespace detail_avx512 {

/// The first seq::kShuffleCodes rows of the 32x32 biased byte table,
/// staged into registers for vpermi2b lookups: 6 segments of 4 rows
/// (128 B = one register pair). Built once per alignment; lives in zmm
/// registers across the hot loop.
struct ShuffleTable {
  __m512i seg[seq::kShuffleCodes / 2];  // seg[2s], seg[2s+1]: rows 4s..4s+3
};

inline ShuffleTable load_shuffle_table(const uint8_t* mat8) {
  ShuffleTable t;
  for (int k = 0; k < seq::kShuffleCodes / 2; ++k)
    t.seg[k] = _mm512_loadu_si512(mat8 + 64 * k);
  return t;
}

/// Per byte lane: mat8[q*32 + r], q in [0, seq::kShuffleCodes) and r in
/// [0, 32); larger alphabets take another delivery path (core::delivery_for).
/// Six vpermi2b lookups (one per 4-row segment) merged by a 3-level select
/// on bits 2, 3 and 4 of q. Requires AVX-512-VBMI (the calling unit is
/// compiled with it; runtime gating is the dispatcher's responsibility).
inline __m512i lookup_q_r(const ShuffleTable& t, __m512i vq, __m512i vr) {
  // idx7 = (q & 3) << 5 | r. Since q & 3 <= 3, the epi16 shift cannot
  // bleed across byte lanes.
  const __m512i idx = _mm512_or_si512(
      _mm512_slli_epi16(_mm512_and_si512(vq, _mm512_set1_epi8(3)), 5), vr);
  __m512i c[6];
  for (int s = 0; s < 6; ++s)
    c[s] = _mm512_permutex2var_epi8(t.seg[2 * s], idx, t.seg[2 * s + 1]);
  const __mmask64 b2 = _mm512_test_epi8_mask(vq, _mm512_set1_epi8(4));
  const __mmask64 b3 = _mm512_test_epi8_mask(vq, _mm512_set1_epi8(8));
  const __mmask64 b4 = _mm512_test_epi8_mask(vq, _mm512_set1_epi8(16));
  const __m512i lo = _mm512_mask_mov_epi8(
      _mm512_mask_mov_epi8(c[0], b2, c[1]), b3,
      _mm512_mask_mov_epi8(c[2], b2, c[3]));               // segments 0-3
  const __m512i hi = _mm512_mask_mov_epi8(c[4], b2, c[5]);  // segments 4-5
  return _mm512_mask_mov_epi8(lo, b4, hi);
}

/// best[i] = base + off[i] for i in [from, to) where off[i] is not the
/// element's maximum, 16 per masked store (the column sweep's flush).
template <class T>
inline void store_best_cols(int32_t* best, const T* off, int from, int to, int base) {
  const __m512i vbase = _mm512_set1_epi32(base);
  const __m512i vnone = _mm512_set1_epi32(static_cast<T>(~0u));
  for (int i = from; i < to; i += 16) {
    const void* p = off + i;
    const __m512i o =
        sizeof(T) == 1
            ? _mm512_maskz_cvtepu8_epi32(0xFFFF, _mm_load_si128(static_cast<const __m128i*>(p)))
            : _mm512_maskz_cvtepu16_epi32(0xFFFF,
                                          _mm256_load_si256(static_cast<const __m256i*>(p)));
    _mm512_mask_storeu_epi32(best + i, _mm512_cmpneq_epi32_mask(o, vnone),
                             _mm512_add_epi32(o, vbase));
  }
}

}  // namespace detail_avx512

struct Avx512U8 {
  using elem = uint8_t;
  using vec = __m512i;
  using mask = __mmask64;
  static constexpr int lanes = 64;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 255;
  using shuffle_tab = detail_avx512::ShuffleTable;
  static shuffle_tab load_shuffle_table(const uint8_t* mat8) {
    return detail_avx512::load_shuffle_table(mat8);
  }
  static vec shuffle_scores(const shuffle_tab& t, const elem* qenc,
                            const elem* dbr_rev) {
    return detail_avx512::lookup_q_r(t, _mm512_loadu_si512(qenc),
                                     _mm512_loadu_si512(dbr_rev));
  }

  static vec zero() { return _mm512_setzero_si512(); }
  static vec set1(int64_t x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  static vec iota() {
    alignas(64) static constexpr uint8_t k[64] = {
        0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
        32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
        48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63};
    return _mm512_load_si512(k);
  }
  static vec loadu(const elem* p) { return _mm512_loadu_si512(p); }
  static void storeu(elem* p, vec a) { _mm512_storeu_si512(p, a); }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm512_subs_epu8(_mm512_adds_epu8(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm512_subs_epu8(x, p); }
  static vec max(vec a, vec b) { return _mm512_max_epu8(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm512_cmpeq_epu8_mask(a, b); }
  static mask cmpgt(vec a, vec b) { return _mm512_cmpgt_epu8_mask(a, b); }
  static vec blend(mask m, vec a, vec b) { return _mm512_mask_blend_epi8(m, a, b); }
  /// dir | bits in the lanes where a != b; `bits` must be clear in dir, so
  /// the byte-masked add (there is no byte-masked OR) is that OR.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm512_mask_add_epi8(dir, _mm512_cmpneq_epu8_mask(a, b), dir, bits);
  }
  static bool any(mask m) { return m != 0; }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    const __m512i vb = _mm512_set1_epi32(bias);
    __m512i out = _mm512_setzero_si512();
    for (int t = 0; t < 4; ++t) {
      __m512i idx = _mm512_add_epi32(_mm512_loadu_si512(qmul + 16 * t),
                                     _mm512_loadu_si512(dbr + 16 * t));
      __m512i g = _mm512_add_epi32(_mm512_i32gather_epi32(idx, mat, 4), vb);
      __m128i nb = _mm512_cvtusepi32_epi8(g);  // vpmovusdb: saturating narrow
      switch (t) {
        case 0: out = _mm512_inserti32x4(out, nb, 0); break;
        case 1: out = _mm512_inserti32x4(out, nb, 1); break;
        case 2: out = _mm512_inserti32x4(out, nb, 2); break;
        case 3: out = _mm512_inserti32x4(out, nb, 3); break;
      }
    }
    return out;
  }

  static void store_dir_u8(uint8_t* p, vec a) { storeu(p, a); }
  /// Direction bytes of the lanes set in `m` only.
  static void store_dir_u8_masked(uint8_t* p, mask m, vec a) {
    _mm512_mask_storeu_epi8(p, m, a);
  }

  // Lane shifts of the column sweep, where lane i holds query row i and
  // rows span consecutive vectors. shift_up(below, v, shift_index(s))
  // moves the lanes of v s places up (towards higher rows), filling the
  // bottom s lanes from the top of `below`; 0 < s < lanes. One vpermt2b.
  static vec shift_index(int s) {
    return _mm512_add_epi8(iota(), _mm512_set1_epi8(static_cast<char>(lanes - s)));
  }
  static vec shift_up(vec below, vec v, vec idx) {
    return _mm512_permutex2var_epi8(below, idx, v);
  }

  // The column sweep's other ops (contracts in engines_emu.hpp): the
  // deferred maximum's flush, 16 slots per masked store; a 256-byte table
  // lookup (two vpermi2b); the profile's per-code lookup (one vpermb).
  static void store_best_cols(int32_t* best, const elem* off, int from, int to, int base) {
    detail_avx512::store_best_cols(best, off, from, to, base);
  }
  static vec lookup256(const uint8_t* t, vec idx) {
    const vec lo = _mm512_permutex2var_epi8(loadu(t), idx, loadu(t + 64));
    const vec hi = _mm512_permutex2var_epi8(loadu(t + 128), idx, loadu(t + 192));
    return _mm512_mask_blend_epi8(_mm512_movepi8_mask(idx), lo, hi);
  }
  static vec load_table32(const uint8_t* p) {
    return _mm512_zextsi256_si512(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vec lookup32(mask m, vec t, vec idx) { return _mm512_maskz_permutexvar_epi8(m, idx, t); }

  static void store_bestd(int32_t* bd, mask m, int d) {
    const __m512i vd = _mm512_set1_epi32(d);
    for (int g = 0; g < 4; ++g)
      _mm512_mask_storeu_epi32(bd + 16 * g,
                               static_cast<__mmask16>(m >> (16 * g)), vd);
  }
};

struct Avx512U16 {
  using elem = uint16_t;
  using vec = __m512i;
  using mask = __mmask32;
  static constexpr int lanes = 32;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 65535;
  using shuffle_tab = detail_avx512::ShuffleTable;
  static shuffle_tab load_shuffle_table(const uint8_t* mat8) {
    return detail_avx512::load_shuffle_table(mat8);
  }
  static vec shuffle_scores(const shuffle_tab& t, const elem* qenc,
                            const elem* dbr_rev) {
    // A code (< 32) fills the low byte of its 16-bit lane and the high
    // byte is 0: run the byte lookup on the lanes as they are and keep the
    // low bytes (the high bytes looked up code 0 against code 0).
    const __m512i res = detail_avx512::lookup_q_r(
        t, _mm512_loadu_si512(qenc), _mm512_loadu_si512(dbr_rev));
    return _mm512_and_si512(res, _mm512_set1_epi16(0x00FF));
  }

  static vec zero() { return _mm512_setzero_si512(); }
  static vec set1(int64_t x) { return _mm512_set1_epi16(static_cast<short>(x)); }
  static vec iota() {
    alignas(64) static constexpr uint16_t k[32] = {
        0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31};
    return _mm512_load_si512(k);
  }
  static vec loadu(const elem* p) { return _mm512_loadu_si512(p); }
  static void storeu(elem* p, vec a) { _mm512_storeu_si512(p, a); }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm512_subs_epu16(_mm512_adds_epu16(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm512_subs_epu16(x, p); }
  static vec max(vec a, vec b) { return _mm512_max_epu16(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm512_cmpeq_epu16_mask(a, b); }
  static mask cmpgt(vec a, vec b) { return _mm512_cmpgt_epu16_mask(a, b); }
  static vec blend(mask m, vec a, vec b) { return _mm512_mask_blend_epi16(m, a, b); }
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm512_mask_add_epi16(dir, _mm512_cmpneq_epu16_mask(a, b), dir, bits);
  }
  static bool any(mask m) { return m != 0; }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    const __m512i vb = _mm512_set1_epi32(bias);
    __m512i idx0 =
        _mm512_add_epi32(_mm512_loadu_si512(qmul), _mm512_loadu_si512(dbr));
    __m512i idx1 =
        _mm512_add_epi32(_mm512_loadu_si512(qmul + 16), _mm512_loadu_si512(dbr + 16));
    __m512i g0 = _mm512_add_epi32(_mm512_i32gather_epi32(idx0, mat, 4), vb);
    __m512i g1 = _mm512_add_epi32(_mm512_i32gather_epi32(idx1, mat, 4), vb);
    __m256i n0 = _mm512_cvtusepi32_epi16(g0);  // vpmovusdw
    __m256i n1 = _mm512_cvtusepi32_epi16(g1);
    return _mm512_inserti64x4(_mm512_castsi256_si512(n0), n1, 1);
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    __m256i b = _mm512_cvtepi16_epi8(a);  // vpmovwb (truncating; dirs are small)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), b);
  }
  static void store_dir_u8_masked(uint8_t* p, mask m, vec a) {
    _mm512_mask_cvtepi16_storeu_epi8(p, m, a);  // vpmovwb to memory
  }

  /// Lane shifts of the column sweep (see Avx512U8); one vpermt2w.
  static vec shift_index(int s) {
    return _mm512_add_epi16(iota(), _mm512_set1_epi16(static_cast<short>(lanes - s)));
  }
  static vec shift_up(vec below, vec v, vec idx) {
    return _mm512_permutex2var_epi16(below, idx, v);
  }

  /// The column sweep's other ops (see Avx512U8): the table lookup runs on
  /// the indices' low bytes; the profile's lookup is one vpermw.
  static void store_best_cols(int32_t* best, const elem* off, int from, int to, int base) {
    detail_avx512::store_best_cols(best, off, from, to, base);
  }
  static vec lookup256(const uint8_t* t, vec idx) {
    const __m512i b = _mm512_zextsi256_si512(_mm512_cvtepi16_epi8(idx));
    return _mm512_cvtepu8_epi16(_mm512_castsi512_si256(Avx512U8::lookup256(t, b)));
  }
  static vec load_table32(const uint8_t* p) {
    return _mm512_cvtepu8_epi16(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vec lookup32(mask m, vec t, vec idx) { return _mm512_maskz_permutexvar_epi16(m, idx, t); }

  static void store_bestd(int32_t* bd, mask m, int d) {
    const __m512i vd = _mm512_set1_epi32(d);
    _mm512_mask_storeu_epi32(bd, static_cast<__mmask16>(m), vd);
    _mm512_mask_storeu_epi32(bd + 16, static_cast<__mmask16>(m >> 16), vd);
  }
};

struct Avx512I32 {
  using elem = int32_t;
  using vec = __m512i;
  using mask = __mmask16;
  static constexpr int lanes = 16;
  static constexpr bool is_signed = true;
  static constexpr int64_t cap = INT32_MAX;

  static vec zero() { return _mm512_setzero_si512(); }
  static vec set1(int64_t x) { return _mm512_set1_epi32(static_cast<int>(x)); }
  static vec iota() {
    return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  }
  static vec loadu(const elem* p) { return _mm512_loadu_si512(p); }
  static void storeu(elem* p, vec a) { _mm512_storeu_si512(p, a); }
  static vec add_score(vec h, vec s, vec /*bias = 0*/) {
    return _mm512_max_epi32(_mm512_add_epi32(h, s), _mm512_setzero_si512());
  }
  static vec sub_floor(vec x, vec p) {
    return _mm512_max_epi32(_mm512_sub_epi32(x, p), _mm512_setzero_si512());
  }
  static vec max(vec a, vec b) { return _mm512_max_epi32(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm512_cmpeq_epi32_mask(a, b); }
  static mask cmpgt(vec a, vec b) { return _mm512_cmpgt_epi32_mask(a, b); }
  static vec blend(mask m, vec a, vec b) { return _mm512_mask_blend_epi32(m, a, b); }
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm512_mask_or_epi32(dir, _mm512_cmpneq_epi32_mask(a, b), dir, bits);
  }
  static bool any(mask m) { return m != 0; }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    __m512i idx = _mm512_add_epi32(_mm512_loadu_si512(qmul), _mm512_loadu_si512(dbr));
    return _mm512_add_epi32(_mm512_i32gather_epi32(idx, mat, 4), _mm512_set1_epi32(bias));
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    __m128i b = _mm512_cvtepi32_epi8(a);  // vpmovdb
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), b);
  }

  static void store_bestd(int32_t* bd, mask m, int d) {
    _mm512_mask_storeu_epi32(bd, m, _mm512_set1_epi32(d));
  }
};

}  // namespace swve::simd
