// AVX2 engines (256-bit). Include only from translation units compiled with
// -mavx2 -mbmi2. Same engine concept as engines_emu.hpp.
//
// The 8/16-bit engines work in the *unsigned biased* domain: substitution
// scores are gathered as int32, biased non-negative, and saturate-packed
// down (Fig 4 of the paper — there is no 8-bit gather, so the 8-bit path is
// fed by the 32-bit gather + two pack stages, which is what restores 8-bit
// performance to parity with 16-bit).
#pragma once

#include <immintrin.h>

#include <cstdint>

namespace swve::simd {

namespace detail_avx2 {

// packus_epi32/packus_epi16 interleave 128-bit lanes; these permutes restore
// element order after packing (see engine gather_scores).
inline __m256i fix_pack16(__m256i x) {  // after packus_epi32(g0,g1)
  return _mm256_permute4x64_epi64(x, 0xD8);
}
inline __m256i fix_pack8(__m256i x) {  // after packus_epi16(packus_epi32 pair)
  const __m256i idx = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  return _mm256_permutevar8x32_epi32(x, idx);
}

}  // namespace detail_avx2

struct Avx2U8 {
  using elem = uint8_t;
  using vec = __m256i;
  using mask = __m256i;  // byte-lane 0xFF/0x00
  static constexpr int lanes = 32;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 255;

  static vec zero() { return _mm256_setzero_si256(); }
  static vec set1(int64_t x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  static vec iota() {
    return _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                            17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  }
  static vec loadu(const elem* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm256_subs_epu8(_mm256_adds_epu8(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm256_subs_epu8(x, p); }
  static vec max(vec a, vec b) { return _mm256_max_epu8(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm256_cmpeq_epi8(a, b); }
  static mask cmpgt(vec a, vec b) {  // unsigned >: flip sign bit, signed compare
    const __m256i f = _mm256_set1_epi8(static_cast<char>(0x80));
    return _mm256_cmpgt_epi8(_mm256_xor_si256(a, f), _mm256_xor_si256(b, f));
  }
  static vec blend(mask m, vec a, vec b) { return _mm256_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm256_or_si256(dir, _mm256_andnot_si256(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm256_testz_si256(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    const __m256i vb = _mm256_set1_epi32(bias);
    __m256i g[4];
    for (int t = 0; t < 4; ++t) {
      __m256i idx = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qmul + 8 * t)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dbr + 8 * t)));
      g[t] = _mm256_add_epi32(_mm256_i32gather_epi32(mat, idx, 4), vb);
    }
    __m256i a = _mm256_packus_epi32(g[0], g[1]);
    __m256i b = _mm256_packus_epi32(g[2], g[3]);
    return detail_avx2::fix_pack8(_mm256_packus_epi16(a, b));
  }

  static void store_dir_u8(uint8_t* p, vec a) { storeu(p, a); }

  static void store_bestd(int32_t* bd, mask m, int d) {
    const __m256i vd = _mm256_set1_epi32(d);
    const __m128i mlo = _mm256_castsi256_si128(m);
    const __m128i mhi = _mm256_extracti128_si256(m, 1);
    const __m128i groups[4] = {mlo, _mm_srli_si128(mlo, 8), mhi,
                               _mm_srli_si128(mhi, 8)};
    for (int g = 0; g < 4; ++g) {
      const __m256i mg = _mm256_cvtepi8_epi32(groups[g]);
      __m256i* p = reinterpret_cast<__m256i*>(bd + 8 * g);
      _mm256_storeu_si256(p, _mm256_blendv_epi8(_mm256_loadu_si256(p), vd, mg));
    }
  }
};

struct Avx2U16 {
  using elem = uint16_t;
  using vec = __m256i;
  using mask = __m256i;  // word-lane 0xFFFF/0x0000
  static constexpr int lanes = 16;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 65535;

  static vec zero() { return _mm256_setzero_si256(); }
  static vec set1(int64_t x) { return _mm256_set1_epi16(static_cast<short>(x)); }
  static vec iota() {
    return _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  }
  static vec loadu(const elem* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm256_subs_epu16(_mm256_adds_epu16(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm256_subs_epu16(x, p); }
  static vec max(vec a, vec b) { return _mm256_max_epu16(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm256_cmpeq_epi16(a, b); }
  static mask cmpgt(vec a, vec b) {
    const __m256i f = _mm256_set1_epi16(static_cast<short>(0x8000));
    return _mm256_cmpgt_epi16(_mm256_xor_si256(a, f), _mm256_xor_si256(b, f));
  }
  static vec blend(mask m, vec a, vec b) { return _mm256_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm256_or_si256(dir, _mm256_andnot_si256(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm256_testz_si256(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    const __m256i vb = _mm256_set1_epi32(bias);
    __m256i idx0 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qmul)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dbr)));
    __m256i idx1 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qmul + 8)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dbr + 8)));
    __m256i g0 = _mm256_add_epi32(_mm256_i32gather_epi32(mat, idx0, 4), vb);
    __m256i g1 = _mm256_add_epi32(_mm256_i32gather_epi32(mat, idx1, 4), vb);
    return detail_avx2::fix_pack16(_mm256_packus_epi32(g0, g1));
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    __m256i packed = _mm256_packus_epi16(a, _mm256_setzero_si256());
    packed = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_castsi256_si128(packed));
  }

  static void store_bestd(int32_t* bd, mask m, int d) {
    const __m256i vd = _mm256_set1_epi32(d);
    const __m256i m0 = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(m));
    const __m256i m1 = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(m, 1));
    __m256i* p0 = reinterpret_cast<__m256i*>(bd);
    __m256i* p1 = reinterpret_cast<__m256i*>(bd + 8);
    _mm256_storeu_si256(p0, _mm256_blendv_epi8(_mm256_loadu_si256(p0), vd, m0));
    _mm256_storeu_si256(p1, _mm256_blendv_epi8(_mm256_loadu_si256(p1), vd, m1));
  }
};

struct Avx2I32 {
  using elem = int32_t;
  using vec = __m256i;
  using mask = __m256i;  // dword-lane all-ones/zero
  static constexpr int lanes = 8;
  static constexpr bool is_signed = true;
  static constexpr int64_t cap = INT32_MAX;

  static vec zero() { return _mm256_setzero_si256(); }
  static vec set1(int64_t x) { return _mm256_set1_epi32(static_cast<int>(x)); }
  static vec iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }
  static vec loadu(const elem* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static vec add_score(vec h, vec s, vec /*bias = 0*/) {
    return _mm256_max_epi32(_mm256_add_epi32(h, s), _mm256_setzero_si256());
  }
  static vec sub_floor(vec x, vec p) {
    return _mm256_max_epi32(_mm256_sub_epi32(x, p), _mm256_setzero_si256());
  }
  static vec max(vec a, vec b) { return _mm256_max_epi32(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm256_cmpeq_epi32(a, b); }
  static mask cmpgt(vec a, vec b) { return _mm256_cmpgt_epi32(a, b); }
  static vec blend(mask m, vec a, vec b) { return _mm256_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm256_or_si256(dir, _mm256_andnot_si256(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm256_testz_si256(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    __m256i idx = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qmul)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dbr)));
    __m256i g = _mm256_i32gather_epi32(mat, idx, 4);
    return _mm256_add_epi32(g, _mm256_set1_epi32(bias));
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    // dword lane -> byte: grab byte 0 of each dword within each 128-bit lane,
    // then merge the two lanes' dwords.
    const __m256i shuf = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                          -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1,
                                          -1, -1, -1, -1, -1, -1);
    __m256i t = _mm256_shuffle_epi8(a, shuf);
    const __m256i idx = _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1);
    t = _mm256_permutevar8x32_epi32(t, idx);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm256_castsi256_si128(t));
  }

  static void store_bestd(int32_t* bd, mask m, int d) {
    __m256i* p = reinterpret_cast<__m256i*>(bd);
    _mm256_storeu_si256(
        p, _mm256_blendv_epi8(_mm256_loadu_si256(p), _mm256_set1_epi32(d), m));
  }
};

}  // namespace swve::simd
