// SSE4.1 engines (128-bit) — the portability tier of the paper's analysis:
// pre-AVX x86-64 (and any cloud vCPU with AVX masked off) still gets
// vectorized kernels. Include only from translation units compiled with
// -msse4.1. Same engine concept as engines_emu.hpp.
//
// SSE has no gather instruction; gather_scores stages through a small
// on-stack array (Auto's delivery rule picks Fill on this tier, which
// bypasses gather_scores entirely).
#pragma once

#include <smmintrin.h>
#include <tmmintrin.h>

#include <cstdint>
#include <cstring>

namespace swve::simd {

struct Sse41U8 {
  using elem = uint8_t;
  using vec = __m128i;
  using mask = __m128i;  // byte-lane 0xFF/0x00
  static constexpr int lanes = 16;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 255;
  static constexpr bool has_shuffle_scores = false;

  static vec zero() { return _mm_setzero_si128(); }
  static vec set1(int64_t x) { return _mm_set1_epi8(static_cast<char>(x)); }
  static vec iota() {
    return _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  }
  static vec loadu(const elem* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm_subs_epu8(_mm_adds_epu8(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm_subs_epu8(x, p); }
  static vec max(vec a, vec b) { return _mm_max_epu8(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm_cmpeq_epi8(a, b); }
  static mask cmpgt(vec a, vec b) {
    const __m128i f = _mm_set1_epi8(static_cast<char>(0x80));
    return _mm_cmpgt_epi8(_mm_xor_si128(a, f), _mm_xor_si128(b, f));
  }
  static vec blend(mask m, vec a, vec b) { return _mm_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm_or_si128(dir, _mm_andnot_si128(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm_testz_si128(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    alignas(16) uint8_t s[16];
    for (int k = 0; k < 16; ++k) {
      int v = mat[qmul[k] + dbr[k]] + bias;
      s[k] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    }
    return _mm_load_si128(reinterpret_cast<const __m128i*>(s));
  }

  static void store_dir_u8(uint8_t* p, vec a) { storeu(p, a); }

  static void store_bestd(int32_t* bd, mask m, int d) {
    // Unrolled by hand: _mm_srli_si128 needs a literal immediate, and a
    // counted loop only provides one after full unrolling — which sanitizer
    // instrumentation can defeat.
    const __m128i vd = _mm_set1_epi32(d);
    const auto group = [&](int32_t* p, __m128i mg) {
      __m128i* q = reinterpret_cast<__m128i*>(p);
      _mm_storeu_si128(q, _mm_blendv_epi8(_mm_loadu_si128(q), vd,
                                          _mm_cvtepi8_epi32(mg)));
    };
    group(bd + 0, m);
    group(bd + 4, _mm_srli_si128(m, 4));
    group(bd + 8, _mm_srli_si128(m, 8));
    group(bd + 12, _mm_srli_si128(m, 12));
  }
};

struct Sse41U16 {
  using elem = uint16_t;
  using vec = __m128i;
  using mask = __m128i;
  static constexpr int lanes = 8;
  static constexpr bool is_signed = false;
  static constexpr int64_t cap = 65535;
  static constexpr bool has_shuffle_scores = false;

  static vec zero() { return _mm_setzero_si128(); }
  static vec set1(int64_t x) { return _mm_set1_epi16(static_cast<short>(x)); }
  static vec iota() { return _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7); }
  static vec loadu(const elem* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static vec add_score(vec h, vec sb, vec bias) {
    return _mm_subs_epu16(_mm_adds_epu16(h, sb), bias);
  }
  static vec sub_floor(vec x, vec p) { return _mm_subs_epu16(x, p); }
  static vec max(vec a, vec b) { return _mm_max_epu16(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm_cmpeq_epi16(a, b); }
  static mask cmpgt(vec a, vec b) {
    const __m128i f = _mm_set1_epi16(static_cast<short>(0x8000));
    return _mm_cmpgt_epi16(_mm_xor_si128(a, f), _mm_xor_si128(b, f));
  }
  static vec blend(mask m, vec a, vec b) { return _mm_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm_or_si128(dir, _mm_andnot_si128(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm_testz_si128(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    alignas(16) uint16_t s[8];
    for (int k = 0; k < 8; ++k) {
      int v = mat[qmul[k] + dbr[k]] + bias;
      s[k] = static_cast<uint16_t>(v < 0 ? 0 : (v > 65535 ? 65535 : v));
    }
    return _mm_load_si128(reinterpret_cast<const __m128i*>(s));
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                     _mm_packus_epi16(a, _mm_setzero_si128()));
  }

  static void store_bestd(int32_t* bd, mask m, int d) {
    const __m128i vd = _mm_set1_epi32(d);
    const __m128i m0 = _mm_cvtepi16_epi32(m);
    const __m128i m1 = _mm_cvtepi16_epi32(_mm_srli_si128(m, 8));
    __m128i* p0 = reinterpret_cast<__m128i*>(bd);
    __m128i* p1 = reinterpret_cast<__m128i*>(bd + 4);
    _mm_storeu_si128(p0, _mm_blendv_epi8(_mm_loadu_si128(p0), vd, m0));
    _mm_storeu_si128(p1, _mm_blendv_epi8(_mm_loadu_si128(p1), vd, m1));
  }
};

struct Sse41I32 {
  using elem = int32_t;
  using vec = __m128i;
  using mask = __m128i;
  static constexpr int lanes = 4;
  static constexpr bool is_signed = true;
  static constexpr int64_t cap = INT32_MAX;
  static constexpr bool has_shuffle_scores = false;

  static vec zero() { return _mm_setzero_si128(); }
  static vec set1(int64_t x) { return _mm_set1_epi32(static_cast<int>(x)); }
  static vec iota() { return _mm_setr_epi32(0, 1, 2, 3); }
  static vec loadu(const elem* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(elem* p, vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static vec add_score(vec h, vec s, vec /*bias = 0*/) {
    return _mm_max_epi32(_mm_add_epi32(h, s), _mm_setzero_si128());
  }
  static vec sub_floor(vec x, vec p) {
    return _mm_max_epi32(_mm_sub_epi32(x, p), _mm_setzero_si128());
  }
  static vec max(vec a, vec b) { return _mm_max_epi32(a, b); }
  static mask cmpeq(vec a, vec b) { return _mm_cmpeq_epi32(a, b); }
  static mask cmpgt(vec a, vec b) { return _mm_cmpgt_epi32(a, b); }
  static vec blend(mask m, vec a, vec b) { return _mm_blendv_epi8(a, b, m); }
  /// dir | bits in the lanes where a != b.
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    return _mm_or_si128(dir, _mm_andnot_si128(cmpeq(a, b), bits));
  }
  static bool any(mask m) { return !_mm_testz_si128(m, m); }

  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    return _mm_add_epi32(
        _mm_setr_epi32(mat[qmul[0] + dbr[0]], mat[qmul[1] + dbr[1]],
                       mat[qmul[2] + dbr[2]], mat[qmul[3] + dbr[3]]),
        _mm_set1_epi32(bias));
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    const __m128i shuf =
        _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m128i t = _mm_shuffle_epi8(a, shuf);
    uint32_t v = static_cast<uint32_t>(_mm_cvtsi128_si32(t));
    std::memcpy(p, &v, 4);
  }

  static void store_bestd(int32_t* bd, mask m, int d) {
    __m128i* p = reinterpret_cast<__m128i*>(bd);
    _mm_storeu_si128(p,
                     _mm_blendv_epi8(_mm_loadu_si128(p), _mm_set1_epi32(d), m));
  }
};

}  // namespace swve::simd
