// AVX2 batch engine: 32 sequence lanes, matrix-row lookup via two pshufb
// halves + high-bit blend (compiled with -mavx2).
#include <immintrin.h>

#include "core/batch32_kernel.hpp"

namespace swve::core {

namespace {

struct BatchAvx2 {
  using vec = __m256i;
  static constexpr int lanes = 32;

  static vec set1(int x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  static vec load(const uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(uint8_t* p, vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static vec adds(vec a, vec b) { return _mm256_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm256_subs_epi8(a, b); }
  static vec max(vec a, vec b) { return _mm256_max_epi8(a, b); }
  static vec max_alt(vec a, vec b) { return max(a, b); }
  static vec select_eq(vec a, vec b, vec t, vec f) {
    return _mm256_blendv_epi8(f, t, _mm256_cmpeq_epi8(a, b));
  }
  static vec lookup32(const uint8_t* row32, vec idx) {
    // One 256-bit row load (rows are padded to exactly 32 bytes, Fig 4);
    // pshufb looks up 16-entry halves, the idx>15 mask selects the half.
    const __m128i lo128 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row32));
    const __m128i hi128 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row32 + 16));
    const __m256i rowlo = _mm256_broadcastsi128_si256(lo128);
    const __m256i rowhi = _mm256_broadcastsi128_si256(hi128);
    const __m256i lo = _mm256_shuffle_epi8(rowlo, idx);
    const __m256i hi = _mm256_shuffle_epi8(rowhi, idx);
    const __m256i is_hi = _mm256_cmpgt_epi8(idx, _mm256_set1_epi8(15));
    return _mm256_blendv_epi8(lo, hi, is_hi);
  }
  static void prefetch(const void* p) {
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
  }
};

}  // namespace

Batch8Result batch32_u8_avx2(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                             const AlignConfig& cfg, Workspace& ws) {
  return batch32_kernel<BatchAvx2>(q, columns, cols, cfg, ws);
}

BatchEngineOps batch32_ops_avx2(const uint8_t* a, const uint8_t* b) {
  return batch32_engine_ops<BatchAvx2>(a, b);
}

}  // namespace swve::core
