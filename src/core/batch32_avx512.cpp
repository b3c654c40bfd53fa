// AVX-512-VBMI batch engine: 64 sequence lanes, matrix-row lookup via one
// vpermb (compiled with -mavx512bw -mavx512vbmi). Caller guarantees the CPU
// has VBMI (see batch32_align_u8).
//
// Port map of the zmm byte ops (measured): vpmaxsb, vpaddsb and vpsubsb
// share one port with vpmaxub and vpsubusb; vpermb, merge-masked or not,
// and vpcmpb->k run on the other; vpaddb, vpsubb and vpblendmb run on
// either. max_alt is therefore a compare to mask plus an identity vpermb
// merge-masked into its first operand: both halves on the second port, so
// the row loop splits its max ops between the two (batch32_kernel.hpp).
#include <immintrin.h>

#include "core/batch32_kernel.hpp"

namespace swve::core {

namespace {

struct BatchAvx512 {
  using vec = __m512i;
  static constexpr int lanes = 64;

  static vec set1(int x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  static vec load(const uint8_t* p) { return _mm512_loadu_si512(p); }
  static void store(uint8_t* p, vec a) { _mm512_storeu_si512(p, a); }
  static vec adds(vec a, vec b) { return _mm512_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm512_subs_epi8(a, b); }
  static vec max(vec a, vec b) { return _mm512_max_epi8(a, b); }
  // Lanes where b > a take b through an identity vpermb; the rest keep a,
  // the merge target, whose register the result takes over.
  static vec max_alt(vec a, vec b) {
    return _mm512_mask_permutexvar_epi8(a, _mm512_cmpgt_epi8_mask(b, a), identity(), b);
  }
  static vec identity() {
    return _mm512_set_epi8(63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48,
                           47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32,
                           31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16,
                           15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  }
  static vec select_eq(vec a, vec b, vec t, vec f) {
    return _mm512_mask_blend_epi8(_mm512_cmpeq_epu8_mask(a, b), f, t);
  }
  static vec lookup32(const uint8_t* row32, vec idx) {
    // The 32-byte row broadcast twice fills a zmm register; indices are in
    // [0, 32) so vpermb selects from the first copy.
    const __m512i table = _mm512_broadcast_i64x4(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row32)));
    return _mm512_permutexvar_epi8(idx, table);
  }
  static void prefetch(const void* p) {
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
  }
};

}  // namespace

Batch8Result batch32_u8_avx512(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               const AlignConfig& cfg, Workspace& ws) {
  return batch32_kernel<BatchAvx512>(q, columns, cols, cfg, ws);
}

BatchEngineOps batch32_ops_avx512(const uint8_t* a, const uint8_t* b) {
  return batch32_engine_ops<BatchAvx512>(a, b);
}

}  // namespace swve::core
