// The Shuffle delivery's in-register lookup, exported for an exhaustive
// test. Compiled with the AVX-512 flags (tests/CMakeLists.txt) and holding
// no static initializers, so the test binary still starts on any x86-64;
// call these only where simd::cpu_features().avx512vbmi holds.
#include <cstdint>

#include "simd/engines_avx512.hpp"

namespace swve::test {

void shuffle_lookup_u8(const uint8_t* mat8, const uint8_t* q, const uint8_t* r,
                       uint8_t* out) {
  using E = simd::Avx512U8;
  E::storeu(out, E::shuffle_scores(E::load_shuffle_table(mat8), q, r));
}

void shuffle_lookup_u16(const uint8_t* mat8, const uint16_t* q,
                        const uint16_t* r, uint16_t* out) {
  using E = simd::Avx512U16;
  E::storeu(out, E::shuffle_scores(E::load_shuffle_table(mat8), q, r));
}

}  // namespace swve::test
