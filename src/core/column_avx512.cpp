// The column sweep on AVX-512 VBMI: column_kernel.hpp's template on the
// 512-bit engines. Compiled with the VBMI flags; core::pair_align decides
// when it runs.
#include "core/column_kernel.hpp"
#include "simd/engines_avx512.hpp"

namespace swve::core {

Alignment column_avx512(seq::SeqView q, seq::SeqView r, uint8_t r_max_code,
                        const AlignConfig& cfg, Workspace& ws) {
  Alignment a = column_sweep<simd::Avx512U8, simd::Avx512U16>(q, r, r_max_code, cfg, ws);
  a.isa_used = simd::Isa::Avx512;
  return a;
}

}  // namespace swve::core
