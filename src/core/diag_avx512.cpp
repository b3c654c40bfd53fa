// AVX-512 instantiations of the diagonal kernel's Gather, Fill and Fixed
// paths (compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq, without
// VBMI: they run on every AVX-512 BW/VL host). The Shuffle path lives in
// diag_avx512_vbmi.cpp.
#include "core/diag_kernel.hpp"
#include "core/dispatch.hpp"
#include "simd/engines_avx512.hpp"

namespace swve::core {

DiagOutput diag_avx512(const DiagRequest& rq, Width width) {
  switch (width) {
    case Width::W8:
      return diag_run<simd::Avx512U8>(rq);
    case Width::W16:
      return diag_run<simd::Avx512U16>(rq);
    default:
      return diag_run<simd::Avx512I32>(rq);
  }
}

}  // namespace swve::core
