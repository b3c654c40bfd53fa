// AVX-512 VBMI instantiations of the diagonal kernel's Shuffle path, the
// in-register vpermi2b score lookup (compiled with the AVX-512 flags plus
// -mavx512vbmi). core::run_diag_kernel calls it only when delivery_for chose
// Shuffle, which it does only on hosts with VBMI.
#include <stdexcept>

#include "core/diag_kernel.hpp"
#include "core/dispatch.hpp"
#include "simd/engines_avx512.hpp"

namespace swve::core {

DiagOutput diag_avx512_shuffle(const DiagRequest& rq, Width width) {
  switch (width) {
    case Width::W8:
      return diag_run_mode<simd::Avx512U8, KMode::Shuffle>(rq);
    case Width::W16:
      return diag_run_mode<simd::Avx512U16, KMode::Shuffle>(rq);
    default:
      throw std::invalid_argument(
          "diag_avx512_shuffle: Shuffle runs at 8 and 16 bits only");
  }
}

}  // namespace swve::core
