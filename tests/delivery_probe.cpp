// Prints what ScoreDelivery::Auto resolves to for every ISA this host runs,
// at every concrete width; compare_runs.cmake runs it twice and compares.
#include <cstdio>

#include "core/dispatch.hpp"

int main() {
  using namespace swve;
  const core::AlignConfig cfg;
  for (simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Sse41, simd::Isa::Avx2,
                        simd::Isa::Avx512}) {
    if (!simd::isa_available(isa)) continue;
    for (core::Width w : {core::Width::W8, core::Width::W16, core::Width::W32})
      std::printf("%s w%d %d\n", simd::isa_name(isa), 8 << static_cast<int>(w),
                  static_cast<int>(core::delivery_for(cfg, isa, w)));
  }
  return 0;
}
