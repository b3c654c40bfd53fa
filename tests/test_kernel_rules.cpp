// The kernel-selection rules pinned for every host class (host_classes.hpp),
// whatever host runs the suite: the ISA Auto resolves to, the score
// delivery per width, the column sweep's query-length cut and the batch
// scan's lanes. A build without the AVX-512 (or also the AVX2) kernels
// resolves the wider classes to the widest ISA it has.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "host_classes.hpp"
#include "matrix/score_matrix.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

#if defined(SWVE_HAVE_AVX512_BUILD)
constexpr bool kAvx512Built = true;
#else
constexpr bool kAvx512Built = false;
#endif
#if defined(SWVE_HAVE_AVX2_BUILD)
constexpr bool kAvx2Built = true;
#else
constexpr bool kAvx2Built = false;
#endif

// The ISA Auto resolves to on a host of class `cls`: the widest one both
// the class and this build have.
constexpr simd::Isa widest(simd::Isa cls) {
  if (cls == simd::Isa::Avx512 && kAvx512Built) return simd::Isa::Avx512;
  if (cls != simd::Isa::Scalar && kAvx2Built) return simd::Isa::Avx2;
  return simd::Isa::Scalar;
}

struct HostClassRules {
  const char* name;
  simd::CpuFeatures f;
  simd::Isa isa;           // resolve_isa(Auto)
  ScoreDelivery w8, w16, w32;  // delivery_for, Auto or pinned Shuffle
  ScoreDelivery wide;      // the same at W8 with a 30-code matrix
  bool sweep_1, sweep_256, sweep_257;  // column_sweep_runs at these m
  int lanes;               // batch_lanes_for
};

std::vector<HostClassRules> expected_rules() {
  using D = ScoreDelivery;
  const bool shuffle = widest(simd::Isa::Avx512) == simd::Isa::Avx512;
  const D vbmi8 = shuffle ? D::Shuffle : D::Gather;
  return {
      {"vbmi", host_classes::vbmi, widest(simd::Isa::Avx512), vbmi8, vbmi8,
       D::Gather, D::Gather, shuffle, shuffle, false, shuffle ? 64 : 32},
      {"avx512", host_classes::avx512, widest(simd::Isa::Avx512), D::Gather,
       D::Gather, D::Gather, D::Gather, false, false, false, 32},
      {"avx2", host_classes::avx2, widest(simd::Isa::Avx2), D::Gather,
       D::Gather, D::Gather, D::Gather, false, false, false, 32},
      {"avx2_slow_gathers", host_classes::avx2_slow_gathers,
       widest(simd::Isa::Avx2), D::Fill, D::Fill, D::Fill, D::Fill, false,
       false, false, 32},
      {"scalar", host_classes::scalar, simd::Isa::Scalar, D::Gather, D::Gather,
       D::Gather, D::Gather, false, false, false, 32},
  };
}

TEST(KernelRules, EveryHostClass) {
  // A matrix with more codes than the in-register Shuffle table holds.
  std::vector<int8_t> square(30 * 30, -1);
  for (int a = 0; a < 30; ++a) square[static_cast<size_t>(a) * 30 + a] = 4;
  const matrix::ScoreMatrix wide_matrix("wide", seq::Alphabet::protein(),
                                        square, 30);
  for (const HostClassRules& want : expected_rules()) {
    SCOPED_TRACE(want.name);
    const simd::CpuFeatures& f = want.f;
    const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto, f);
    EXPECT_EQ(isa, want.isa);
    EXPECT_TRUE(simd::isa_available(isa, f));

    for (ScoreDelivery pinned : {ScoreDelivery::Auto, ScoreDelivery::Shuffle}) {
      AlignConfig cfg;
      cfg.delivery = pinned;
      EXPECT_EQ(delivery_for(cfg, isa, Width::W8, f), want.w8);
      EXPECT_EQ(delivery_for(cfg, isa, Width::W16, f), want.w16);
      EXPECT_EQ(delivery_for(cfg, isa, Width::W32, f), want.w32);
      EXPECT_EQ(delivery_for(cfg, isa, Width::Adaptive, f), want.w8);
      cfg.matrix = &wide_matrix;
      EXPECT_EQ(delivery_for(cfg, isa, Width::W8, f), want.wide);
    }

    const AlignConfig cfg;
    const uint8_t q_max = 19;  // a standard amino acid
    EXPECT_EQ(column_sweep_runs(cfg, isa, 1, q_max, f), want.sweep_1);
    EXPECT_EQ(column_sweep_runs(cfg, isa, 256, q_max, f), want.sweep_256);
    EXPECT_EQ(column_sweep_runs(cfg, isa, 257, q_max, f), want.sweep_257);

    EXPECT_EQ(batch_lanes_for(isa, f), want.lanes);
    EXPECT_TRUE(batch_lanes_fit(32, isa, f));
    EXPECT_EQ(batch_lanes_fit(64, isa, f), want.lanes == 64);
  }
}

}  // namespace
}  // namespace swve::core
