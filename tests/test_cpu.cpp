#include <gtest/gtest.h>

#include "simd/cpu.hpp"

namespace swve::simd {
namespace {

TEST(Cpu, FeaturesAreCachedAndConsistent) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.hardware_threads, 1u);
  if (a.avx512vbmi) {
    EXPECT_TRUE(a.avx512bw_vl);
  }
}

TEST(Cpu, GdsStatusMarksSlowGathers) {
  EXPECT_TRUE(gds_slows_gathers("Mitigation: Microcode"));
  EXPECT_TRUE(gds_slows_gathers("Mitigation: AVX disabled, no microcode"));
  EXPECT_TRUE(gds_slows_gathers("Unknown: Dependent on hypervisor status"));
  EXPECT_FALSE(gds_slows_gathers("Not affected"));
  EXPECT_FALSE(gds_slows_gathers("Vulnerable"));
  EXPECT_FALSE(gds_slows_gathers("Vulnerable: No microcode"));
  EXPECT_FALSE(gds_slows_gathers(""));
}

TEST(Cpu, ScalarAlwaysAvailable) {
  EXPECT_TRUE(isa_available(Isa::Scalar));
  EXPECT_TRUE(isa_available(Isa::Auto));
}

TEST(Cpu, ResolveAutoPicksWidestAvailable) {
  Isa resolved = resolve_isa(Isa::Auto);
  EXPECT_NE(resolved, Isa::Auto);
  EXPECT_TRUE(isa_available(resolved));
  if (isa_available(Isa::Avx512)) EXPECT_EQ(resolved, Isa::Avx512);
  else if (isa_available(Isa::Avx2)) EXPECT_EQ(resolved, Isa::Avx2);
  else EXPECT_EQ(resolved, Isa::Scalar);
}

TEST(Cpu, ResolveConcreteIsIdentityWhenAvailable) {
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
    if (isa_available(isa)) {
      EXPECT_EQ(resolve_isa(isa), isa);
    }
}

TEST(Cpu, Names) {
  EXPECT_STREQ(isa_name(Isa::Scalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::Avx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::Avx512), "avx512");
  EXPECT_STREQ(isa_name(Isa::Auto), "auto");
}

TEST(Cpu, ParseNames) {
  EXPECT_EQ(isa_from_string("avx2"), Isa::Avx2);
  EXPECT_EQ(isa_from_string("AVX512"), Isa::Avx512);
  EXPECT_EQ(isa_from_string("Scalar"), Isa::Scalar);
  EXPECT_EQ(isa_from_string("auto"), Isa::Auto);
  EXPECT_THROW(isa_from_string("sse9"), std::invalid_argument);
  // The 128-bit tier is gone: its names are unknown like any other.
  for (const char* gone : {"sse41", "sse4.1", "sse", "SSE4.1"})
    EXPECT_THROW(isa_from_string(gone), std::invalid_argument) << gone;
}

}  // namespace
}  // namespace swve::simd
