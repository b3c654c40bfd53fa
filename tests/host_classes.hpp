// The host classes the kernel-selection rules tell apart, as CpuFeatures
// values. Every rule (simd::resolve_isa, core::delivery_for,
// core::column_sweep_runs, core::batch_lanes_for) takes one, so a test pins
// a rule for every class on any host, the ones it cannot run natively
// included.
#pragma once

#include "simd/cpu.hpp"

namespace swve::host_classes {

/// AVX-512 with VBMI (Ice Lake and later): Shuffle delivery, the column
/// sweep and the 64-lane batch scan.
inline constexpr simd::CpuFeatures vbmi{
    .avx2 = true, .avx512bw_vl = true, .avx512vbmi = true};
/// AVX-512 BW/VL without VBMI (Skylake-SP, Cascade Lake).
inline constexpr simd::CpuFeatures avx512{.avx2 = true, .avx512bw_vl = true};
/// AVX2 (Haswell, Broadwell).
inline constexpr simd::CpuFeatures avx2{.avx2 = true};
/// AVX2 where the OS reports the Downfall gather mitigation.
inline constexpr simd::CpuFeatures avx2_slow_gathers{.avx2 = true,
                                                     .slow_gathers = true};
/// No vector extension the kernels use: the emulated engines.
inline constexpr simd::CpuFeatures scalar{};

}  // namespace swve::host_classes
