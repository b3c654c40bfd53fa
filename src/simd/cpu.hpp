// Runtime CPU feature detection and ISA selection.
//
// Kernels for each ISA are compiled in their own translation units with the
// matching -m flags; this module decides, once, which of those units may be
// executed on the running machine.
#pragma once

#include <string>
#include <string_view>

namespace swve::simd {

/// Instruction-set families the library has kernels for. The values are
/// protocol v1's ISA byte; 2 (a retired 128-bit tier) stays unused.
enum class Isa {
  Auto = 0,    ///< the widest ISA both the CPU and the build have
  Scalar = 1,  ///< portable emulated-vector kernels, runs everywhere
  Avx2 = 3,    ///< 256-bit kernels (requires AVX2)
  Avx512 = 4,  ///< 512-bit kernels (requires AVX-512 F/BW/VL)
};

/// CPU capabilities relevant to the kernel dispatch, detected once. Every
/// kernel-selection rule is a function of one such value (the detected one
/// by default), so a test can pin the rules for any host class.
struct CpuFeatures {
  bool sse41 = false;  ///< reported only (host fingerprints); no kernel tier
  bool avx2 = false;
  bool avx512bw_vl = false;  ///< AVX-512 F+BW+VL: 8/16-bit ops and masking
  bool avx512vbmi = false;   ///< byte permutes: Shuffle delivery, column
                             ///< sweep, 64-lane batch32
  /// Gathers are slow here: the OS reports the Downfall (GDS) microcode
  /// mitigation, or cannot tell whether it applies (gds_slows_gathers).
  bool slow_gathers = false;
  unsigned hardware_threads = 1;
};

/// Reads Linux's one-line GDS status
/// (/sys/devices/system/cpu/vulnerabilities/gather_data_sampling): true for
/// "Mitigation: ..." (the microcode mitigation makes vpgatherdd about ten
/// times slower) and "Unknown: ..." (an affected CPU in a guest whose
/// hypervisor decides), false for "Not affected", "Vulnerable..." and ""
/// (no such file: another OS, or a kernel older than the mitigation).
bool gds_slows_gathers(std::string_view status) noexcept;

/// Features of the CPU this process is running on (cached after first call).
const CpuFeatures& cpu_features() noexcept;

/// Resolve Isa::Auto to the best concrete ISA available on a host with
/// features `f` *and* compiled into this build. Concrete ISAs are returned
/// unchanged if supported; an unsupported concrete request falls back to
/// Scalar.
Isa resolve_isa(Isa requested,
                const CpuFeatures& f = cpu_features()) noexcept;

/// True if `isa` can execute on a host with features `f` with this build.
bool isa_available(Isa isa, const CpuFeatures& f = cpu_features()) noexcept;

/// Human-readable name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa) noexcept;

/// Parse "scalar" / "avx2" / "avx512" / "auto" (case-insensitive).
Isa isa_from_string(const std::string& s);

}  // namespace swve::simd
