// Runtime CPU feature detection and ISA selection.
//
// Kernels for each ISA are compiled in their own translation units with the
// matching -m flags; this module decides, once, which of those units may be
// executed on the running machine.
#pragma once

#include <string>
#include <string_view>

namespace swve::simd {

/// Instruction-set families the library has kernels for.
enum class Isa {
  Auto,    ///< pick the widest ISA the CPU supports (and the build includes)
  Scalar,  ///< portable emulated-vector kernels, runs everywhere
  Sse41,   ///< 128-bit kernels (requires SSE4.1; the portability tier)
  Avx2,    ///< 256-bit kernels (requires AVX2)
  Avx512,  ///< 512-bit kernels (requires AVX-512 F/BW/VL)
};

/// CPU capabilities relevant to the kernel dispatch, detected once.
struct CpuFeatures {
  bool sse41 = false;
  bool avx2 = false;
  bool avx512bw_vl = false;  ///< AVX-512 F+BW+VL: 8/16-bit ops and masking
  bool avx512vbmi = false;   ///< full-width byte permute (vpermb) for batch32
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

/// Resolve Isa::Auto to the best concrete ISA available at runtime *and*
/// compiled into this build. Concrete ISAs are returned unchanged if
/// supported; an unsupported concrete request falls back to Scalar.
Isa resolve_isa(Isa requested) noexcept;

/// True if `isa` can execute on this CPU with this build.
bool isa_available(Isa isa) noexcept;

/// Human-readable name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa) noexcept;

/// Parse "scalar" / "avx2" / "avx512" / "auto" (case-insensitive).
Isa isa_from_string(const std::string& s);

}  // namespace swve::simd
