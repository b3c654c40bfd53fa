#include "simd/cpu.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace swve::simd {

bool gds_slows_gathers(std::string_view status) noexcept {
  return status.starts_with("Mitigation") || status.starts_with("Unknown");
}

static std::string gds_status() {
#if defined(__linux__)
  std::ifstream in("/sys/devices/system/cpu/vulnerabilities/gather_data_sampling");
  std::string line;
  if (std::getline(in, line)) return line;
#endif
  return {};
}

static CpuFeatures detect() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.sse41 = __builtin_cpu_supports("sse4.1");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512bw_vl = __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512vl");
  f.avx512vbmi = f.avx512bw_vl && __builtin_cpu_supports("avx512vbmi");
  f.slow_gathers = f.avx2 && gds_slows_gathers(gds_status());
#endif
  f.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  return f;
}

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures f = detect();
  return f;
}

bool isa_available(Isa isa, [[maybe_unused]] const CpuFeatures& f) noexcept {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
#if defined(SWVE_HAVE_AVX2_BUILD)
      return f.avx2;
#else
      return false;
#endif
    case Isa::Avx512:
#if defined(SWVE_HAVE_AVX512_BUILD)
      return f.avx512bw_vl;
#else
      return false;
#endif
    case Isa::Auto:
      return true;
  }
  return false;
}

Isa resolve_isa(Isa requested, const CpuFeatures& f) noexcept {
  if (requested == Isa::Auto) {
    if (isa_available(Isa::Avx512, f)) return Isa::Avx512;
    if (isa_available(Isa::Avx2, f)) return Isa::Avx2;
    return Isa::Scalar;
  }
  return isa_available(requested, f) ? requested : Isa::Scalar;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::Auto: return "auto";
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "?";
}

Isa isa_from_string(const std::string& s) {
  std::string t;
  t.reserve(s.size());
  for (char c : s) t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (t == "auto") return Isa::Auto;
  if (t == "scalar") return Isa::Scalar;
  if (t == "avx2") return Isa::Avx2;
  if (t == "avx512") return Isa::Avx512;
  throw std::invalid_argument("unknown ISA name: " + s);
}

}  // namespace swve::simd
