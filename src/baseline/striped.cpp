#include "baseline/striped.hpp"

#include <stdexcept>

#include "baseline/baseline_util.hpp"
#include "core/scalar_ref.hpp"
#include "simd/cpu.hpp"

namespace swve::baseline {

StripedAligner::StripedAligner(seq::SeqView q, const core::AlignConfig& cfg)
    : query_(q.data, q.data + q.length), cfg_(detail::sanitize(cfg, owned_matrix_)) {
  const matrix::ScoreMatrix& m = *cfg_.matrix;
  const seq::SeqView qv(query_.data(), query_.size());
  prof8_ = std::make_unique<matrix::StripedProfile<uint8_t>>(
      qv, m, 32, uint8_t{0}, m.bias());
  prof16_ = std::make_unique<matrix::StripedProfile<int16_t>>(qv, m, 16, kNeg16, 0);
}

BaselineResult StripedAligner::align8(seq::SeqView r, core::Workspace& ws) const {
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (simd::cpu_features().avx2)
    return striped8_avx2(*prof8_, r, cfg_.gap_open, cfg_.gap_extend,
                         cfg_.max_subst_score(), ws);
#endif
  (void)r;
  (void)ws;
  throw std::runtime_error("StripedAligner::align8 requires AVX2");
}

BaselineResult StripedAligner::align16(seq::SeqView r, core::Workspace& ws) const {
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (simd::cpu_features().avx2)
    return striped16_avx2(*prof16_, r, cfg_.gap_open, cfg_.gap_extend, ws);
#endif
  (void)r;
  (void)ws;
  throw std::runtime_error("StripedAligner::align16 requires AVX2");
}

core::Alignment StripedAligner::align(seq::SeqView r,
                                      [[maybe_unused]] core::Workspace& ws) const {
  core::Alignment a;
  a.isa_used = simd::Isa::Avx2;
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (simd::cpu_features().avx2) {
    BaselineResult r8 = align8(r, ws);
    if (!r8.saturated) {
      a.score = r8.score;
      a.end_ref = r8.end_ref;
      a.width_used = core::Width::W8;
      a.stats = r8.stats;
      return a;
    }
    a.saturated_8 = true;
    BaselineResult r16 = align16(r, ws);
    if (!r16.saturated) {
      a.score = r16.score;
      a.end_ref = r16.end_ref;
      a.width_used = core::Width::W16;
      a.stats = r16.stats;
      return a;
    }
    a.saturated_16 = true;
  }
#endif
  const seq::SeqView qv(query_.data(), query_.size());
  core::Alignment exact = core::ref_align(qv, r, cfg_);
  exact.saturated_8 = a.saturated_8;
  exact.saturated_16 = a.saturated_16;
  return exact;
}

}  // namespace swve::baseline
