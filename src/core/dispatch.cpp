#include "core/dispatch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace swve::core {

namespace {

// Shuffle needs the 8/16-bit AVX-512 VBMI kernels and a matrix whose codes
// all fit the in-register table.
bool shuffle_runs(const AlignConfig& cfg, simd::Isa isa, Width width,
                  const simd::CpuFeatures& f) {
  return isa == simd::Isa::Avx512 && width != Width::W32 && f.avx512vbmi &&
         cfg.matrix->dim() <= seq::kShuffleCodes;
}

// What Auto means: Shuffle wherever it runs. Otherwise Gather, except on
// hosts whose gathers the Downfall mitigation slows about tenfold
// (simd::CpuFeatures::slow_gathers): those stage scores (Fill). The
// measurements behind it are in EXPERIMENTS.md ("Short-pair diagonal kernel
// and score delivery by rule").
ScoreDelivery delivery_rule(const AlignConfig& cfg, simd::Isa isa,
                            Width width, const simd::CpuFeatures& f) {
  if (shuffle_runs(cfg, isa, width, f)) return ScoreDelivery::Shuffle;
  return f.slow_gathers ? ScoreDelivery::Fill : ScoreDelivery::Gather;
}

uint8_t max_code(seq::SeqView s) {
  uint8_t mx = 0;
  for (size_t i = 0; i < s.length; ++i) mx = std::max(mx, s.data[i]);
  return mx;
}

// Every delivery path indexes the padded 32-column matrix with the raw
// codes (rows past the matrix's alphabet score its minimum); the in-register
// lookup holds only the first `q_limit` (seq::kShuffleCodes) rows.
void check_codes(int q_max, int q_limit, uint8_t r_max) {
  if (q_max >= q_limit || r_max >= seq::kMatrixStride)
    throw std::invalid_argument(
        "diag_align: residue code past the score table (query codes must "
        "be below " + std::to_string(q_limit) + ", reference codes below " +
        std::to_string(seq::kMatrixStride) + ")");
}

}  // namespace

ScoreDelivery delivery_for(const AlignConfig& cfg, simd::Isa isa,
                           Width width, const simd::CpuFeatures& f) {
  if (cfg.scheme != ScoreScheme::Matrix) return cfg.delivery;
  if (width == Width::Adaptive) width = Width::W8;
  const ScoreDelivery d = cfg.delivery;
  if (d == ScoreDelivery::Auto ||
      (d == ScoreDelivery::Shuffle && !shuffle_runs(cfg, isa, width, f)))
    return delivery_rule(cfg, isa, width, f);
  return d;
}

DiagOutput run_diag_kernel(const DiagRequest& rq, simd::Isa isa, Width width) {
  if (width == Width::Adaptive)
    throw std::invalid_argument("run_diag_kernel: width must be concrete");
  switch (isa) {
#if defined(SWVE_HAVE_AVX2_BUILD)
    case simd::Isa::Avx2:
      return diag_avx2(rq, width);
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
    case simd::Isa::Avx512:
      // Only the Shuffle kernels are built with VBMI, and delivery_for
      // picks Shuffle only where VBMI runs.
      if (kernel_mode(*rq.cfg) == KMode::Shuffle)
        return diag_avx512_shuffle(rq, width);
      return diag_avx512(rq, width);
#endif
    case simd::Isa::Scalar:
      return diag_scalar(rq, width);
    default:
      throw std::invalid_argument("run_diag_kernel: unresolved or unbuilt ISA");
  }
}

Width exact_score_width(const AlignConfig& cfg, int score) {
  const int headroom = cfg.bias() + cfg.max_subst_score();
  if (score < 255 - headroom) return Width::W8;
  if (score < 65535 - headroom) return Width::W16;
  return Width::W32;
}

Alignment diag_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep) {
  cfg.validate();
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  if (cfg.scheme == ScoreScheme::Matrix) {
    const int q_limit =
        delivery_for(cfg, isa, cfg.width) == ScoreDelivery::Shuffle
            ? seq::kShuffleCodes
            : seq::kMatrixStride;
    check_codes(prep != nullptr ? prep->max_code() : max_code(q), q_limit,
                max_code(r));
  }
  AlignConfig resolved = cfg;
  DiagRequest rq;
  rq.q = q.data;
  rq.m = static_cast<int>(q.length);
  rq.r = r.data;
  rq.n = static_cast<int>(r.length);
  rq.cfg = &resolved;
  rq.ws = &ws;
  rq.prep = prep;

  // The adaptive ladder: W8, and on saturation the next width continues
  // from the diagonal the narrower rung stopped after (DiagHandoff), so
  // every cell is computed once.
  const bool adaptive = cfg.width == Width::Adaptive;
  Width w = adaptive ? Width::W8 : cfg.width;
  rq.may_widen = adaptive;
  Alignment a;
  a.isa_used = isa;
  DiagOutput o;
  DiagHandoff handoff;
  for (;;) {
    resolved.delivery = delivery_for(cfg, isa, w);
    o = run_diag_kernel(rq, isa, w);
    a.stats += o.stats;
    if (!o.saturated || !adaptive || w == Width::W32) break;
    if (w == Width::W8) {
      a.saturated_8 = true;
      w = Width::W16;
    } else {
      a.saturated_16 = true;
      w = Width::W32;
    }
    handoff = o.handoff;
    rq.resume = &handoff;
  }
  a.width_used = w;
  a.score = o.score;
  a.end_query = o.end_query;
  a.end_ref = o.end_ref;
  a.saturated = o.saturated;

  if (cfg.traceback && o.score > 0 && !o.saturated) {
    DiagTracebackView view{static_cast<const uint8_t*>(ws.tb_dirs.data()),
                           static_cast<const uint64_t*>(ws.tb_offsets.data()),
                           rq.n, cfg.band};
    TracebackResult t = walk_traceback(view, o.end_query, o.end_ref);
    a.begin_query = t.begin_query;
    a.begin_ref = t.begin_ref;
    a.cigar = std::move(t.cigar);
  }
  return a;
}

bool column_sweep_runs(const AlignConfig& cfg, simd::Isa isa, size_t m,
                       uint8_t q_max_code,
                       [[maybe_unused]] const simd::CpuFeatures& f) {
#if defined(SWVE_HAVE_AVX512_BUILD)
  const int64_t limit16 = 65535 - cfg.bias() - cfg.max_subst_score();
  return isa == simd::Isa::Avx512 && f.avx512vbmi &&
         m >= 1 && m <= kColumnSweepMaxQuery && cfg.band < 0 && cfg.width != Width::W32 &&
         (cfg.scheme == ScoreScheme::Fixed || q_max_code < seq::kShuffleCodes) &&
         static_cast<int64_t>(m) * cfg.max_subst_score() < limit16;
#else
  (void)cfg, (void)isa, (void)m, (void)q_max_code;
  return false;
#endif
}

Alignment pair_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep) {
  cfg.validate();
  [[maybe_unused]] const simd::Isa isa = simd::resolve_isa(cfg.isa);
  [[maybe_unused]] const uint8_t q_max =
      prep != nullptr ? prep->max_code() : max_code(q);
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (column_sweep_runs(cfg, isa, q.length, q_max)) {
    const uint8_t r_max = max_code(r);
    if (cfg.scheme == ScoreScheme::Matrix) check_codes(q_max, seq::kShuffleCodes, r_max);
    return column_avx512(q, r, r_max, cfg, ws);
  }
#endif
  return diag_align(q, r, cfg, ws, prep);
}

}  // namespace swve::core
