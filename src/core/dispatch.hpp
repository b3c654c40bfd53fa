// Runtime dispatch of the diagonal kernel family: ISA resolution, the
// 8 -> 16 -> 32 bit adaptive-width ladder (contribution iii), and the
// traceback walk over the kernel's diagonal-major direction flags.
#pragma once

#include "core/diag_kernel.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "seq/sequence.hpp"

namespace swve::core {

// Per-ISA entry points (defined in their own translation units compiled
// with the matching -m flags). `width` must be concrete (not Adaptive).
DiagOutput diag_scalar(const DiagRequest& rq, Width width);
#if defined(SWVE_HAVE_AVX2_BUILD)
DiagOutput diag_avx2(const DiagRequest& rq, Width width);
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
/// The Gather, Fill and Fixed kernels (AVX-512 F/BW/VL, no VBMI).
DiagOutput diag_avx512(const DiagRequest& rq, Width width);
/// The Shuffle kernels (diag_avx512_vbmi.cpp, AVX-512 VBMI): W8 and W16.
DiagOutput diag_avx512_shuffle(const DiagRequest& rq, Width width);
/// The column sweep (column_avx512.cpp) for a pair column_sweep_runs
/// admits, traceback walk included; `r_max_code` is the largest code in r.
Alignment column_avx512(seq::SeqView q, seq::SeqView r, uint8_t r_max_code,
                        const AlignConfig& cfg, Workspace& ws);
#endif

/// Run one kernel at a concrete ISA and width. `isa` must already be
/// resolved (not Auto) and available on this CPU, and a Matrix-scheme
/// `rq.cfg->delivery` must be what delivery_for returns for it.
DiagOutput run_diag_kernel(const DiagRequest& rq, simd::Isa isa, Width width);

/// The one resolver of Matrix-scheme score delivery: the path the kernel
/// dispatch runs for `cfg` at the resolved `isa` and a concrete `width`
/// (Adaptive means the ladder's first rung, W8) on a host with features
/// `f`, and the one a request trace reports. A concrete cfg.delivery pins
/// the path; Auto takes the rule: Shuffle wherever it runs (the 8/16-bit
/// AVX-512 VBMI kernels, with a matrix of at most seq::kShuffleCodes
/// codes); Fill where the OS reports Downfall-mitigated gathers
/// (simd::CpuFeatures::slow_gathers); Gather elsewhere. A Shuffle that
/// cannot run degrades to that rule's choice. A pure function of its
/// arguments: no timing, no global. Fixed-scheme configs are returned
/// unchanged (no delivery path runs).
ScoreDelivery delivery_for(const AlignConfig& cfg, simd::Isa isa, Width width,
                           const simd::CpuFeatures& f = simd::cpu_features());

/// The rung at which the adaptive ladder finishes an alignment whose exact
/// score is already known: the narrowest concrete width whose saturation
/// limit (cap - bias - max substitution score) is above `score`. A run at
/// that width gives the ladder's result without its narrower rungs.
Width exact_score_width(const AlignConfig& cfg, int score);

/// Full alignment through the diagonal kernel family: resolves the ISA,
/// runs the adaptive width ladder, and (if requested) walks the traceback.
/// This is the paper's aligner; align::Aligner wraps it for public use.
/// `prep`, when non-null, must be a PreparedQuery built from exactly `q`;
/// the kernels then skip rebuilding the per-query feed arrays (bit-identical
/// results, less per-call setup — see core::PreparedQuery).
/// Under the Matrix scheme every residue code must index the padded score
/// table: below seq::kMatrixStride, and query codes below
/// seq::kShuffleCodes when delivery_for resolves to Shuffle;
/// std::invalid_argument otherwise. Codes of every seq::Alphabet qualify;
/// a code past the matrix's own alphabet scores the matrix minimum.
Alignment diag_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep = nullptr);

/// Longest query the column sweep takes, with a reference of any length.
/// The largest length at which the sweep measured no slower than
/// diag_align in every cell of the crossover table in EXPERIMENTS.md
/// ("Striped column sweep").
inline constexpr size_t kColumnSweepMaxQuery = 256;

/// The one rule for which sweep core::pair_align runs: the column sweep
/// when the resolved `isa` is AVX-512 and `f` has VBMI, 1 <= m <=
/// kColumnSweepMaxQuery (any reference length), the DP is unbanded, the
/// width is Adaptive, W8 or W16, every query code is below
/// seq::kShuffleCodes (or the scheme is Fixed), and m * max_subst_score()
/// is below the 16-bit saturation limit, so no 32-bit rung can be needed.
/// `q_max_code` is the largest query code. A pure function of its
/// arguments, like delivery_for.
bool column_sweep_runs(const AlignConfig& cfg, simd::Isa isa, size_t m,
                       uint8_t q_max_code,
                       const simd::CpuFeatures& f = simd::cpu_features());

/// Full alignment of one pair through the kernel that suits its shape:
/// the column sweep where column_sweep_runs admits it, else diag_align
/// (with `prep` forwarded). Same signature, validation and results as
/// diag_align in every field but Alignment::sweep and the stats'
/// `diagonals` (the column sweep counts columns). Traceback over more than
/// cfg.max_traceback_cells cells throws std::length_error.
Alignment pair_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep = nullptr);

}  // namespace swve::core
