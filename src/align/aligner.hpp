// Public pairwise-alignment facade.
//
// An Aligner owns a Workspace and reuses it across calls, so repeated
// alignments allocate nothing once warm — this is the paper's scenario 3
// ("SW as a subroutine": many small alignments, working set in cache).
#pragma once

#include "core/dispatch.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/scalar_ref.hpp"

namespace swve::align {

using core::AlignConfig;
using core::Alignment;
using core::GapModel;
using core::ScoreScheme;
using core::Width;
using simd::Isa;

class Aligner {
 public:
  explicit Aligner(AlignConfig cfg = {}) : cfg_(cfg) { cfg_.validate(); }

  const AlignConfig& config() const noexcept { return cfg_; }

  /// Align query against reference with the kernel that suits the pair
  /// (core::pair_align: the column sweep for queries of up to 256 residues
  /// on AVX-512 VBMI, else the diagonal kernel family; ISA-dispatched,
  /// adaptive width, optional traceback per config).
  Alignment align(seq::SeqView query, seq::SeqView reference) {
    return core::pair_align(query, reference, cfg_, ws_);
  }

  /// Access the workspace (advanced: sharing with the batch kernels).
  core::Workspace& workspace() noexcept { return ws_; }

 private:
  AlignConfig cfg_;
  core::Workspace ws_;
};

}  // namespace swve::align
