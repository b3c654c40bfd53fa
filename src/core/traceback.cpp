#include "core/traceback.hpp"

#include <stdexcept>

#include "core/params.hpp"
#include "seq/sequence.hpp"

namespace swve::core {

template TracebackResult walk_traceback<const ColumnTracebackView&>(
    const ColumnTracebackView&, int, int);

int replay_score(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                 const Alignment& aln) {
  if (aln.cigar.empty()) return 0;
  if (aln.begin_query < 0 || aln.begin_ref < 0)
    throw std::invalid_argument("replay_score: alignment has no begin cell");
  int64_t score = 0;
  size_t qi = static_cast<size_t>(aln.begin_query);
  size_t rj = static_cast<size_t>(aln.begin_ref);
  const Cigar& c = aln.cigar;
  for (size_t k = 0; k < c.size(); ++k) {
    uint32_t len = c.len(k);
    switch (c.op(k)) {
      case CigarOp::Match:
        for (uint32_t t = 0; t < len; ++t) {
          if (qi >= q.length || rj >= r.length)
            throw std::out_of_range("replay_score: CIGAR runs past sequence end");
          if (cfg.scheme == ScoreScheme::Matrix)
            score += cfg.matrix->score(q[qi], r[rj]);
          else
            score += q[qi] == r[rj] ? cfg.match : cfg.mismatch;
          ++qi;
          ++rj;
        }
        break;
      case CigarOp::Ins:
        score -= cfg.gap_model == GapModel::Affine
                     ? cfg.gap_open + static_cast<int64_t>(len - 1) * cfg.gap_extend
                     : static_cast<int64_t>(len) * cfg.gap_extend;
        qi += len;
        break;
      case CigarOp::Del:
        score -= cfg.gap_model == GapModel::Affine
                     ? cfg.gap_open + static_cast<int64_t>(len - 1) * cfg.gap_extend
                     : static_cast<int64_t>(len) * cfg.gap_extend;
        rj += len;
        break;
    }
  }
  if (qi != static_cast<size_t>(aln.end_query) + 1 ||
      rj != static_cast<size_t>(aln.end_ref) + 1)
    throw std::out_of_range("replay_score: CIGAR does not end at the end cell");
  return static_cast<int>(score);
}

}  // namespace swve::core
