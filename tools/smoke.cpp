// Bring-up smoke test: every diag kernel (ISA x width x gap x scheme x tb)
// against the golden scalar model on randomized sequences. Exits non-zero
// and prints the first mismatch.
#include <cstdio>
#include <random>
#include <vector>

#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

using namespace swve;

static int smoke_baselines() {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    std::printf("baselines: skipped (no AVX2)\n");
    return 0;
  }
  std::mt19937_64 rng(11);
  core::Workspace ws;
  int checked = 0;
  for (int iter = 0; iter < 40; ++iter) {
    int m = 1 + static_cast<int>(rng() % 180);
    int n = 1 + static_cast<int>(rng() % 220);
    auto q = seq::generate_sequence(rng(), static_cast<uint32_t>(m));
    auto r = seq::generate_sequence(rng(), static_cast<uint32_t>(n));
    core::AlignConfig cfg;
    cfg.gap_open = 5 + static_cast<int>(rng() % 10);
    cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
    core::Alignment ref = core::ref_align(q, r, cfg);

    baseline::StripedAligner striped(q, cfg);
    baseline::ScanAligner scan(q, cfg);
    baseline::DiagBasicAligner diag(q, cfg);
    int s8 = striped.align8(r, ws).saturated ? ref.score : striped.align8(r, ws).score;
    int s16 = striped.align16(r, ws).score;
    int sc = scan.align16(r, ws).score;
    int db = diag.align16(r, ws).score;
    if (s8 != ref.score || s16 != ref.score || sc != ref.score || db != ref.score) {
      std::printf("BASELINE MISMATCH iter=%d m=%d n=%d: ref=%d striped8=%d "
                  "striped16=%d scan=%d diag=%d\n",
                  iter, m, n, ref.score, s8, s16, sc, db);
      return 1;
    }
    ++checked;
  }
  std::printf("baselines OK: %d\n", checked);
  return 0;
}

static int smoke_batch32() {
  std::mt19937_64 rng(13);
  core::Workspace ws;
  seq::SyntheticConfig sc;
  sc.seed = 77;
  sc.target_residues = 40'000;
  sc.min_length = 5;
  sc.max_length = 400;
  seq::SequenceDatabase db = seq::SequenceDatabase::synthetic(sc);
  core::AlignConfig cfg;
  auto q = seq::generate_sequence(123, 120);

  for (int lanes : {32, 64}) {
    core::Batch32Db bdb(db, lanes);
    std::vector<int> scores = core::batch_scores(q, bdb, db, cfg, ws);
    for (size_t s = 0; s < db.size(); ++s) {
      core::Alignment ref = core::ref_align(q, db[s], cfg);
      if (scores[s] != ref.score) {
        std::printf("BATCH MISMATCH lanes=%d seq=%zu len=%zu: got=%d ref=%d\n", lanes,
                    s, db[s].length(), scores[s], ref.score);
        return 1;
      }
    }
    std::printf("batch32 lanes=%d OK: %zu sequences (pad overhead %.1f%%)\n", lanes,
                db.size(), 100.0 * bdb.padding_overhead());
  }
  return 0;
}

int main() {
  std::mt19937_64 rng(7);
  core::Workspace ws;
  int checked = 0;

  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);

  for (int iter = 0; iter < 60; ++iter) {
    int m = 1 + static_cast<int>(rng() % 150);
    int n = 1 + static_cast<int>(rng() % 200);
    auto q = seq::generate_sequence(rng(), static_cast<uint32_t>(m));
    auto r = seq::generate_sequence(rng(), static_cast<uint32_t>(n));

    for (int scheme = 0; scheme < 2; ++scheme)
      for (int gm = 0; gm < 2; ++gm)
        for (int tb = 0; tb < 2; ++tb) {
          core::AlignConfig cfg;
          cfg.scheme = scheme ? core::ScoreScheme::Fixed : core::ScoreScheme::Matrix;
          cfg.gap_model = gm ? core::GapModel::Linear : core::GapModel::Affine;
          cfg.gap_open = 11;
          cfg.gap_extend = 1;
          cfg.traceback = tb != 0;
          core::Alignment ref = core::ref_align(q, r, cfg);

          for (simd::Isa isa : isas)
            for (core::Width w :
                 {core::Width::W8, core::Width::W16, core::Width::W32,
                  core::Width::Adaptive}) {
              cfg.isa = isa;
              cfg.width = w;
              core::Alignment got = core::diag_align(q, r, cfg, ws);
              if (got.saturated) continue;  // fixed narrow width overflowed
              if (got.score != ref.score || got.end_query != ref.end_query ||
                  got.end_ref != ref.end_ref) {
                std::printf(
                    "MISMATCH iter=%d m=%d n=%d isa=%s w=%d scheme=%d gm=%d tb=%d: "
                    "got score=%d end=(%d,%d) ref score=%d end=(%d,%d)\n",
                    iter, m, n, simd::isa_name(isa), static_cast<int>(w), scheme, gm,
                    tb, got.score, got.end_query, got.end_ref, ref.score,
                    ref.end_query, ref.end_ref);
                return 1;
              }
              if (cfg.traceback && got.score > 0) {
                int rs = core::replay_score(q, r, cfg, got);
                if (rs != got.score) {
                  std::printf("TB REPLAY MISMATCH iter=%d isa=%s w=%d: replay=%d score=%d cigar=%s\n",
                              iter, simd::isa_name(isa), static_cast<int>(w), rs,
                              got.score, got.cigar.to_string().c_str());
                  return 1;
                }
              }
              ++checked;
            }
        }
  }
  std::printf("smoke OK: %d kernel results matched golden\n", checked);
  if (int rc = smoke_baselines()) return rc;
  if (int rc = smoke_batch32()) return rc;
  return 0;
}
