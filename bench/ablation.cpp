// Ablation study of the paper's design choices (DESIGN.md calls these out):
//   * score delivery: gather (Fig 4) vs scalar fill vs VBMI shuffle;
//   * integer width: 8 vs 16 vs 32 bit, and the adaptive ladder;
//   * ISA width: AVX2 vs AVX-512 vs portable scalar;
//   * the classic wavefront (diag_basic: scalar score staging + per-diagonal
//     reductions + no adaptive width) as the fully-ablated endpoint;
//   * banding as a cell-count reduction.
#include "baseline/diag_basic.hpp"
#include "bench_common.hpp"
#include "core/workspace.hpp"

using namespace swve;
using bench::BenchArgs;
using bench::Workload;

namespace {

double bench_cfg(const Workload& w, const seq::Sequence& q, core::AlignConfig cfg,
                 core::Workspace& ws) {
  return bench::time_gcups(q, w.db, [&](const auto& qq, const auto& tt) {
    core::diag_align(qq, tt, cfg, ws);
  });
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  Workload w = Workload::make(args);
  bench::print_environment();
  core::Workspace ws;
  const seq::Sequence& q = w.queries[w.queries.size() / 2];
  std::cout << "workload: query " << q.length() << " aa vs "
            << w.db.total_residues() << " residues (BLOSUM62, affine 11/1)\n";

  perf::print_banner(std::cout, "Ablation 1: score delivery (16-bit, auto ISA)");
  {
    perf::Table t({"delivery", "GCUPS", "vs auto"});
    core::AlignConfig base;
    base.width = core::Width::W16;
    double g_auto = bench_cfg(w, q, base, ws);
    for (auto [name, d] :
         std::initializer_list<std::pair<const char*, core::ScoreDelivery>>{
             {"auto (rule)", core::ScoreDelivery::Auto},
             {"gather (vpgatherdd)", core::ScoreDelivery::Gather},
             {"fill (scalar staging)", core::ScoreDelivery::Fill},
             {"shuffle (vpermi2b)", core::ScoreDelivery::Shuffle}}) {
      core::AlignConfig cfg = base;
      cfg.delivery = d;
      double g = bench_cfg(w, q, cfg, ws);
      t.row({name, perf::Table::num(g, 2), perf::Table::num(g / g_auto, 2)});
    }
    t.print(std::cout);
  }

  perf::print_banner(std::cout, "Ablation 2: integer width (auto ISA, auto delivery)");
  {
    perf::Table t({"width", "GCUPS"});
    for (auto [name, width] :
         std::initializer_list<std::pair<const char*, core::Width>>{
             {"8-bit", core::Width::W8},
             {"16-bit", core::Width::W16},
             {"32-bit", core::Width::W32},
             {"adaptive 8/16/32", core::Width::Adaptive}}) {
      core::AlignConfig cfg;
      cfg.width = width;
      t.row({name, perf::Table::num(bench_cfg(w, q, cfg, ws), 2)});
    }
    t.print(std::cout);
  }

  perf::print_banner(std::cout, "Ablation 3: ISA (adaptive width)");
  {
    perf::Table t({"isa", "GCUPS"});
    for (simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512}) {
      if (!simd::isa_available(isa)) continue;
      core::AlignConfig cfg;
      cfg.isa = isa;
      t.row({simd::isa_name(isa), perf::Table::num(bench_cfg(w, q, cfg, ws), 2)});
    }
    t.print(std::cout);
  }

  perf::print_banner(std::cout,
                     "Ablation 4: fully-ablated classic wavefront (diag_basic)");
  if (simd::isa_available(simd::Isa::Avx2)) {
    core::AlignConfig cfg;
    double g_ours = bench_cfg(w, q, cfg, ws);
    baseline::DiagBasicAligner diag(q, cfg);
    double g_basic = bench::time_gcups(q, w.db, [&](const auto&, const auto& tt) {
      diag.align(tt, ws);
    });
    perf::Table t({"kernel", "GCUPS", "speedup"});
    t.row({"ours (all optimizations)", perf::Table::num(g_ours, 2),
           perf::Table::num(g_ours / g_basic, 2)});
    t.row({"classic wavefront", perf::Table::num(g_basic, 2), "1.00"});
    t.print(std::cout);
  }

  perf::print_banner(std::cout, "Ablation 5: banding (adaptive width)");
  {
    perf::Table t({"band", "GCUPS (wall)", "cells vs full"});
    core::AlignConfig cfg;
    uint64_t full_cells = 0;
    {
      core::Alignment a = core::diag_align(q, w.db[0], cfg, ws);
      full_cells = q.length() * w.db.total_residues();
      (void)a;
    }
    for (int band : {-1, 256, 64, 16}) {
      cfg.band = band;
      uint64_t cells = 0;
      perf::Stopwatch sw;
      for (size_t s = 0; s < w.db.size(); ++s)
        cells += core::diag_align(q, w.db[s], cfg, ws).stats.cells;
      double g = perf::gcups(q.length() * w.db.total_residues(), sw.seconds());
      t.row({band < 0 ? "full" : std::to_string(band), perf::Table::num(g, 2),
             perf::Table::percent(static_cast<double>(cells) /
                                  static_cast<double>(full_cells))});
    }
    t.print(std::cout);
    std::cout << "(GCUPS counts the full matrix: banding trades cells for wall time)\n";
  }
  return 0;
}
