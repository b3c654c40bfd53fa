// Fig 12: top-down pipeline-slot analysis (VTune substitute; DESIGN.md §4,
// substitution 3).
//   (a) backend-bound split (memory vs core) with and without a
//       substitution matrix;
//   (b) pipeline-slot efficiency vs thread count for a large query;
//   (c) per-query slot efficiency.
//
// perf::topdown_analyze reads the measured thread's obs::PmuSession counter
// group. When perf_event counters are blocked (typical in containers), the
// model derives the same categories from measurable quantities:
//   * retiring  = estimated retired instructions / (4 * cycles), with
//     cycles from wall clock x the frequency measured at the SAME
//     concurrency level (the paper's own recalibration point);
//   * memory-bound = the measured slowdown of streaming the real database
//     versus re-aligning one hot-in-L1 target of equal cell count — the
//     fraction of runtime attributable to the memory hierarchy;
//   * core-bound = the remaining backend slots (gather/shuffle pressure).
//
// Paper findings to reproduce in shape: with a substitution matrix the
// kernel is core-bound; ~8% of slots memory-bound, up to ~18% without the
// matrix; more threads per core raise slot efficiency.
#include <atomic>
#include <thread>

#include "bench_common.hpp"
#include "core/workspace.hpp"
#include "obs/pmu.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/topdown.hpp"

using namespace swve;
using bench::BenchArgs;
using bench::Workload;

namespace {

// Documented per-cell instruction estimates of the 16-bit diag kernel
// (inspection of the compiled inner loop; see DESIGN.md).
constexpr double kInstrPerCellMatrix = 26.0 / 16.0;  // shuffle/fill delivery
constexpr double kInstrPerCellFixed = 15.0 / 16.0;

struct Slice {
  perf::TopDownResult td;
  uint64_t cells = 0;
};

core::AlignConfig slice_cfg(bool matrix) {
  core::AlignConfig cfg;
  cfg.width = core::Width::W16;
  cfg.scheme = matrix ? core::ScoreScheme::Matrix : core::ScoreScheme::Fixed;
  cfg.match = 5;
  cfg.mismatch = -2;
  return cfg;
}

double run_pass(const Workload& w, const seq::Sequence& q,
                const core::AlignConfig& cfg, core::Workspace& ws) {
  perf::Stopwatch sw;
  for (size_t s = 0; s < w.db.size(); ++s) core::diag_align(q, w.db[s], cfg, ws);
  return sw.seconds();
}

/// Memory share: streaming the whole database vs the same number of cells
/// against one small target that stays hot in L1.
double memory_fraction(const Workload& w, const seq::Sequence& q, bool matrix) {
  core::Workspace ws;
  core::AlignConfig cfg = slice_cfg(matrix);
  const seq::Sequence hot = seq::generate_sequence(1234, 512);
  const int hot_reps =
      static_cast<int>(w.db.total_residues() / hot.length()) + 1;
  run_pass(w, q, cfg, ws);  // warm
  const double t_stream = run_pass(w, q, cfg, ws);
  perf::Stopwatch sw;
  for (int k = 0; k < hot_reps; ++k) core::diag_align(q, hot, cfg, ws);
  const double cell_ratio = static_cast<double>(hot.length()) * hot_reps /
                            static_cast<double>(w.db.total_residues());
  const double t_hot = sw.seconds() / cell_ratio;
  return std::max(0.0, 1.0 - t_hot / t_stream);
}

Slice run_slice(const Workload& w, const seq::Sequence& q, bool matrix, int threads,
                double ghz_loaded, double mem_frac) {
  core::AlignConfig cfg = slice_cfg(matrix);
  Slice slice;
  slice.cells = q.length() * w.db.total_residues();

  auto workload = [&] {
    std::atomic<unsigned> started{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> extra;
    // Sibling threads keep the other hardware threads busy with the same
    // kernel while the measured thread runs.
    for (int t = 1; t < threads; ++t)
      extra.emplace_back([&] {
        core::Workspace ws;
        started.fetch_add(1);
        while (!stop.load(std::memory_order_relaxed))
          for (size_t s = 0; s < w.db.size() && !stop.load(); ++s)
            core::diag_align(q, w.db[s], cfg, ws);
      });
    while (started.load() < static_cast<unsigned>(threads - 1)) {}
    core::Workspace ws;
    for (size_t s = 0; s < w.db.size(); ++s) core::diag_align(q, w.db[s], cfg, ws);
    stop.store(true);
    for (auto& t : extra) t.join();
  };

  perf::ModelInputs model;
  model.instructions = static_cast<uint64_t>(
      static_cast<double>(slice.cells) *
      (matrix ? kInstrPerCellMatrix : kInstrPerCellFixed));
  model.ghz = ghz_loaded;
  model.memory_fraction = mem_frac;
  slice.td = perf::topdown_analyze(workload, model);
  return slice;
}

std::string pct(double x) { return perf::Table::percent(x); }

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.db_residues /= 2;  // topdown runs several slices
  Workload w = Workload::make(args);
  bench::print_environment();
  obs::PmuSession& pmu = obs::PmuSession::instance();
  std::cout << "counter source: ";
  if (pmu.available())
    std::cout << "perf_event (hardware)\n";
  else
    std::cout << "analytical model (documented; perf_event "
              << pmu.unavailable_reason() << ")\n";

  const unsigned hw = simd::cpu_features().hardware_threads;
  perf::FreqScalingReport freq = perf::frequency_scaling(
      static_cast<int>(std::max(2u, hw)), args.quick ? 25 : 50);
  auto ghz_at = [&](int threads) {
    for (size_t k = 0; k < freq.threads.size(); ++k)
      if (freq.threads[k] == threads) return freq.ghz_mean[k];
    return freq.ghz_mean.back();
  };

  const seq::Sequence& large = w.queries.back();
  const double memfrac_matrix = memory_fraction(w, large, true);
  const double memfrac_fixed = memory_fraction(w, large, false);

  perf::print_banner(std::cout, "Fig 12a: backend-bound split, +/- substitution matrix");
  {
    perf::Table t({"config", "retiring", "backend", "memory-bound", "core-bound"});
    for (bool matrix : {true, false}) {
      Slice s = run_slice(w, large, matrix, 1, ghz_at(1),
                          matrix ? memfrac_matrix : memfrac_fixed);
      t.row({matrix ? "with submatrix" : "fixed score", pct(s.td.retiring),
             pct(s.td.backend_bound), pct(s.td.memory_bound), pct(s.td.core_bound)});
    }
    t.print(std::cout);
    std::cout << "(paper: submatrix => core bound dominates; 8-18% memory bound)\n";
  }

  perf::print_banner(std::cout, "Fig 12b: slot efficiency vs threads (large query)");
  {
    perf::Table t({"threads", "retiring(slot eff)", "memory-bound", "core-bound", "ipc"});
    for (int threads : {1, static_cast<int>(std::max(2u, hw))}) {
      Slice s = run_slice(w, large, true, threads, ghz_at(threads), memfrac_matrix);
      t.row({std::to_string(threads), pct(s.td.retiring), pct(s.td.memory_bound),
             pct(s.td.core_bound), perf::Table::num(s.td.ipc, 2)});
    }
    t.print(std::cout);
    std::cout << "(paper: pairing threads on cores raises slot efficiency)\n";
  }

  perf::print_banner(std::cout, "Fig 12c: slot efficiency per query (1 thread)");
  {
    perf::Table t({"query", "len", "retiring", "memory-bound", "core-bound"});
    for (const auto& q : w.queries) {
      if (q.length() < 128 && !args.quick) continue;  // small queries: noisy (paper)
      Slice s = run_slice(w, q, true, 1, ghz_at(1), memfrac_matrix);
      t.row({q.id(), std::to_string(q.length()), pct(s.td.retiring),
             pct(s.td.memory_bound), pct(s.td.core_bound)});
    }
    t.print(std::cout);
  }
  return 0;
}
