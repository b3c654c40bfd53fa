// google-benchmark microbenchmarks of the individual kernels: the numbers
// behind every figure, at kernel granularity (ISA x width x scheme), plus
// the batch32 and baseline kernels.
#include <benchmark/benchmark.h>


#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

using namespace swve;

namespace {

core::Workspace& tls_ws() {
  static thread_local core::Workspace ws;
  return ws;
}

const seq::Sequence& bench_query(int len) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(len);
  if (it == cache.end())
    it = cache.emplace(len, seq::generate_sequence(7, static_cast<uint32_t>(len))).first;
  return it->second;
}

const seq::Sequence& bench_target() {
  static const seq::Sequence t = seq::generate_sequence(8, 2000);
  return t;
}

void report_cells(benchmark::State& state, uint64_t cells_per_iter) {
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells_per_iter) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_DiagKernel(benchmark::State& state, simd::Isa isa, core::Width width,
                   core::ScoreScheme scheme) {
  if (!simd::isa_available(isa)) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  core::AlignConfig cfg;
  cfg.isa = isa;
  cfg.width = width;
  cfg.scheme = scheme;
  cfg.match = 5;
  cfg.mismatch = -2;
  for (auto _ : state) {
    core::Alignment a = core::diag_align(q, t, cfg, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

void BM_Striped(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::StripedAligner striped(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = striped.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

void BM_Scan(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::ScanAligner scan(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = scan.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

void BM_DiagBasic(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::DiagBasicAligner diag(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = diag.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

const seq::SequenceDatabase& bench_db() {
  static seq::SequenceDatabase db = [] {
    seq::SyntheticConfig cfg;
    cfg.seed = 9;
    cfg.target_residues = 100'000;
    cfg.min_length = 100;
    cfg.max_length = 400;
    return seq::SequenceDatabase::synthetic(cfg);
  }();
  return db;
}

void BM_Batch32(benchmark::State& state) {
  const seq::SequenceDatabase& db = bench_db();
  static core::Batch32Db bdb(db, 32);
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  core::AlignConfig cfg;
  for (auto _ : state) {
    auto scores = core::batch_scores(q, bdb, db, cfg, tls_ws());
    benchmark::DoNotOptimize(scores.data());
  }
  report_cells(state, q.length() * db.total_residues());
}

}  // namespace

#define SWVE_REG(name, ...)                                     \
  benchmark::RegisterBenchmark(name, __VA_ARGS__)               \
      ->Arg(128)                                                \
      ->Arg(1024)                                               \
      ->Unit(benchmark::kMillisecond)

int main(int argc, char** argv) {
  using core::ScoreScheme;
  using core::Width;
  using simd::Isa;
  SWVE_REG("diag/scalar/w16", BM_DiagKernel, Isa::Scalar, Width::W16,
           ScoreScheme::Matrix);
  SWVE_REG("diag/avx2/w8", BM_DiagKernel, Isa::Avx2, Width::W8, ScoreScheme::Matrix);
  SWVE_REG("diag/avx2/w16", BM_DiagKernel, Isa::Avx2, Width::W16, ScoreScheme::Matrix);
  SWVE_REG("diag/avx2/w32", BM_DiagKernel, Isa::Avx2, Width::W32, ScoreScheme::Matrix);
  SWVE_REG("diag/avx2/w16/fixed", BM_DiagKernel, Isa::Avx2, Width::W16,
           ScoreScheme::Fixed);
  SWVE_REG("diag/avx512/w16", BM_DiagKernel, Isa::Avx512, Width::W16,
           ScoreScheme::Matrix);
  SWVE_REG("diag/avx512/w8", BM_DiagKernel, Isa::Avx512, Width::W8,
           ScoreScheme::Matrix);
  SWVE_REG("baseline/striped", BM_Striped);
  SWVE_REG("baseline/scan", BM_Scan);
  SWVE_REG("baseline/diag", BM_DiagBasic);
  SWVE_REG("batch32", BM_Batch32);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
