// google-benchmark microbenchmarks of the individual kernels: the numbers
// behind every figure, at kernel granularity (ISA x width x scheme), plus
// the batch32 and baseline kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <semaphore>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "obs/trace.hpp"
#include "perf/metrics.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"
#include "simd/cpu.hpp"

using namespace swve;

namespace {

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
    core::Alignment a = core::diag_align(q, t, cfg, core::thread_workspace());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

// Smith-Waterman as a subroutine: 2048 pairs of 30-130 aa, a quarter of
// them 92%-identity copies (so about a fifth of the pairs saturate the
// 8-bit rung and widen), Adaptive width, traceback on, best ISA. Reports
// microseconds per pair.
using PairList = std::vector<std::pair<seq::Sequence, seq::Sequence>>;

const PairList& short_pairs() {
  static const PairList pairs = [] {
    PairList out;
    std::mt19937_64 rng(31);
    for (int i = 0; i < 2048; ++i) {
      auto q = seq::generate_sequence(rng(), 30 + static_cast<uint32_t>(rng() % 101));
      auto r = i % 4 == 0 ? seq::mutate(q, rng(), 0.08)
                          : seq::generate_sequence(
                                rng(), 30 + static_cast<uint32_t>(rng() % 101));
      out.emplace_back(std::move(q), std::move(r));
    }
    return out;
  }();
  return pairs;
}

core::AlignConfig short_pair_config() {
  core::AlignConfig cfg;
  cfg.traceback = true;
  return cfg;
}

// The same pairs, only those whose 8-bit rung saturates.
const PairList& saturating_short_pairs() {
  static const PairList pairs = [] {
    PairList out;
    core::Workspace ws;
    for (const auto& p : short_pairs())
      if (core::diag_align(p.first, p.second, short_pair_config(), ws).saturated_8)
        out.push_back(p);
    return out;
  }();
  return pairs;
}

// The pairs that set pairwise alignment's slowest percent: 1024 queries of
// 100-130 aa against 92%-identity copies of themselves, so most saturate
// the 8-bit rung and finish at 16 bits.
const PairList& related_pairs() {
  static const PairList pairs = [] {
    PairList out;
    std::mt19937_64 rng(37);
    for (int i = 0; i < 1024; ++i) {
      auto q = seq::generate_sequence(rng(), 100 + static_cast<uint32_t>(rng() % 31));
      auto r = seq::mutate(q, rng(), 0.08);
      out.emplace_back(std::move(q), std::move(r));
    }
    return out;
  }();
  return pairs;
}

// Eight random queries of M residues, each against a random 4096-residue
// reference: the column sweep on long references.
template <uint32_t M>
const PairList& long_ref_pairs() {
  static const PairList pairs = [] {
    PairList out;
    std::mt19937_64 rng(41 + M);
    for (int i = 0; i < 8; ++i) {
      auto q = seq::generate_sequence(rng(), M);
      out.emplace_back(std::move(q), seq::generate_sequence(rng(), 4096));
    }
    return out;
  }();
  return pairs;
}

// Wall microseconds per pair on each thread, averaged over the threads (a
// submitter waiting for a queued reply is charged for the wait).
void report_us_per_pair(benchmark::State& state, size_t pairs,
                        std::chrono::steady_clock::duration wall) {
  state.counters["us_per_pair"] = benchmark::Counter(
      std::chrono::duration<double, std::micro>(wall).count() /
          (static_cast<double>(pairs) * static_cast<double>(state.iterations())),
      benchmark::Counter::kAvgThreads);
}

using PairAligner = core::Alignment (*)(seq::SeqView, seq::SeqView,
                                        const core::AlignConfig&, core::Workspace&,
                                        const core::PreparedQuery*);

// `align` is core::diag_align (the diag/ cases) or core::pair_align, which
// runs the column sweep on these pairs where the host has AVX-512 VBMI
// (the pair/ cases).
void BM_ShortPairs(benchmark::State& state, const PairList& (*pair_list)(),
                   PairAligner align) {
  const PairList& pairs = pair_list();
  const core::AlignConfig cfg = short_pair_config();
  uint64_t cells = 0;
  for (const auto& [q, r] : pairs) cells += q.length() * r.length();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state)
    for (const auto& [q, r] : pairs) {
      core::Alignment a = align(q, r, cfg, core::thread_workspace(), nullptr);
      benchmark::DoNotOptimize(a.score);
    }
  report_cells(state, cells);
  report_us_per_pair(state, pairs.size(), std::chrono::steady_clock::now() - t0);
}

// The short pairs through AlignService::submit_async, sent the way the
// perfbench `pairwise` closed loop sends them: a TraceSink installed,
// default PMU attribution, traceback on, each submitter building its
// request (two sequence copies) and waiting for the reply. The service
// aligns with core::pair_align, so its us_per_pair minus the direct
// pair/short_pairs/adaptive/tb case's at the same thread count is what the
// service costs per request.
service::AlignService& short_pair_service() {
  static obs::TraceSink sink(8192);
  static service::AlignService svc([] {
    service::ServiceOptions opt;
    opt.obs.trace_sink = &sink;
    return opt;
  }());
  return svc;
}

void BM_ServiceShortPairs(benchmark::State& state) {
  const PairList& pairs = short_pairs();
  service::AlignService& svc = short_pair_service();
  std::binary_semaphore replied(0);
  bool ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state)
    for (const auto& [q, r] : pairs) {
      service::AlignRequest rq;
      rq.query = q;
      rq.reference = r;
      rq.options.traceback = true;
      svc.submit_async(std::move(rq),
                       [&](core::ErrorOr<service::AlignResponse> out) {
                         ok = ok && out.ok();
                         replied.release();
                       });
      replied.acquire();
    }
  const auto wall = std::chrono::steady_clock::now() - t0;
  if (!ok) state.SkipWithError("a request failed");
  report_us_per_pair(state, pairs.size(), wall);
}

// A hand-written copy of the bookkeeping run_pairwise
// (src/service/align_service.cpp) does around one inline pair, with no
// kernel and no request: the registry calls, the trace id and the three
// spans (queue_wait, dispatch.pairwise, chunk.pairwise) into a TraceSink
// with PMU attribution on, from the path's four clock reads. It leaves out
// the options and deadline handling, the in-flight claim, exec_sequence,
// the RequestTrace and the response, and nothing ties it to run_pairwise,
// so the service's full cost per request stays service/short_pairs/tb
// minus pair/short_pairs/adaptive/tb. Threads share the sink and the
// registry, as submitters share the service's.
void BM_ServiceBookkeeping(benchmark::State& state) {
  static obs::TraceSink sink(8192);
  static perf::MetricsRegistry registry;
  constexpr uint64_t kCells = 80 * 80;
  obs::TraceContext tctx;
  tctx.sink = &sink;
  tctx.pmu = &obs::PmuSession::instance();
  tctx.registry = &registry;
  const uint64_t epoch = sink.epoch_steady_ns();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    registry.on_query_length(80);
    tctx.trace_id = sink.next_trace_id();
    const uint64_t t_submit = obs::steady_now_ns();
    registry.on_submitted();
    registry.on_inline_run();
    const uint64_t t_exec = obs::steady_now_ns();
    sink.record_span("queue_wait", tctx.trace_id, t_submit - epoch,
                     t_exec - epoch);
    const double qwait = static_cast<double>(t_exec - t_submit) * 1e-9;
    registry.on_queue_wait(qwait);
    obs::Span dispatch(tctx, "dispatch.pairwise", t_exec);
    obs::Span chunk(tctx, "chunk.pairwise");
    const uint64_t t_end = obs::steady_now_ns();
    chunk.set_kernel(perf::KernelVariant::Column);
    chunk.set_isa(simd::Isa::Avx512);
    chunk.set_width_bits(8);
    chunk.add_cells(kCells);
    chunk.end(t_end);
    const double kernel_s = static_cast<double>(t_end - t_exec) * 1e-9;
    registry.on_completed(perf::Scenario::Pairwise, kernel_s, kCells);
    registry.on_tier_completed(1, perf::Scenario::Pairwise, qwait + kernel_s);
    registry.on_kernel_completed(simd::Isa::Avx512, perf::KernelVariant::Column,
                                 kCells);
    dispatch.end(t_end);
  }
  report_us_per_pair(state, 1, std::chrono::steady_clock::now() - t0);
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
    core::Alignment a = striped.align(t, core::thread_workspace());
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
    core::Alignment a = scan.align(t, core::thread_workspace());
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
    core::Alignment a = diag.align(t, core::thread_workspace());
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

// `lanes` 32 runs the AVX2 engine (on an AVX-512 VBMI host too), 64 the
// AVX-512 VBMI engine that a Batch search on such a host runs.
void BM_Batch32(benchmark::State& state, int lanes) {
  if (!core::batch_lanes_fit(lanes, simd::resolve_isa(simd::Isa::Auto))) {
    state.SkipWithError("needs AVX-512 VBMI");
    return;
  }
  const seq::SequenceDatabase& db = bench_db();
  const core::Batch32Db bdb(db, lanes);
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  core::AlignConfig cfg;
  for (auto _ : state) {
    auto scores = core::batch_scores(q, bdb, db, cfg, core::thread_workspace());
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
  for (auto [kernel, align] : {std::pair{"diag", &core::diag_align},
                                {"pair", &core::pair_align}}) {
    const std::string k = kernel;
    benchmark::RegisterBenchmark((k + "/short_pairs/adaptive/tb").c_str(), BM_ShortPairs,
                                 short_pairs, align)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark((k + "/short_pairs/saturating/adaptive/tb").c_str(),
                                 BM_ShortPairs, saturating_short_pairs, align)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("pair/related_pairs/adaptive/tb", BM_ShortPairs,
                               related_pairs, &core::pair_align)
      ->Unit(benchmark::kMillisecond);
  for (auto [name, pairs] : {std::pair{"pair/long_ref/64x4096", &long_ref_pairs<64>},
                             {"pair/long_ref/128x4096", &long_ref_pairs<128>},
                             {"pair/long_ref/256x4096", &long_ref_pairs<256>}})
    benchmark::RegisterBenchmark(name, BM_ShortPairs, pairs, &core::pair_align)
        ->Unit(benchmark::kMillisecond);
  // The direct pair_align case and the service case at one thread and at
  // nproc - 1 threads (perfbench's submitter count): their us_per_pair
  // difference is the service's cost per request.
  const int submitters =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency())) - 1;
  if (submitters > 1)
    benchmark::RegisterBenchmark("pair/short_pairs/adaptive/tb",
                                 BM_ShortPairs, short_pairs, &core::pair_align)
        ->Unit(benchmark::kMillisecond)
        ->Threads(submitters)
        ->UseRealTime();
  auto* service_case =
      benchmark::RegisterBenchmark("service/short_pairs/tb",
                                   BM_ServiceShortPairs)
          ->Unit(benchmark::kMillisecond)
          ->Threads(1)
          ->UseRealTime();
  if (submitters > 1) service_case->Threads(submitters);
  // The service's bookkeeping alone, at the same thread counts.
  auto* bookkeeping_case =
      benchmark::RegisterBenchmark("service/bookkeeping", BM_ServiceBookkeeping)
          ->Threads(1)
          ->UseRealTime();
  if (submitters > 1) bookkeeping_case->Threads(submitters);
  SWVE_REG("baseline/striped", BM_Striped);
  SWVE_REG("baseline/scan", BM_Scan);
  SWVE_REG("baseline/diag", BM_DiagBasic);
  SWVE_REG("batch32", BM_Batch32, 32);
  SWVE_REG("batch32/64lanes", BM_Batch32, 64);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
