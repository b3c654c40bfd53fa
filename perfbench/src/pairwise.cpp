// Workload `pairwise`: Smith-Waterman as a subroutine (the paper's
// scenario 3).
//
// In-process AlignService::submit_async(AlignRequest) with traceback on,
// closed loop from one submitting thread per CPU. Pairs are 30-130
// residues; a fixed share are high-identity mutated copies, so the
// 8 -> 16 -> 32 width ladder reruns. The diagonal kernel runs on short
// ragged pairs where tails, the scalar fallback, query-profile builds and
// traceback dominate, and the service pays its per-request queue and
// executor cost thousands of times per second.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "net/protocol.hpp"
#include "seq/synthetic.hpp"

namespace perfbench {
namespace {

using namespace swve;

// Generator parameters (recorded as run inputs).
constexpr size_t kPairs = 4096;
constexpr uint32_t kMinLen = 30;
constexpr uint32_t kMaxLen = 130;
constexpr double kHighIdentityShare = 0.25;
constexpr double kHighIdentityRate = 0.08;  // substitution rate of copies
constexpr size_t kGateEvery = 64;           // scalar_ref check stride
constexpr size_t kSpanEvery = 16;           // traced run: span sampling
constexpr uint32_t kWarmupLen = 2000;

struct Pair {
  seq::Sequence q, r;
  double cells = 0;
};

std::vector<Pair> make_pairs(uint64_t seed) {
  Rng rng(seed * 0x94d049bb133111ebull + 3);
  std::vector<Pair> out(kPairs);
  const size_t high = static_cast<size_t>(kPairs * kHighIdentityShare);
  for (size_t i = 0; i < kPairs; ++i) {
    auto len = [&] {
      return kMinLen + static_cast<uint32_t>(rng.below(kMaxLen - kMinLen + 1));
    };
    Pair& p = out[i];
    p.q = seq::generate_sequence(rng.next(), len());
    p.r = i < high ? seq::mutate(p.q, rng.next(), kHighIdentityRate)
                   : seq::generate_sequence(rng.next(), len());
  }
  // Interleave the high-identity pairs with the rest.
  for (size_t i = kPairs; i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  for (Pair& p : out)
    p.cells = static_cast<double>(p.q.length()) * static_cast<double>(p.r.length());
  return out;
}

service::AlignRequest make_request(const Pair& p) {
  service::AlignRequest rq;
  rq.query = p.q;
  rq.reference = p.r;
  rq.options.traceback = true;
  return rq;
}

// What the gate checks: score and end cell.
struct EndCell {
  bool seen = false;
  int score = 0, end_query = -1, end_ref = -1;
};

// What a closed loop saw. Untraced, its size is fixed whatever the
// throughput, so peak_rss_mb measures the service rather than the
// benchmark's bookkeeping. The per-request samples are kept only in the
// traced run, which reports no peak_rss_mb.
struct LoopStats {
  LatencyHistogram lat;  ///< submit to completion callback, Ok replies
  double cells = 0;      ///< of Ok replies
  size_t n = 0, failed = 0, widened = 0;
  std::vector<double> queue_us, exec_ms, self_us;  // traced run only

  void merge(const LoopStats& o) {
    lat.merge(o.lat);
    cells += o.cells;
    n += o.n;
    failed += o.failed;
    widened += o.widened;
    for (auto [dst, src] : {std::pair{&queue_us, &o.queue_us},
                            {&exec_ms, &o.exec_ms},
                            {&self_us, &o.self_us}})
      dst->insert(dst->end(), src->begin(), src->end());
  }
};

// The traced run's view of a closed loop: spans go to `tracer`, and a
// request's service self time is its latency minus `direct_s[pair]`, a
// direct core::diag_align on the same pair.
struct TracedLoop {
  Tracer& tracer;
  const std::vector<double>& direct_s;
};

// Closed loop for `seconds`: `threads` submitters, each waiting for its
// reply before the next request. Every kGateEvery-th pair's first reply is
// kept in `gate`. When traced, one request in kSpanEvery records a request
// span with the service's queue and exec as children.
LoopStats closed_loop(service::AlignService& svc,
                      const std::vector<Pair>& pairs, unsigned threads,
                      double seconds, std::vector<EndCell>& gate,
                      const TracedLoop* traced = nullptr) {
  LoopStats total;
  std::mutex mu;  // guards total and gate
  const double start = now_s();
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      LoopStats mine;
      std::binary_semaphore ready(0);
      for (size_t i = t; now_s() - start < seconds; i += threads) {
        const size_t pi = i % pairs.size();
        const double submit = now_s();
        double latency = 0, queue = 0, exec = 0;
        core::Width width = core::Width::W8;
        bool ok = false;
        EndCell cell;
        svc.submit_async(make_request(pairs[pi]),
                         [&](core::ErrorOr<service::AlignResponse> resp) {
                           latency = now_s() - submit;
                           ok = resp.ok();
                           if (resp.ok()) {
                             queue = resp->trace.queue_wait_s;
                             exec = resp->trace.kernel_s;
                             width = resp->alignment.width_used;
                             cell = EndCell{true, resp->alignment.score,
                                            resp->alignment.end_query,
                                            resp->alignment.end_ref};
                           }
                           ready.release();
                         });
        ready.acquire();
        mine.n++;
        if (!ok) {
          mine.failed++;
          continue;
        }
        mine.lat.add(latency);
        mine.cells += pairs[pi].cells;
        if (width != core::Width::W8) mine.widened++;
        if (traced != nullptr) {
          mine.queue_us.push_back(queue * 1e6);
          mine.exec_ms.push_back(exec * 1e3);
          mine.self_us.push_back((latency - traced->direct_s[pi]) * 1e6);
          if (mine.n % kSpanEvery == 0) {
            const uint64_t root =
                traced->tracer.add("service.request", submit, submit + latency);
            traced->tracer.add("service.queue", submit, submit + queue, root);
            traced->tracer.add("service.exec", submit + queue,
                               submit + queue + exec, root);
          }
        }
        if (pi % kGateEvery == 0) {
          std::lock_guard<std::mutex> lk(mu);
          if (!gate[pi / kGateEvery].seen) gate[pi / kGateEvery] = cell;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      total.merge(mine);
    });
  }
  for (std::thread& t : ts) t.join();
  return total;
}

// Gate: every kGateEvery-th pair matches the golden scalar model on score
// and end position.
void gate_scalar_ref(const std::vector<Pair>& pairs,
                     const std::vector<EndCell>& gate, Report& r) {
  core::AlignConfig cfg;
  cfg.traceback = true;
  size_t checked = 0;
  for (size_t g = 0; g < gate.size(); ++g) {
    if (!gate[g].seen) continue;
    const Pair& p = pairs[g * kGateEvery];
    const core::Alignment ref = core::ref_align(p.q, p.r, cfg);
    if (ref.score != gate[g].score || ref.end_query != gate[g].end_query ||
        ref.end_ref != gate[g].end_ref)
      r.fail("pairwise: pair " + std::to_string(g * kGateEvery) +
             " differs from scalar_ref");
    checked++;
  }
  if (checked == 0) r.fail("pairwise: no pair reached the scalar_ref gate");
  std::printf("gate pairwise: %zu pairs matched scalar_ref\n", checked);
}

void record_inputs(const LoopStats& s, Report& r) {
  r.input("pairs", static_cast<double>(kPairs));
  r.input("len_min", kMinLen);
  r.input("len_max", kMaxLen);
  r.input("high_identity_share", kHighIdentityShare);
  r.input("high_identity_substitution_rate", kHighIdentityRate);
  r.input("traceback", "on");
  r.input("widen_share", s.n > s.failed ? static_cast<double>(s.widened) /
                                              static_cast<double>(s.n - s.failed)
                                        : 0);
}

void traced_layers(service::AlignService& svc, const std::vector<Pair>& pairs,
                   unsigned threads, const Args& args, Tracer& tracer,
                   Report& r) {
  // One layer down first: the same pairs straight into the diagonal
  // kernel on this thread, traceback on. Two passes; the second is timed,
  // and gives each pair the direct cost the service's self time is
  // measured against.
  core::AlignConfig cfg;
  cfg.traceback = true;
  core::Workspace ws;
  std::vector<double> direct_s(pairs.size(), 0);
  size_t widened = 0;
  double cells = 0, secs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double t0 = now_s();
      const core::Alignment a = core::diag_align(pairs[i].q, pairs[i].r, cfg, ws);
      const double t1 = now_s();
      if (pass == 0) continue;
      tracer.add("core.diag_align", t0, t1);
      direct_s[i] = t1 - t0;
      cells += pairs[i].cells;
      secs += t1 - t0;
      if (a.width_used != core::Width::W8) widened++;
    }
  }

  std::vector<EndCell> gate(pairs.size() / kGateEvery + 1);
  const perf::MetricsSnapshot m0 = svc.metrics();
  const double w0 = now_s();
  // Alternate untraced and traced segments of the closed loop.
  const double seg = std::min(2.0, args.seconds / 4);
  const TracedLoop traced{tracer, direct_s};
  LoopStats sp, st;
  double plain_wall = 0, traced_wall = 0;
  for (int k = 0; k < 4; ++k) {
    const bool on = k % 2 == 1;
    const double t0 = now_s();
    const LoopStats xs =
        closed_loop(svc, pairs, threads, seg, gate, on ? &traced : nullptr);
    (on ? traced_wall : plain_wall) += now_s() - t0;
    (on ? st : sp).merge(xs);
  }
  const double loop_wall = now_s() - w0;
  const perf::MetricsSnapshot m1 = svc.metrics();
  r.attempted = sp.n + st.n;
  r.failed = sp.failed + st.failed;
  gate_scalar_ref(pairs, gate, r);

  // Codec of the scenario's own frames (what a wire client would pay).
  std::vector<double> codec_us;
  for (size_t i = 0; i < pairs.size(); i += 4) {
    const service::AlignRequest rq = make_request(pairs[i]);
    service::AlignResponse resp;
    resp.alignment = core::diag_align(pairs[i].q, pairs[i].r, cfg, ws);
    const double t0 = now_s();
    std::string a, b;
    net::encode_align_request(a, rq);
    auto back = net::decode_align_request(a);
    net::encode_align_response(b, resp);
    auto resp_back = net::decode_align_response(b);
    codec_us.push_back((now_s() - t0) * 1e6);
    if (!back || !resp_back) r.fail("pairwise: codec round trip failed");
  }

  const uint64_t submitted = m1.submitted - m0.submitted;
  const Pct q50 = percentile(st.queue_us, 0.5);
  const Pct q99 = percentile(st.queue_us, 0.99);
  const Pct s50 = percentile(st.self_us, 0.5);
  r.layer("net.self_us_p50", 0, "us", "n/a on pairwise: in-process");
  r.layer("net.codec_us", median(codec_us), "us", "align request+response");
  r.layer("net.serialize_us", 0, "us", "n/a on pairwise: in-process");
  r.layer("net.unattributed_frac", 0, "ratio", "n/a on pairwise: in-process");
  r.layer("service.queue_us_p50", q50.value, "us", count_note(q50));
  r.layer("service.queue_us_p99", q99.valid ? q99.value : 0, "us",
          count_note(q99));
  r.layer("service.exec_ms_p50", median(st.exec_ms), "ms");
  r.layer("service.self_us", s50.value, "us",
          "submit-to-completion minus direct diag_align, p50");
  r.layer("service.rejected_frac",
          submitted ? static_cast<double>(m1.rejected_queue_full -
                                          m0.rejected_queue_full) /
                          static_cast<double>(submitted)
                    : 0,
          "ratio");
  r.layer("align.search_ms_p50", 0, "ms", "n/a on pairwise");
  r.layer("align.realign_ms", 0, "ms", "n/a on pairwise");
  r.layer("align.prepare_us", 0, "us", "n/a on pairwise");
  r.layer("align.useful_cell_frac", 0, "ratio", "n/a on pairwise");
  r.layer("align.rescore_frac", 0, "ratio", "n/a on pairwise");
  r.layer("core.batch32_gcups_1t", 0, "GCUPS", "n/a on pairwise");
  r.layer("core.batch32_cells_per_cycle", 0, "cells/cycle", "n/a on pairwise");
  r.layer("core.batch32_lanes", 0, "lanes", "n/a on pairwise");
  r.layer("core.diag_gcups_1t", cells / secs / 1e9, "GCUPS");
  r.layer("core.diag_us_per_pair", secs / static_cast<double>(pairs.size()) * 1e6,
          "us");
  r.layer("core.widen_frac",
          static_cast<double>(widened) / static_cast<double>(pairs.size()),
          "ratio");
  r.layer("core.mmap_open_ms", 0, "ms", "n/a on pairwise");
  r.layer("core.pack_ms", 0, "ms", "n/a on pairwise");
  r.layer("parallel.busy_frac",
          (m1.pool_busy_seconds - m0.pool_busy_seconds) /
              (static_cast<double>(m1.pool_threads) * loop_wall),
          "ratio", "n/a on pairwise: single pairs run on the executor");
  r.layer("parallel.scaling_eff", 0, "ratio", "n/a on pairwise");
  const double g_plain = sp.cells / plain_wall, g_traced = st.cells / traced_wall;
  r.layer("trace.overhead_frac", g_plain > 0 ? 1.0 - g_traced / g_plain : 0,
          "ratio", "gcups traced vs untraced segments");
  record_inputs(st, r);
}

// The fixed warm-up request: one long related pair, so set-up covers the
// kernel's lazy calibration on every rung of the width ladder and its
// measured time is mostly work rather than thread wake-ups.
Pair warmup_pair(uint64_t seed) {
  Rng rng(seed * 0x9fb21c651e98df25ull + 6);
  Pair p;
  p.q = seq::generate_sequence(rng.next(), kWarmupLen);
  p.r = seq::mutate(p.q, rng.next(), 0.3);
  return p;
}

// Service start plus the warm-up reply; returns its duration in seconds,
// or a negative value when the warm-up request fails.
double start_service(std::unique_ptr<service::AlignService>& svc,
                     obs::TraceSink& sink, const Pair& warmup) {
  const double t0 = now_s();
  svc = std::make_unique<service::AlignService>(shipped_server_options(sink));
  std::binary_semaphore ready(0);
  bool ok = false;
  svc->submit_async(make_request(warmup),
                    [&](core::ErrorOr<service::AlignResponse> resp) {
                      ok = resp.ok();
                      ready.release();
                    });
  ready.acquire();
  return ok ? now_s() - t0 : -1;
}

}  // namespace

double probe_pairwise(const Args& args) {
  obs::TraceSink sink(8192);
  std::unique_ptr<service::AlignService> svc;
  return start_service(svc, sink, warmup_pair(args.seed));
}

void run_pairwise(const Args& args, Report& r) {
  Tracer tracer(args.trace);
  const std::vector<Pair> pairs = make_pairs(args.seed);
  // One submitter per CPU but one: the service's single executor keeps a
  // CPU of its own instead of trading places with a submitter.
  const unsigned threads =
      std::max(2u, std::thread::hardware_concurrency()) - 1;

  std::vector<double> setups;
  if (!args.trace) {
    setups = run_setup_probes(args, {});
    if (setups.empty()) throw std::runtime_error("setup probes failed");
  }
  obs::TraceSink sink(8192);
  std::unique_ptr<service::AlignService> svc;
  if (!(start_service(svc, sink, warmup_pair(args.seed)) > 0))
    throw std::runtime_error("pairwise: warm-up request failed");

  if (args.trace) {
    traced_layers(*svc, pairs, threads, args, tracer, r);
    tracer.write_json(args.out_dir + "/spans-pairwise-seed" +
                      std::to_string(args.seed) + ".json");
    return;
  }

  std::vector<EndCell> gate(pairs.size() / kGateEvery + 1);
  const double t0 = now_s();
  const LoopStats s = closed_loop(*svc, pairs, threads, args.seconds, gate);
  const double wall = now_s() - t0;
  // Read before the gate, so only set-up and the timed phase count.
  const double rss_mb = peak_rss_mb();
  r.attempted = s.n;
  r.failed = s.failed;
  gate_scalar_ref(pairs, gate, r);
  record_inputs(s, r);
  r.input("submitting_threads", threads);

  const Pct p50 = s.lat.percentile_ms(0.5), p99 = s.lat.percentile_ms(0.99);
  if (!p99.valid) r.fail("pairwise: p99 has fewer than 10 samples beyond it");
  r.e2e("gcups", s.cells / wall / 1e9, "GCUPS");
  r.e2e("p50_ms", p50.value, "ms", count_note(p50));
  r.e2e("tail_ms", p99.value, "ms", "p99, " + count_note(p99));
  r.e2e("max_qps", static_cast<double>(s.n - s.failed) / wall, "req/s",
        "closed loop, " + std::to_string(threads) + " submitters");
  r.e2e("setup_s", median(setups), "s",
        std::to_string(setups.size()) + " cold starts");
  r.e2e("peak_rss_mb", rss_mb, "MiB");
  std::printf("metric pairwise p99_ms %.6g ms  # %s\n", p99.value,
              count_note(p99).c_str());
  std::printf("metric pairwise failed_frac %.6g ratio\n",
              static_cast<double>(s.failed) / static_cast<double>(s.n));
}

}  // namespace perfbench
