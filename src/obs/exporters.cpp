#include "obs/exporters.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mapped_db.hpp"
#include "net/json.hpp"
#include "obs/slo.hpp"

namespace swve::obs {

namespace {

using perf::KernelVariant;
using perf::LatencyHistogram;
using perf::MetricsSnapshot;
using perf::PmuSample;

// ------------------------------------------------------------------ samples

/// How a family's series turn into a window (see WindowTable). A Ratio is a
/// gauge everywhere else: its lifetime value, numerator over denominator.
enum class Type { Counter, Gauge, Histogram, Ratio };

const char* type_name(Type t) {
  switch (t) {
    case Type::Counter: return "counter";
    case Type::Gauge:
    case Type::Ratio: return "gauge";
    case Type::Histogram: return "histogram";
  }
  return "untyped";
}

/// A sample value as it prints: an integer, or a double at the 6 or 9
/// significant digits its family has always used.
struct Value {
  uint64_t count = 0;
  double real = 0;
  int digits = 0;  ///< 0 prints `count`; otherwise %.<digits>g of `real`
};
Value n(uint64_t v) { return {v, 0, 0}; }
Value g6(double v) { return {0, v, 6}; }
Value g9(double v) { return {0, v, 9}; }

using Labels = std::vector<std::pair<const char*, std::string>>;

/// One series: labels plus a value, or plus a histogram.
struct Series {
  Labels labels;
  Value value;
  const LatencyHistogram::Snapshot* hist = nullptr;
  double num = 0, den = 0;  ///< a ratio's operands (its value is num / den)
};

/// What a family's emit function reads.
struct Source {
  const MetricsSnapshot& m;
  const SloStatus* slo;
  const BuildInfo& build;
};

/// The series one family emits; a family that emits none renders nothing.
struct Samples {
  std::vector<Series> series;
  void add(Value v, Labels l = {}) {
    series.push_back({std::move(l), v, nullptr});
  }
  void add(const LatencyHistogram::Snapshot& h, Labels l = {}) {
    series.push_back({std::move(l), {}, &h});
  }
  /// A Ratio family's series: num / den, 0 while den is 0.
  void ratio(double num, double den, Labels l = {}) {
    series.push_back(
        {std::move(l), g6(den > 0 ? num / den : 0.0), nullptr, num, den});
  }
};

struct Family {
  const char* name;
  const char* help;
  Type type;
  void (*emit)(const Source&, Samples&);
};

// ------------------------------------------------------ family emit helpers

/// One series per PMU attribution cell that has spans (and, for ratios,
/// cycles); labels are isa, kernel and DP width.
template <class F>
void pmu_cells(const MetricsSnapshot& m, bool need_cycles, F&& f) {
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
      for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
        const PmuSample& c = m.pmu[i][k][w];
        if (c.samples == 0 || (need_cycles && c.cycles == 0)) continue;
        f(c, Labels{{"isa", simd::isa_name(static_cast<simd::Isa>(i))},
                    {"kernel", perf::kernel_variant_name(
                                   static_cast<KernelVariant>(k))},
                    {"width", std::to_string(MetricsSnapshot::width_bits_at(w))}});
      }
}

void pmu_counter(const Source& s, Samples& o, uint64_t PmuSample::*field) {
  pmu_cells(s.m, false,
            [&](const PmuSample& c, Labels l) { o.add(n(c.*field), std::move(l)); });
}

void pmu_ratio(const Source& s, Samples& o, uint64_t PmuSample::*num,
               uint64_t PmuSample::*den) {
  pmu_cells(s.m, true, [&](const PmuSample& c, Labels l) {
    o.ratio(static_cast<double>(c.*num), static_cast<double>(c.*den),
            std::move(l));
  });
}

/// Completions or cells by [ISA][kernel], nonzero targets only.
void targets(Samples& o,
             const std::array<std::array<uint64_t, MetricsSnapshot::kKernelVariants>,
                              MetricsSnapshot::kIsas>& by) {
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
      if (by[i][k] != 0)
        o.add(n(by[i][k]),
              {{"isa", simd::isa_name(static_cast<simd::Isa>(i))},
               {"kernel",
                perf::kernel_variant_name(static_cast<KernelVariant>(k))}});
}

using Shard = MetricsSnapshot::ShardSample;

/// One series per live shard, labeled by shard index.
template <class F>
void shards(const Source& s, Samples& o, F&& value) {
  for (uint32_t i = 0; i < s.m.shard_count; ++i)
    o.add(value(s.m.shards[i]), {{"shard", std::to_string(i)}});
}

// ------------------------------------------------------------ the families
//
// Every exported metric, in exposition order. Each surface (Prometheus,
// text, JSON, /statusz through JSON, and /varz through WindowTable) is a
// walk over this table.

constexpr Family kFamilies[] = {
    {"swve_build_info", "Build identity; value is always 1, facts are labels",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       o.add(n(1), {{"version", s.build.version},
                    {"compiler", s.build.compiler},
                    {"isas", s.build.isas}});
     }},
    {"swve_requests_submitted_total",
     "Requests accepted into the submission queue or run inline",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.submitted)); }},
    {"swve_requests_inline_total",
     "Submitted requests run on the submitting thread (caller-runs)",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.inline_runs)); }},
    {"swve_requests_completed_total",
     "Requests whose future was fulfilled with a result, by scenario",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.pairwise), {{"scenario", "pairwise"}});
       o.add(n(s.m.search), {{"scenario", "search"}});
       o.add(n(s.m.batch), {{"scenario", "batch"}});
     }},
    {"swve_requests_failed_total",
     "Requests that failed their future, by reason", Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.rejected_queue_full), {{"reason", "queue_full"}});
       o.add(n(s.m.deadline_expired), {{"reason", "deadline"}});
       o.add(n(s.m.invalid_request), {{"reason", "invalid"}});
       o.add(n(s.m.aborted), {{"reason", "aborted"}});
     }},
    {"swve_queue_depth", "Requests waiting in the submission queue",
     Type::Gauge, [](const Source& s, Samples& o) { o.add(n(s.m.queue_depth)); }},
    {"swve_kernel_cells_total", "DP cells computed across completed requests",
     Type::Counter, [](const Source& s, Samples& o) { o.add(n(s.m.cells)); }},
    {"swve_kernel_seconds_total", "Summed kernel execution time",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(g9(s.m.kernel_seconds)); }},
    {"swve_gcups_aggregate",
     "Lifetime throughput in giga cell updates per second", Type::Ratio,
     [](const Source& s, Samples& o) {
       o.ratio(static_cast<double>(s.m.cells), s.m.kernel_seconds * 1e9);
     }},
    {"swve_kernel_target_requests_total",
     "Completed requests by dispatch target", Type::Counter,
     [](const Source& s, Samples& o) { targets(o, s.m.target_requests); }},
    {"swve_kernel_target_cells_total", "DP cells computed by dispatch target",
     Type::Counter,
     [](const Source& s, Samples& o) { targets(o, s.m.target_cells); }},
    {"swve_batch_cells8_total",
     "8-bit batch-kernel DP cells, padding included", Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.batch_cells8)); }},
    {"swve_batch_useful_cells8_total",
     "8-bit batch-kernel DP cells on real residues", Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.batch_useful_cells8)); }},
    {"swve_batch_packing_efficiency",
     "Useful fraction of batch-kernel work (useful/padded cells)",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       o.ratio(static_cast<double>(s.m.batch_useful_cells8),
               static_cast<double>(s.m.batch_cells8));
     }},
    {"swve_pool_threads", "Worker threads in the owned pool", Type::Gauge,
     [](const Source& s, Samples& o) { o.add(n(s.m.pool_threads)); }},
    {"swve_pool_jobs_total", "Jobs executed by the pool", Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.pool_jobs)); }},
    {"swve_pool_busy_seconds_total", "Summed busy time across pool workers",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(g9(s.m.pool_busy_seconds)); }},
    {"swve_pool_utilization",
     "Busy fraction of the pool over the service lifetime", Type::Ratio,
     [](const Source& s, Samples& o) {
       o.ratio(s.m.pool_busy_seconds,
               static_cast<double>(s.m.pool_threads) * s.m.uptime_seconds);
     }},
    {"swve_trace_events_total", "Trace events recorded into the sink rings",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.trace_recorded)); }},
    {"swve_trace_dropped_total", "Trace events lost, by cause", Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.trace_dropped_wrap), {{"cause", "wrap"}});
       o.add(n(s.m.trace_dropped_torn), {{"cause", "torn"}});
       o.add(n(s.m.trace_dropped_overflow), {{"cause", "overflow"}});
     }},
    {"swve_pmu_unavailable",
     "1 when hardware counters were requested but denied/absent "
     "(software-clock fallback active)",
     Type::Gauge,
     [](const Source& s, Samples& o) { o.add(n(s.m.pmu_unavailable)); }},
    // PMU cells: one family per counter, ISA x kernel x width in labels;
    // derived ratios print as gauges so dashboards need no PromQL
    // arithmetic.
    {"swve_pmu_spans_total", "Kernel spans aggregated per cell", Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::samples);
     }},
    {"swve_pmu_wall_ns_total", "Summed kernel-span wall time", Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::wall_ns);
     }},
    {"swve_pmu_cycles_total", "CPU cycles in kernel spans", Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::cycles);
     }},
    {"swve_pmu_instructions_total", "Instructions retired in kernel spans",
     Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::instructions);
     }},
    {"swve_pmu_llc_misses_total", "Last-level-cache misses in kernel spans",
     Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::llc_misses);
     }},
    {"swve_pmu_branch_misses_total", "Branch mispredicts in kernel spans",
     Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_counter(s, o, &PmuSample::branch_misses);
     }},
    {"swve_pmu_stall_cycles_total",
     "Pipeline-stalled cycles in kernel spans, by stall side", Type::Counter,
     [](const Source& s, Samples& o) {
       pmu_cells(s.m, false, [&](const PmuSample& c, Labels l) {
         Labels backend = l;
         l.emplace_back("side", "frontend");
         backend.emplace_back("side", "backend");
         o.add(n(c.stall_frontend), std::move(l));
         o.add(n(c.stall_backend), std::move(backend));
       });
     }},
    {"swve_pmu_ipc", "Instructions per cycle", Type::Ratio,
     [](const Source& s, Samples& o) {
       pmu_ratio(s, o, &PmuSample::instructions, &PmuSample::cycles);
     }},
    {"swve_pmu_backend_stall_fraction", "Backend-stalled fraction of cycles",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       pmu_ratio(s, o, &PmuSample::stall_backend, &PmuSample::cycles);
     }},
    {"swve_pmu_frontend_stall_fraction", "Frontend-stalled fraction of cycles",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       pmu_ratio(s, o, &PmuSample::stall_frontend, &PmuSample::cycles);
     }},
    {"swve_pmu_effective_ghz",
     "Cycles per wall nanosecond; a depressed AVX-512 value flags license "
     "throttling",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       pmu_ratio(s, o, &PmuSample::cycles, &PmuSample::wall_ns);
     }},
    {"swve_pmu_avx512_frequency_ratio",
     "AVX-512 effective GHz over the fastest non-AVX-512 cell; < 1 suggests "
     "license throttling",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (const double r = s.m.avx512_frequency_ratio(); r > 0) o.add(g6(r));
     }},
    {"swve_sampler_probe_ghz",
     "Effective clock of the telemetry sampler's spin-kernel probe (sampler "
     "ticks only)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.m.sampler_probe_ghz > 0) o.add(g6(s.m.sampler_probe_ghz));
     }},
    {"swve_cpufreq_ghz",
     "Mean kernel-reported CPU clock at the telemetry sampler's tick (sampler "
     "ticks with cpufreq only)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.m.cpufreq_ghz > 0) o.add(g6(s.m.cpufreq_ghz));
     }},
    {"swve_slow_requests_total",
     "Requests the watchdog caught running past the latency SLO",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.slow_requests)); }},
    {"swve_db_info",
     "Database provenance: constant 1 labeled by source (built = packed "
     "in-process, mmap = file-backed artifact)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       o.add(n(1), {{"source", core::db_source_name(static_cast<core::DbSource>(
                                   s.m.db_source))}});
     }},
    {"swve_db_map_bytes",
     "Mapped swve db artifact size; 0 for an in-process-built database",
     Type::Gauge,
     [](const Source& s, Samples& o) { o.add(n(s.m.db_map_bytes)); }},
    {"swve_db_resident_bytes",
     "Bytes of the artifact mapping currently resident in RAM", Type::Gauge,
     [](const Source& s, Samples& o) { o.add(n(s.m.db_resident_bytes)); }},
    {"swve_db_load_seconds",
     "Database startup time: artifact open (or in-process pack) to "
     "search-ready",
     Type::Gauge,
     [](const Source& s, Samples& o) { o.add(g6(s.m.db_load_seconds)); }},
    {"swve_shard_info",
     "Sharded-search layout: constant 1 per shard, labeled by pinned NUMA "
     "node, thread count, and whether the shard's columns were mbind-placed",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       for (uint32_t i = 0; i < s.m.shard_count; ++i) {
         const Shard& sh = s.m.shards[i];
         o.add(n(1), {{"shard", std::to_string(i)},
                      {"node", std::to_string(sh.node)},
                      {"threads", std::to_string(sh.threads)},
                      {"bound", std::to_string(sh.bound)}});
       }
     }},
    {"swve_shard_sequences", "Database sequences each shard owns",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.sequences); });
     }},
    {"swve_shard_searches_total", "Batch searches executed, per shard",
     Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.searches); });
     }},
    {"swve_shard_batches_total", "Batch-kernel batches scanned, per shard",
     Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.batches); });
     }},
    {"swve_shard_cells_total",
     "DP cells computed per shard (8-bit kernel + rescore)", Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.cells); });
     }},
    {"swve_shard_useful_cells_total",
     "DP cells per shard that landed on real residues", Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.useful_cells); });
     }},
    {"swve_shard_busy_seconds_total",
     "Worker wall time spent inside each shard's scans", Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return g6(sh.busy_seconds); });
     }},
    {"swve_shard_gcups",
     "Per-shard throughput over its own busy time — unequal values are the "
     "live shard-imbalance signal",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       for (uint32_t i = 0; i < s.m.shard_count; ++i)
         o.ratio(static_cast<double>(s.m.shards[i].cells),
                 s.m.shards[i].busy_seconds * 1e9,
                 {{"shard", std::to_string(i)}});
     }},
    {"swve_shard_queue_depth", "Jobs outstanding on each shard's pinned pool",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.queue_depth); });
     }},
    {"swve_shard_llc_misses_total",
     "Last-level-cache misses over shard scans (PMU deltas; 0 where "
     "perf_event is unavailable). Remote-heavy placement shows up as one "
     "shard's misses outgrowing its peers'",
     Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.llc_misses); });
     }},
    {"swve_shard_cycles_total",
     "CPU cycles over shard scans (PMU deltas; 0 where perf_event is "
     "unavailable)",
     Type::Counter,
     [](const Source& s, Samples& o) {
       shards(s, o, [](const Shard& sh) { return n(sh.cycles); });
     }},
    {"swve_result_cache_lookups_total",
     "Serialized-response cache lookups at the serving front door, by result",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.result_cache_hits), {{"result", "hit"}});
       o.add(n(s.m.result_cache_misses), {{"result", "miss"}});
     }},
    {"swve_result_cache_evictions_total",
     "Serialized-response LRU entries displaced at capacity", Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.result_cache_evictions));
     }},
    {"swve_result_cache_entries",
     "Serialized-response LRU entries currently cached", Type::Gauge,
     [](const Source& s, Samples& o) { o.add(n(s.m.result_cache_entries)); }},
    {"swve_coalesced_requests_total",
     "Requests joined onto an identical in-flight execution (singleflight)",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.coalesced)); }},
    {"swve_dedup_ratio",
     "Fraction of served requests answered without a fresh execution (cache "
     "hit or coalesced)",
     Type::Ratio,
     [](const Source& s, Samples& o) {
       const uint64_t saved = s.m.result_cache_hits + s.m.coalesced;
       o.ratio(static_cast<double>(saved),
               static_cast<double>(saved + s.m.result_cache_misses));
     }},
    {"swve_server_connections_total",
     "TCP connections accepted by the serving front door", Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.server_connections)); }},
    {"swve_server_active_connections", "TCP connections currently open",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.server_active_connections));
     }},
    {"swve_server_frames_total", "Protocol frames moved, by direction",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.server_frames_rx), {{"direction", "rx"}});
       o.add(n(s.m.server_frames_tx), {{"direction", "tx"}});
     }},
    {"swve_server_bytes_total", "Protocol payload bytes moved, by direction",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.server_bytes_rx), {{"direction", "rx"}});
       o.add(n(s.m.server_bytes_tx), {{"direction", "tx"}});
     }},
    {"swve_server_protocol_errors_total",
     "Frames rejected before reaching the service (bad magic, oversized, "
     "unknown type, undecodable payload)",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.server_protocol_errors));
     }},
    {"swve_server_http_scrapes_total", "HTTP GET /metrics requests answered",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.server_http_scrapes)); }},
    {"swve_tier_requests_total", "Completed requests by QoS tier and scenario",
     Type::Counter,
     [](const Source& s, Samples& o) {
       for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
         for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
           if (s.m.tier_requests[t][sc] != 0)
             o.add(n(s.m.tier_requests[t][sc]),
                   {{"tier", perf::qos_tier_label(t)},
                    {"scenario", perf::scenario_label(sc)}});
     }},
    {"swve_tier_latency_seconds",
     "End-to-end request latency (queue wait + execution) by QoS tier",
     Type::Histogram,
     [](const Source& s, Samples& o) {
       for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
         if (s.m.tier_latency[t].count != 0)
           o.add(s.m.tier_latency[t], {{"tier", perf::qos_tier_label(t)}});
     }},
    {"swve_log_records_total", "Structured log lines written to the sinks",
     Type::Counter,
     [](const Source& s, Samples& o) { o.add(n(s.m.log_records)); }},
    {"swve_log_dropped_total", "Structured log records lost, by cause",
     Type::Counter,
     [](const Source& s, Samples& o) {
       o.add(n(s.m.log_dropped_overflow), {{"cause", "overflow"}});
       o.add(n(s.m.log_dropped_threads), {{"cause", "threads"}});
       o.add(n(s.m.log_suppressed), {{"cause", "rate_limited"}});
     }},
    {"swve_uptime_seconds", "Service lifetime", Type::Gauge,
     [](const Source& s, Samples& o) { o.add(g6(s.m.uptime_seconds)); }},
    {"swve_process_resident_bytes", "Resident set size of the process (VmRSS)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.m.process_resident_bytes != 0)
         o.add(n(s.m.process_resident_bytes));
     }},
    {"swve_process_peak_resident_bytes",
     "Peak resident set size of the process (VmHWM)", Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.m.process_peak_resident_bytes != 0)
         o.add(n(s.m.process_peak_resident_bytes));
     }},
    {"swve_query_length_requests_total",
     "Submitted queries by power-of-two length bin (min_residues = inclusive "
     "lower bound)",
     Type::Counter,
     [](const Source& s, Samples& o) {
       for (int b = 0; b < MetricsSnapshot::kLengthBins; ++b)
         if (s.m.query_length_bins[b] != 0)
           o.add(n(s.m.query_length_bins[b]),
                 {{"min_residues",
                   std::to_string(MetricsSnapshot::length_bin_lower(b))}});
     }},
    {"swve_slo_state",
     "Burn-rate alert state after hysteresis (0=ok, 1=warning, 2=firing)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.slo) o.add(n(static_cast<uint64_t>(s.slo->state)));
     }},
    {"swve_slo_instant_state",
     "Burn-rate alert state of the latest evaluation, before hysteresis "
     "(0=ok, 1=warning, 2=firing)",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.slo) o.add(n(static_cast<uint64_t>(s.slo->instant)));
     }},
    {"swve_slo_burn_rate",
     "Error-budget burn rate by objective and window; both windows of an "
     "objective past the threshold raise the alert",
     Type::Gauge,
     [](const Source& s, Samples& o) {
       if (s.slo == nullptr) return;
       o.add(g6(s.slo->latency_fast_burn),
             {{"objective", "latency"}, {"window", "fast"}});
       o.add(g6(s.slo->latency_slow_burn),
             {{"objective", "latency"}, {"window", "slow"}});
       o.add(g6(s.slo->availability_fast_burn),
             {{"objective", "availability"}, {"window", "fast"}});
       o.add(g6(s.slo->availability_slow_burn),
             {{"objective", "availability"}, {"window", "slow"}});
     }},
    {"swve_slo_transitions_total",
     "Alert-state changes over the service lifetime", Type::Counter,
     [](const Source& s, Samples& o) {
       if (s.slo) o.add(n(s.slo->transitions));
     }},
    {"swve_slo_evaluations_total", "Burn-rate evaluations run", Type::Counter,
     [](const Source& s, Samples& o) {
       if (s.slo) o.add(n(s.slo->evaluations));
     }},
    {"swve_queue_wait_seconds", "Submit-to-execution-start wait",
     Type::Histogram,
     [](const Source& s, Samples& o) { o.add(s.m.queue_wait); }},
    {"swve_kernel_time_seconds", "Per-request execution time",
     Type::Histogram,
     [](const Source& s, Samples& o) { o.add(s.m.kernel_time); }},
};

// ----------------------------------------------------------------- writers

void append_value(std::string& out, const Value& v) {
  char buf[32];
  if (v.digits == 0) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v.count).ptr);
  } else {
    const int len = std::snprintf(buf, sizeof buf, "%.*g", v.digits, v.real);
    out.append(buf, static_cast<size_t>(len));
  }
}

/// Prometheus label set `{k="v",...}`; `le`, when given, is appended last.
/// Writes nothing for an empty set.
void prom_labels(std::string& out, const Labels& labels,
                 const std::string* le = nullptr) {
  if (labels.empty() && le == nullptr) return;
  char sep = '{';
  for (const auto& [key, value] : labels) {
    out += sep;
    out += key;
    out += "=\"";
    out += prom_escape_label(value);
    out += '"';
    sep = ',';
  }
  if (le != nullptr) {
    out += sep;
    out += "le=\"";
    out += *le;
    out += '"';
  }
  out += '}';
}

void prom_line(std::string& out, const char* name, const char* suffix,
               const Labels& labels, const Value& v,
               const std::string* le = nullptr) {
  out += name;
  out += suffix;
  prom_labels(out, labels, le);
  out += ' ';
  append_value(out, v);
  out += '\n';
}

/// Exposition 0.0.4 sample lines for one family; `headers` adds HELP/TYPE
/// (the text format is the same lines without them).
void write_prometheus(std::string& out, const Family& f,
                      const std::vector<Series>& series, bool headers) {
  if (headers) {
    out += "# HELP ";
    out += f.name;
    out += ' ';
    out += f.help;
    out += "\n# TYPE ";
    out += f.name;
    out += ' ';
    out += type_name(f.type);
    out += '\n';
  }
  for (const Series& s : series) {
    if (s.hist == nullptr) {
      prom_line(out, f.name, "", s.labels, s.value);
      continue;
    }
    const LatencyHistogram::Snapshot& h = *s.hist;
    uint64_t cum = 0;
    std::string le;
    for (int i = 0; i < LatencyHistogram::kBuckets - 1; ++i) {
      cum += h.buckets[i];
      le.clear();
      append_value(le, g6(LatencyHistogram::bucket_upper_seconds(i)));
      prom_line(out, f.name, "_bucket", s.labels, n(cum), &le);
    }
    le = "+Inf";
    prom_line(out, f.name, "_bucket", s.labels, n(h.count), &le);
    prom_line(out, f.name, "_sum", s.labels,
              g9(h.mean_s * static_cast<double>(h.count)));
    prom_line(out, f.name, "_count", s.labels, n(h.count));
  }
}

void json_number(std::string& out, const Value& v) {
  if (v.digits != 0 && !std::isfinite(v.real))
    out += "null";
  else
    append_value(out, v);
}

/// `{label: "...", ..., value or histogram fields}` for one series; the
/// braces are omitted for an unlabeled plain value (a bare number).
void json_series(std::string& out, const Series& s) {
  if (s.hist == nullptr && s.labels.empty()) {
    json_number(out, s.value);
    return;
  }
  out += '{';
  for (const auto& [key, value] : s.labels) {
    net::json_escape(out, key);
    out += ':';
    net::json_escape(out, value);
    out += ',';
  }
  if (s.hist == nullptr) {
    out += "\"value\":";
    json_number(out, s.value);
  } else {
    const LatencyHistogram::Snapshot& h = *s.hist;
    const std::pair<const char*, Value> fields[] = {
        {"count", n(h.count)},
        {"sum", g9(h.mean_s * static_cast<double>(h.count))},
        {"p50_s", g9(h.p50_s)},
        {"p90_s", g9(h.p90_s)},
        {"p99_s", g9(h.p99_s)},
        {"max_s", g9(h.max_s)}};
    for (const auto& [key, value] : fields) {
      net::json_escape(out, key);
      out += ':';
      json_number(out, value);
      out += ',';
    }
    out += "\"buckets\":[";
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (i) out += ',';
      append_value(out, n(h.buckets[i]));
    }
    out += ']';
  }
  out += '}';
}

/// `"<name without swve_>":` followed by the single unlabeled series, or
/// an array of labeled ones.
void write_json(std::string& out, const Family& f,
                const std::vector<Series>& series) {
  if (out.size() > 1) out += ',';
  net::json_escape(out, std::string_view(f.name).substr(5));  // drop "swve_"
  out += ':';
  if (series.size() == 1 && series[0].labels.empty()) {
    json_series(out, series[0]);
    return;
  }
  out += '[';
  for (size_t i = 0; i < series.size(); ++i) {
    if (i) out += ',';
    json_series(out, series[i]);
  }
  out += ']';
}

// ----------------------------------------------------------------- windows

static_assert(std::size(kFamilies) <= FamilySet{}.size());

/// Position of a family in the table (a compile error for a name it lacks).
constexpr uint16_t family_index(std::string_view name) {
  for (size_t i = 0; i < std::size(kFamilies); ++i)
    if (kFamilies[i].name == name) return static_cast<uint16_t>(i);
  throw "no such family";
}

/// Parts of a histogram series in a window: bucket i is part i, then the
/// sample sum and max. Any other series has the one part 0.
constexpr uint8_t kSumPart = LatencyHistogram::kBuckets;
constexpr uint8_t kMaxPart = kSumPart + 1;

bool same_labels(const Labels& a, const Labels& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return std::string_view(x.first) == y.first &&
                             x.second == y.second;
                    });
}

/// The series of `in` labeled `l`: usually the one at the same position.
const Series* find_series(const std::vector<Series>& in, const Labels& l,
                          size_t hint) {
  if (hint < in.size() && same_labels(in[hint].labels, l)) return &in[hint];
  for (const Series& s : in)
    if (same_labels(s.labels, l)) return &s;
  return nullptr;
}

double number(const Value& v) {
  return v.digits == 0 ? static_cast<double>(v.count) : v.real;
}

}  // namespace

struct WindowTable::Impl {
  struct Key {
    uint16_t family;
    uint8_t part;
    uint8_t digits;  ///< how the value prints (Value::digits); 0 = integer
    Labels labels;
  };
  /// One decoded value of a window.
  struct Sample {
    const Key* key;
    double value;
  };
  std::vector<Key> keys;
  std::unordered_map<std::string, uint32_t> ids;  ///< encoded Key -> index
  std::string scratch;

  static void put_varint(std::vector<uint8_t>& out, uint64_t v) {
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<uint8_t>(v | 0x80));
    out.push_back(static_cast<uint8_t>(v));
  }

  /// Encode one value of the series `labels` of `family` (part `part`).
  void add(std::vector<uint8_t>& out, uint16_t family, uint8_t part,
           uint8_t digits, const Labels& labels, double value) {
    scratch.assign({static_cast<char>(family & 0xff),
                    static_cast<char>(family >> 8), static_cast<char>(part)});
    for (const auto& [k, v] : labels) {
      scratch += k;
      scratch += '\0';
      scratch += v;
      scratch += '\0';
    }
    const auto [it, fresh] =
        ids.try_emplace(scratch, static_cast<uint32_t>(keys.size()));
    if (fresh) keys.push_back({family, part, digits, labels});
    put_varint(out, it->second);
    if (digits == 0) {
      put_varint(out, static_cast<uint64_t>(value));
    } else {
      uint8_t bytes[sizeof value];
      std::memcpy(bytes, &value, sizeof value);
      out.insert(out.end(), bytes, bytes + sizeof value);
    }
  }

  std::vector<Sample> decode(std::span<const uint8_t> in) const {
    std::vector<Sample> out;
    size_t pos = 0;
    const auto varint = [&] {
      uint64_t v = 0;
      for (int shift = 0; pos < in.size(); shift += 7) {
        const uint8_t b = in[pos++];
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (b < 0x80) break;
      }
      return v;
    };
    while (pos < in.size()) {
      const Key& k = keys[varint()];
      double v = 0;
      if (k.digits == 0) {
        v = static_cast<double>(varint());
      } else {
        std::memcpy(&v, in.data() + pos, sizeof v);
        pos += sizeof v;
      }
      out.push_back({&k, v});
    }
    return out;
  }
};

WindowTable::WindowTable() : impl_(std::make_unique<Impl>()) {}
WindowTable::~WindowTable() = default;

void WindowTable::window(const MetricsSnapshot& prev,
                         const MetricsSnapshot& now,
                         std::vector<uint8_t>& out) {
  const BuildInfo build = build_info();
  const Source was{prev, nullptr, build}, is{now, nullptr, build};
  for (uint16_t f = 0; f < std::size(kFamilies); ++f) {
    const Family& fam = kFamilies[f];
    Samples cur, old;
    fam.emit(is, cur);
    if (cur.series.empty()) continue;
    if (fam.type != Type::Gauge) fam.emit(was, old);
    for (size_t i = 0; i < cur.series.size(); ++i) {
      const Series& s = cur.series[i];
      const Series* p = find_series(old.series, s.labels, i);
      const Series zero{{}, {0, 0, s.value.digits}};
      const Series& o = p != nullptr ? *p : zero;
      switch (fam.type) {
        case Type::Gauge:
          impl_->add(out, f, 0, s.value.digits, s.labels, number(s.value));
          break;
        case Type::Counter:
          impl_->add(out, f, 0, s.value.digits, s.labels,
                     s.value.digits == 0
                         ? static_cast<double>(
                               perf::counter_delta(s.value.count, o.value.count))
                         : std::max(0.0, s.value.real - o.value.real));
          break;
        case Type::Ratio: {
          const double den = s.den - o.den;
          impl_->add(out, f, 0, s.value.digits, s.labels,
                     den > 0 ? std::max(0.0, s.num - o.num) / den : 0.0);
          break;
        }
        case Type::Histogram: {
          const LatencyHistogram::Snapshot d = LatencyHistogram::Snapshot::subtract(
              *s.hist, o.hist != nullptr ? *o.hist : LatencyHistogram::Snapshot{});
          impl_->add(out, f, kSumPart, 9, s.labels,
                     d.mean_s * static_cast<double>(d.count));
          impl_->add(out, f, kMaxPart, 9, s.labels, d.max_s);
          for (uint8_t b = 0; b < LatencyHistogram::kBuckets; ++b)
            if (d.buckets[b] != 0)
              impl_->add(out, f, b, 0, s.labels,
                         static_cast<double>(d.buckets[b]));
          break;
        }
      }
    }
  }
}

void WindowTable::append_json(std::string& out, std::span<const uint8_t> window,
                              const FamilySet& families) const {
  const std::vector<Impl::Sample> samples = impl_->decode(window);
  for (size_t i = 0, end = 0; i < samples.size(); i = end) {
    const uint16_t f = samples[i].key->family;
    for (end = i; end < samples.size() && samples[end].key->family == f;) ++end;
    if (!families.test(f)) continue;
    std::vector<Series> series;
    std::vector<LatencyHistogram::Snapshot> hists;
    hists.reserve(end - i);  // Series::hist points into it
    for (size_t j = i; j < end; ++j) {
      const Impl::Key& k = *samples[j].key;
      if (kFamilies[f].type != Type::Histogram) {
        const double v = samples[j].value;
        series.push_back({k.labels, k.digits == 0
                                        ? n(static_cast<uint64_t>(v))
                                        : Value{0, v, k.digits}});
        continue;
      }
      // A histogram series: its sum, its max, then its nonempty buckets.
      const double sum = samples[j].value;
      const double max = samples[++j].value;
      std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
      for (; j + 1 < end && samples[j + 1].key->part < kSumPart; ++j)
        buckets[samples[j + 1].key->part] =
            static_cast<uint64_t>(samples[j + 1].value);
      hists.push_back(LatencyHistogram::Snapshot::of_buckets(buckets, sum, max));
      series.push_back({k.labels, {}, &hists.back()});
    }
    write_json(out, kFamilies[f], series);
  }
}

SloWindow WindowTable::slo_window(std::span<const uint8_t> window) const {
  static constexpr uint16_t kLatency = family_index("swve_tier_latency_seconds");
  static constexpr uint16_t kFailed = family_index("swve_requests_failed_total");
  static constexpr uint16_t kCompleted =
      family_index("swve_requests_completed_total");
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  double sum = 0, max = 0;
  SloWindow w;
  for (const Impl::Sample& s : impl_->decode(window)) {
    const auto count = static_cast<uint64_t>(s.value);
    if (s.key->family == kFailed) {
      w.failed += count;
    } else if (s.key->family == kCompleted) {
      w.completed += count;
    } else if (s.key->family == kLatency) {
      if (s.key->part == kSumPart)
        sum += s.value;
      else if (s.key->part == kMaxPart)
        max = std::max(max, s.value);
      else
        buckets[s.key->part] += count;
    }
  }
  w.latency = LatencyHistogram::Snapshot::of_buckets(buckets, sum, max);
  return w;
}

std::optional<FamilySet> parse_family_keys(std::string_view list,
                                           std::string* bad) {
  FamilySet set;
  for (size_t pos = 0; pos <= list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view key = list.substr(pos, comma - pos);
    pos = comma + 1;
    while (!key.empty() && key.front() == ' ') key.remove_prefix(1);
    while (!key.empty() && key.back() == ' ') key.remove_suffix(1);
    if (key.empty()) continue;
    const auto* f = std::find_if(
        std::begin(kFamilies), std::end(kFamilies), [&](const Family& fam) {
          return std::string_view(fam.name).substr(5) == key;  // drop "swve_"
        });
    if (f == std::end(kFamilies)) {
      if (bad != nullptr) *bad = std::string(key);
      return std::nullopt;
    }
    set.set(static_cast<size_t>(f - std::begin(kFamilies)));
  }
  if (set.none()) set.set();
  return set;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

BuildInfo build_info() noexcept {
  BuildInfo b;
#ifdef SWVE_VERSION
  b.version = SWVE_VERSION;
#else
  b.version = "1.0.0";
#endif
#ifdef __VERSION__
  b.compiler = __VERSION__;
#else
  b.compiler = "unknown";
#endif
  b.isas =
      "scalar"
#ifdef SWVE_HAVE_AVX2_BUILD
      "+avx2"
#endif
#ifdef SWVE_HAVE_AVX512_BUILD
      "+avx512"
#endif
      ;
  return b;
}

std::optional<MetricsFormat> metrics_format_from_string(const std::string& s) {
  if (s == "text") return MetricsFormat::Text;
  if (s == "prom" || s == "prometheus") return MetricsFormat::Prometheus;
  if (s == "json") return MetricsFormat::Json;
  return std::nullopt;
}

std::string render_metrics(const MetricsSnapshot& snapshot,
                           MetricsFormat format, const SloStatus* slo,
                           const BuildInfo& build) {
  const Source src{snapshot, slo, build};
  std::string out;
  out.reserve(16384);
  if (format == MetricsFormat::Json) out += '{';
  for (const Family& f : kFamilies) {
    Samples samples;
    f.emit(src, samples);
    if (samples.series.empty()) continue;
    if (format == MetricsFormat::Json)
      write_json(out, f, samples.series);
    else
      write_prometheus(out, f, samples.series,
                       format == MetricsFormat::Prometheus);
  }
  if (format == MetricsFormat::Json) out += "}\n";
  return out;
}

}  // namespace swve::obs
