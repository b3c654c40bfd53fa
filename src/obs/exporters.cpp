#include "obs/exporters.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "core/mapped_db.hpp"

namespace swve::obs {

namespace {

using perf::KernelVariant;
using perf::LatencyHistogram;
using perf::MetricsSnapshot;

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

// ---------------------------------------------------------------- Prometheus

void prom_header(std::string& out, const char* name, const char* help,
                 const char* type) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " ";
  out += type;
  out += "\n";
}

/// One histogram series. `labels` is a prefix spliced before the `le`
/// label (e.g. "tier=\"interactive\","), empty for an unlabeled family;
/// the caller emits prom_header once per family, not per series.
void prom_histogram_series(std::string& out, const char* name,
                           const char* labels,
                           const LatencyHistogram::Snapshot& h) {
  uint64_t cum = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets - 1; ++i) {
    cum += h.buckets[i];
    appendf(out, "%s_bucket{%sle=\"%g\"} %" PRIu64 "\n", name, labels,
            LatencyHistogram::bucket_upper_seconds(i), cum);
  }
  appendf(out, "%s_bucket{%sle=\"+Inf\"} %" PRIu64 "\n", name, labels,
          h.count);
  if (labels[0] == '\0') {
    appendf(out, "%s_sum %.9g\n", name,
            h.mean_s * static_cast<double>(h.count));
    appendf(out, "%s_count %" PRIu64 "\n", name, h.count);
  } else {
    char trimmed[64];  // the prefix without its trailing comma
    std::snprintf(trimmed, sizeof trimmed, "%s", labels);
    if (const size_t n = std::strlen(trimmed); n > 0 && trimmed[n - 1] == ',')
      trimmed[n - 1] = '\0';
    appendf(out, "%s_sum{%s} %.9g\n", name, trimmed,
            h.mean_s * static_cast<double>(h.count));
    appendf(out, "%s_count{%s} %" PRIu64 "\n", name, trimmed, h.count);
  }
}

void prom_histogram(std::string& out, const char* name, const char* help,
                    const LatencyHistogram::Snapshot& h) {
  prom_header(out, name, help, "histogram");
  prom_histogram_series(out, name, "", h);
}

/// JSON string-body escape for the same runtime strings (the exporters
/// build JSON by hand; a quote in __VERSION__ must not break the object).
std::string json_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          appendf(out, "\\u%04x", static_cast<unsigned>(c) & 0xff);
        else
          out += c;
    }
  }
  return out;
}

}  // namespace

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
#ifdef SWVE_HAVE_SSE41_BUILD
      "+sse41"
#endif
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
                           MetricsFormat format, const SloStatus* slo) {
  switch (format) {
    case MetricsFormat::Text: return snapshot.to_string();
    case MetricsFormat::Prometheus:
      return to_prometheus(snapshot, build_info(), slo);
    case MetricsFormat::Json: return to_json(snapshot, slo);
  }
  return snapshot.to_string();
}

std::string to_prometheus(const MetricsSnapshot& s) {
  return to_prometheus(s, build_info(), nullptr);
}

std::string to_prometheus(const MetricsSnapshot& s, const BuildInfo& b,
                          const SloStatus* slo) {
  std::string out;
  out.reserve(4096);

  prom_header(out, "swve_build_info",
              "Build identity; value is always 1, facts are labels", "gauge");
  appendf(out,
          "swve_build_info{version=\"%s\",compiler=\"%s\",isas=\"%s\"} 1\n",
          prom_escape_label(b.version).c_str(),
          prom_escape_label(b.compiler).c_str(),
          prom_escape_label(b.isas).c_str());

  prom_header(out, "swve_requests_submitted_total",
              "Requests accepted into the submission queue or run inline",
              "counter");
  appendf(out, "swve_requests_submitted_total %" PRIu64 "\n", s.submitted);

  prom_header(out, "swve_requests_inline_total",
              "Submitted requests run on the submitting thread (caller-runs)",
              "counter");
  appendf(out, "swve_requests_inline_total %" PRIu64 "\n", s.inline_runs);

  prom_header(out, "swve_requests_completed_total",
              "Requests whose future was fulfilled with a result, by scenario",
              "counter");
  appendf(out, "swve_requests_completed_total{scenario=\"pairwise\"} %" PRIu64 "\n",
          s.pairwise);
  appendf(out, "swve_requests_completed_total{scenario=\"search\"} %" PRIu64 "\n",
          s.search);
  appendf(out, "swve_requests_completed_total{scenario=\"batch\"} %" PRIu64 "\n",
          s.batch);

  prom_header(out, "swve_requests_failed_total",
              "Requests that failed their future, by reason", "counter");
  appendf(out, "swve_requests_failed_total{reason=\"queue_full\"} %" PRIu64 "\n",
          s.rejected_queue_full);
  appendf(out, "swve_requests_failed_total{reason=\"deadline\"} %" PRIu64 "\n",
          s.deadline_expired);
  appendf(out, "swve_requests_failed_total{reason=\"invalid\"} %" PRIu64 "\n",
          s.invalid_request);
  appendf(out, "swve_requests_failed_total{reason=\"aborted\"} %" PRIu64 "\n",
          s.aborted);

  prom_header(out, "swve_kernel_cells_total",
              "DP cells computed across completed requests", "counter");
  appendf(out, "swve_kernel_cells_total %" PRIu64 "\n", s.cells);
  prom_header(out, "swve_kernel_seconds_total",
              "Summed kernel execution time", "counter");
  appendf(out, "swve_kernel_seconds_total %.9g\n", s.kernel_seconds);

  prom_header(out, "swve_gcups_aggregate",
              "Lifetime throughput in giga cell updates per second", "gauge");
  appendf(out, "swve_gcups_aggregate %.6g\n", s.aggregate_gcups());
  prom_header(out, "swve_gcups_window",
              "Throughput over the trailing window", "gauge");
  appendf(out, "swve_gcups_window{window_s=\"%d\"} %.6g\n",
          MetricsSnapshot::kWindowSeconds, s.window_gcups());

  prom_header(out, "swve_kernel_target_requests_total",
              "Completed requests by dispatch target", "counter");
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
      if (s.target_requests[i][k] != 0)
        appendf(out,
                "swve_kernel_target_requests_total{isa=\"%s\",kernel=\"%s\"} "
                "%" PRIu64 "\n",
                simd::isa_name(static_cast<simd::Isa>(i)),
                perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                s.target_requests[i][k]);
  prom_header(out, "swve_kernel_target_cells_total",
              "DP cells computed by dispatch target", "counter");
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
      if (s.target_cells[i][k] != 0)
        appendf(out,
                "swve_kernel_target_cells_total{isa=\"%s\",kernel=\"%s\"} "
                "%" PRIu64 "\n",
                simd::isa_name(static_cast<simd::Isa>(i)),
                perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                s.target_cells[i][k]);

  prom_header(out, "swve_batch_cells8_total",
              "8-bit batch-kernel DP cells, padding included", "counter");
  appendf(out, "swve_batch_cells8_total %" PRIu64 "\n", s.batch_cells8);
  prom_header(out, "swve_batch_useful_cells8_total",
              "8-bit batch-kernel DP cells on real residues", "counter");
  appendf(out, "swve_batch_useful_cells8_total %" PRIu64 "\n",
          s.batch_useful_cells8);
  prom_header(out, "swve_batch_packing_efficiency",
              "Useful fraction of batch-kernel work (useful/padded cells)",
              "gauge");
  appendf(out, "swve_batch_packing_efficiency %.6g\n",
          s.batch_packing_efficiency());

  prom_header(out, "swve_query_cache_lookups_total",
              "Prepared-query cache lookups, by result", "counter");
  appendf(out, "swve_query_cache_lookups_total{result=\"hit\"} %" PRIu64 "\n",
          s.query_cache_hits);
  appendf(out, "swve_query_cache_lookups_total{result=\"miss\"} %" PRIu64 "\n",
          s.query_cache_misses);
  prom_header(out, "swve_query_cache_evictions_total",
              "Prepared-query LRU entries displaced at capacity", "counter");
  appendf(out, "swve_query_cache_evictions_total %" PRIu64 "\n",
          s.query_cache_evictions);
  prom_header(out, "swve_query_cache_entries",
              "Prepared-query LRU entries currently cached", "gauge");
  appendf(out, "swve_query_cache_entries %" PRIu64 "\n",
          s.query_cache_entries);
  prom_header(out, "swve_workspace_leases_total",
              "Workspace-pool checkouts, by source", "counter");
  appendf(out, "swve_workspace_leases_total{source=\"pool\"} %" PRIu64 "\n",
          s.workspace_reuses);
  appendf(out, "swve_workspace_leases_total{source=\"alloc\"} %" PRIu64 "\n",
          s.workspace_creates);

  prom_header(out, "swve_pool_threads", "Worker threads in the owned pool",
              "gauge");
  appendf(out, "swve_pool_threads %u\n", s.pool_threads);
  prom_header(out, "swve_pool_jobs_total", "Jobs executed by the pool",
              "counter");
  appendf(out, "swve_pool_jobs_total %" PRIu64 "\n", s.pool_jobs);
  prom_header(out, "swve_pool_busy_seconds_total",
              "Summed busy time across pool workers", "counter");
  appendf(out, "swve_pool_busy_seconds_total %.9g\n", s.pool_busy_seconds);
  prom_header(out, "swve_pool_utilization",
              "Busy fraction of the pool over the service lifetime", "gauge");
  appendf(out, "swve_pool_utilization %.6g\n", s.pool_utilization());

  prom_header(out, "swve_trace_events_total",
              "Trace events recorded into the sink rings", "counter");
  appendf(out, "swve_trace_events_total %" PRIu64 "\n", s.trace_recorded);
  prom_header(out, "swve_trace_dropped_total",
              "Trace events lost, by cause", "counter");
  appendf(out, "swve_trace_dropped_total{cause=\"wrap\"} %" PRIu64 "\n",
          s.trace_dropped_wrap);
  appendf(out, "swve_trace_dropped_total{cause=\"torn\"} %" PRIu64 "\n",
          s.trace_dropped_torn);
  appendf(out, "swve_trace_dropped_total{cause=\"overflow\"} %" PRIu64 "\n",
          s.trace_dropped_overflow);

  prom_header(out, "swve_pmu_unavailable",
              "1 when hardware counters were requested but denied/absent "
              "(software-clock fallback active)",
              "gauge");
  appendf(out, "swve_pmu_unavailable %" PRIu64 "\n", s.pmu_unavailable);

  // One family per counter, ISA×kernel×width in labels; derived ratios
  // (IPC, backend-stall fraction, effective GHz) exported as gauges so
  // dashboards need no PromQL arithmetic.
  bool any_pmu = false;
  for (int i = 0; i < MetricsSnapshot::kIsas && !any_pmu; ++i)
    for (int k = 0; k < MetricsSnapshot::kKernelVariants && !any_pmu; ++k)
      for (int w = 0; w < MetricsSnapshot::kWidths; ++w)
        if (s.pmu[i][k][w].samples != 0) {
          any_pmu = true;
          break;
        }
  if (any_pmu) {
    struct Family {
      const char* name;
      const char* help;
      uint64_t perf::PmuSample::*field;
    };
    static constexpr Family kCounters[] = {
        {"swve_pmu_spans_total", "Kernel spans aggregated per cell",
         &perf::PmuSample::samples},
        {"swve_pmu_wall_ns_total", "Summed kernel-span wall time",
         &perf::PmuSample::wall_ns},
        {"swve_pmu_cycles_total", "CPU cycles in kernel spans",
         &perf::PmuSample::cycles},
        {"swve_pmu_instructions_total", "Instructions retired in kernel spans",
         &perf::PmuSample::instructions},
        {"swve_pmu_llc_misses_total", "Last-level-cache misses in kernel spans",
         &perf::PmuSample::llc_misses},
        {"swve_pmu_branch_misses_total", "Branch mispredicts in kernel spans",
         &perf::PmuSample::branch_misses},
    };
    const auto cell_labels = [&](char* buf, size_t cap, int i, int k, int w) {
      std::snprintf(buf, cap, "{isa=\"%s\",kernel=\"%s\",width=\"%u\"}",
                    simd::isa_name(static_cast<simd::Isa>(i)),
                    perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                    MetricsSnapshot::width_bits_at(w));
    };
    char labels[96];
    for (const Family& f : kCounters) {
      prom_header(out, f.name, f.help, "counter");
      for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
        for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
          for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
            const perf::PmuSample& c = s.pmu[i][k][w];
            if (c.samples == 0) continue;
            cell_labels(labels, sizeof labels, i, k, w);
            appendf(out, "%s%s %" PRIu64 "\n", f.name, labels, c.*(f.field));
          }
    }
    prom_header(out, "swve_pmu_stall_cycles_total",
                "Pipeline-stalled cycles in kernel spans, by stall side",
                "counter");
    for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
      for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
        for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
          const perf::PmuSample& c = s.pmu[i][k][w];
          if (c.samples == 0) continue;
          appendf(out,
                  "swve_pmu_stall_cycles_total{isa=\"%s\",kernel=\"%s\","
                  "width=\"%u\",side=\"frontend\"} %" PRIu64 "\n",
                  simd::isa_name(static_cast<simd::Isa>(i)),
                  perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                  MetricsSnapshot::width_bits_at(w), c.stall_frontend);
          appendf(out,
                  "swve_pmu_stall_cycles_total{isa=\"%s\",kernel=\"%s\","
                  "width=\"%u\",side=\"backend\"} %" PRIu64 "\n",
                  simd::isa_name(static_cast<simd::Isa>(i)),
                  perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                  MetricsSnapshot::width_bits_at(w), c.stall_backend);
        }
    struct Derived {
      const char* name;
      const char* help;
      double (perf::PmuSample::*fn)() const noexcept;
    };
    static constexpr Derived kDerived[] = {
        {"swve_pmu_ipc", "Instructions per cycle", &perf::PmuSample::ipc},
        {"swve_pmu_backend_stall_fraction",
         "Backend-stalled fraction of cycles",
         &perf::PmuSample::backend_stall_fraction},
        {"swve_pmu_frontend_stall_fraction",
         "Frontend-stalled fraction of cycles",
         &perf::PmuSample::frontend_stall_fraction},
        {"swve_pmu_effective_ghz", "Cycles per wall nanosecond; a depressed "
                                   "AVX-512 value flags license throttling",
         &perf::PmuSample::effective_ghz},
    };
    for (const Derived& d : kDerived) {
      prom_header(out, d.name, d.help, "gauge");
      for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
        for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
          for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
            const perf::PmuSample& c = s.pmu[i][k][w];
            if (c.samples == 0 || c.cycles == 0) continue;
            cell_labels(labels, sizeof labels, i, k, w);
            appendf(out, "%s%s %.6g\n", d.name, labels, (c.*(d.fn))());
          }
    }
    if (const double ratio = s.avx512_frequency_ratio(); ratio > 0) {
      prom_header(out, "swve_pmu_avx512_frequency_ratio",
                  "AVX-512 effective GHz over the fastest non-AVX-512 cell; "
                  "< 1 suggests license throttling",
                  "gauge");
      appendf(out, "swve_pmu_avx512_frequency_ratio %.6g\n", ratio);
    }
  }

  prom_header(out, "swve_slow_requests_total",
              "Requests the watchdog caught running past the latency SLO",
              "counter");
  appendf(out, "swve_slow_requests_total %" PRIu64 "\n", s.slow_requests);

  {
    const char* src = core::db_source_name(
        static_cast<core::DbSource>(s.db_source));
    prom_header(out, "swve_db_info",
                "Database provenance: constant 1 labeled by source "
                "(built = packed in-process, mmap = file-backed artifact, "
                "shm = shared-memory resident artifact)",
                "gauge");
    appendf(out, "swve_db_info{source=\"%s\"} 1\n",
            prom_escape_label(src).c_str());
    prom_header(out, "swve_db_map_bytes",
                "Mapped swve db artifact size; 0 for an in-process-built "
                "database",
                "gauge");
    appendf(out, "swve_db_map_bytes %" PRIu64 "\n", s.db_map_bytes);
    prom_header(out, "swve_db_resident_bytes",
                "Bytes of the artifact mapping currently resident in RAM",
                "gauge");
    appendf(out, "swve_db_resident_bytes %" PRIu64 "\n", s.db_resident_bytes);
    prom_header(out, "swve_db_load_seconds",
                "Database startup time: artifact open (or in-process pack) "
                "to search-ready",
                "gauge");
    appendf(out, "swve_db_load_seconds %.6g\n", s.db_load_seconds);
  }

  if (s.shard_count > 0) {
    prom_header(out, "swve_shard_info",
                "Sharded-search layout: constant 1 per shard, labeled by "
                "pinned NUMA node, thread count, and whether the shard's "
                "columns were mbind-placed",
                "gauge");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out,
              "swve_shard_info{shard=\"%u\",node=\"%d\",threads=\"%u\","
              "bound=\"%u\"} 1\n",
              i, s.shards[i].node, s.shards[i].threads, s.shards[i].bound);
    prom_header(out, "swve_shard_searches_total",
                "Batch searches executed, per shard", "counter");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_searches_total{shard=\"%u\"} %" PRIu64 "\n", i,
              s.shards[i].searches);
    prom_header(out, "swve_shard_cells_total",
                "DP cells computed per shard (8-bit kernel + rescore)",
                "counter");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_cells_total{shard=\"%u\"} %" PRIu64 "\n", i,
              s.shards[i].cells);
    prom_header(out, "swve_shard_busy_seconds_total",
                "Worker wall time spent inside each shard's scans",
                "counter");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_busy_seconds_total{shard=\"%u\"} %.6g\n", i,
              s.shards[i].busy_seconds);
    prom_header(out, "swve_shard_gcups",
                "Per-shard throughput over its own busy time — unequal "
                "values are the live shard-imbalance signal",
                "gauge");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_gcups{shard=\"%u\"} %.6g\n", i,
              s.shards[i].gcups());
    prom_header(out, "swve_shard_queue_depth",
                "Jobs outstanding on each shard's pinned pool", "gauge");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_queue_depth{shard=\"%u\"} %" PRIu64 "\n", i,
              s.shards[i].queue_depth);
    prom_header(out, "swve_shard_llc_misses_total",
                "Last-level-cache misses over shard scans (PMU deltas; 0 "
                "where perf_event is unavailable). Remote-heavy placement "
                "shows up as one shard's misses outgrowing its peers'",
                "counter");
    for (uint32_t i = 0; i < s.shard_count; ++i)
      appendf(out, "swve_shard_llc_misses_total{shard=\"%u\"} %" PRIu64 "\n",
              i, s.shards[i].llc_misses);
  }

  prom_header(out, "swve_result_cache_lookups_total",
              "Serialized-response cache lookups at the serving front door, "
              "by result",
              "counter");
  appendf(out, "swve_result_cache_lookups_total{result=\"hit\"} %" PRIu64 "\n",
          s.result_cache_hits);
  appendf(out, "swve_result_cache_lookups_total{result=\"miss\"} %" PRIu64 "\n",
          s.result_cache_misses);
  prom_header(out, "swve_result_cache_evictions_total",
              "Serialized-response LRU entries displaced at capacity",
              "counter");
  appendf(out, "swve_result_cache_evictions_total %" PRIu64 "\n",
          s.result_cache_evictions);
  prom_header(out, "swve_result_cache_entries",
              "Serialized-response LRU entries currently cached", "gauge");
  appendf(out, "swve_result_cache_entries %" PRIu64 "\n",
          s.result_cache_entries);
  prom_header(out, "swve_coalesced_requests_total",
              "Requests joined onto an identical in-flight execution "
              "(singleflight)",
              "counter");
  appendf(out, "swve_coalesced_requests_total %" PRIu64 "\n", s.coalesced);
  prom_header(out, "swve_dedup_ratio",
              "Fraction of served requests answered without a fresh "
              "execution (cache hit or coalesced)",
              "gauge");
  appendf(out, "swve_dedup_ratio %.6g\n", s.dedup_ratio());

  prom_header(out, "swve_server_connections_total",
              "TCP connections accepted by the serving front door", "counter");
  appendf(out, "swve_server_connections_total %" PRIu64 "\n",
          s.server_connections);
  prom_header(out, "swve_server_active_connections",
              "TCP connections currently open", "gauge");
  appendf(out, "swve_server_active_connections %" PRIu64 "\n",
          s.server_active_connections);
  prom_header(out, "swve_server_frames_total",
              "Protocol frames moved, by direction", "counter");
  appendf(out, "swve_server_frames_total{direction=\"rx\"} %" PRIu64 "\n",
          s.server_frames_rx);
  appendf(out, "swve_server_frames_total{direction=\"tx\"} %" PRIu64 "\n",
          s.server_frames_tx);
  prom_header(out, "swve_server_bytes_total",
              "Protocol payload bytes moved, by direction", "counter");
  appendf(out, "swve_server_bytes_total{direction=\"rx\"} %" PRIu64 "\n",
          s.server_bytes_rx);
  appendf(out, "swve_server_bytes_total{direction=\"tx\"} %" PRIu64 "\n",
          s.server_bytes_tx);
  prom_header(out, "swve_server_protocol_errors_total",
              "Frames rejected before reaching the service (bad magic, "
              "oversized, unknown type, undecodable payload)",
              "counter");
  appendf(out, "swve_server_protocol_errors_total %" PRIu64 "\n",
          s.server_protocol_errors);
  prom_header(out, "swve_server_http_scrapes_total",
              "HTTP GET /metrics requests answered", "counter");
  appendf(out, "swve_server_http_scrapes_total %" PRIu64 "\n",
          s.server_http_scrapes);

  static constexpr const char* kScenarioLabels[] = {"pairwise", "search",
                                                    "batch"};
  bool any_tier = false;
  for (int t = 0; t < MetricsSnapshot::kQosTiers && !any_tier; ++t)
    for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
      if (s.tier_requests[t][sc] != 0) {
        any_tier = true;
        break;
      }
  if (any_tier) {
    prom_header(out, "swve_tier_requests_total",
                "Completed requests by QoS tier and scenario", "counter");
    for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
      for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
        if (s.tier_requests[t][sc] != 0)
          appendf(out,
                  "swve_tier_requests_total{tier=\"%s\",scenario=\"%s\"} "
                  "%" PRIu64 "\n",
                  perf::qos_tier_label(t), kScenarioLabels[sc],
                  s.tier_requests[t][sc]);
    prom_header(out, "swve_tier_latency_seconds",
                "End-to-end request latency (queue wait + execution) by "
                "QoS tier",
                "histogram");
    char labels[48];
    for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t) {
      if (s.tier_latency[t].count == 0) continue;
      std::snprintf(labels, sizeof labels, "tier=\"%s\",",
                    perf::qos_tier_label(t));
      prom_histogram_series(out, "swve_tier_latency_seconds", labels,
                            s.tier_latency[t]);
    }
  }

  prom_header(out, "swve_log_records_total",
              "Structured log lines written to the sinks", "counter");
  appendf(out, "swve_log_records_total %" PRIu64 "\n", s.log_records);
  prom_header(out, "swve_log_dropped_total",
              "Structured log records lost, by cause", "counter");
  appendf(out, "swve_log_dropped_total{cause=\"overflow\"} %" PRIu64 "\n",
          s.log_dropped_overflow);
  appendf(out, "swve_log_dropped_total{cause=\"threads\"} %" PRIu64 "\n",
          s.log_dropped_threads);
  appendf(out, "swve_log_dropped_total{cause=\"rate_limited\"} %" PRIu64 "\n",
          s.log_suppressed);

  prom_header(out, "swve_uptime_seconds", "Service lifetime", "gauge");
  appendf(out, "swve_uptime_seconds %.6g\n", s.uptime_seconds);

  {
    bool any_len = false;
    for (int bn = 0; bn < MetricsSnapshot::kLengthBins && !any_len; ++bn)
      any_len = s.query_length_bins[bn] != 0;
    if (any_len) {
      prom_header(out, "swve_query_length_requests_total",
                  "Submitted queries by power-of-two length bin "
                  "(min_residues = inclusive lower bound)",
                  "counter");
      for (int bn = 0; bn < MetricsSnapshot::kLengthBins; ++bn)
        if (s.query_length_bins[bn] != 0)
          appendf(out,
                  "swve_query_length_requests_total{min_residues=\"%" PRIu64
                  "\"} %" PRIu64 "\n",
                  MetricsSnapshot::length_bin_lower(bn),
                  s.query_length_bins[bn]);
    }
  }

  if (slo != nullptr) {
    prom_header(out, "swve_slo_state",
                "Burn-rate alert state after hysteresis "
                "(0=ok, 1=warning, 2=firing)",
                "gauge");
    appendf(out, "swve_slo_state %d\n", static_cast<int>(slo->state));
    prom_header(out, "swve_slo_burn_rate",
                "Error-budget burn rate by objective and window; both "
                "windows of an objective past the threshold raise the alert",
                "gauge");
    appendf(out,
            "swve_slo_burn_rate{objective=\"latency\",window=\"fast\"} %.6g\n",
            slo->latency_fast_burn);
    appendf(out,
            "swve_slo_burn_rate{objective=\"latency\",window=\"slow\"} %.6g\n",
            slo->latency_slow_burn);
    appendf(out,
            "swve_slo_burn_rate{objective=\"availability\",window=\"fast\"} "
            "%.6g\n",
            slo->availability_fast_burn);
    appendf(out,
            "swve_slo_burn_rate{objective=\"availability\",window=\"slow\"} "
            "%.6g\n",
            slo->availability_slow_burn);
    prom_header(out, "swve_slo_transitions_total",
                "Alert-state changes over the service lifetime", "counter");
    appendf(out, "swve_slo_transitions_total %" PRIu64 "\n",
            slo->transitions);
  }

  prom_histogram(out, "swve_queue_wait_seconds",
                 "Submit-to-execution-start wait", s.queue_wait);
  prom_histogram(out, "swve_kernel_time_seconds",
                 "Per-request execution time", s.kernel_time);
  return out;
}

namespace {

void json_histogram(std::string& out, const char* key,
                    const LatencyHistogram::Snapshot& h) {
  appendf(out,
          "\"%s\":{\"count\":%" PRIu64
          ",\"mean_s\":%.9g,\"max_s\":%.9g,\"p50_s\":%.9g,\"p90_s\":%.9g,"
          "\"p99_s\":%.9g,\"buckets\":[",
          key, h.count, h.mean_s, h.max_s, h.p50_s, h.p90_s, h.p99_s);
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
    appendf(out, "%s%" PRIu64, i ? "," : "", h.buckets[i]);
  out += "]}";
}

}  // namespace

std::string to_json(const MetricsSnapshot& s, const SloStatus* slo) {
  std::string out;
  out.reserve(2048);
  out += "{";
  const BuildInfo b = build_info();
  appendf(out,
          "\"build\":{\"version\":\"%s\",\"compiler\":\"%s\","
          "\"isas\":\"%s\"},",
          json_escape(b.version).c_str(), json_escape(b.compiler).c_str(),
          json_escape(b.isas).c_str());
  appendf(out,
          "\"requests\":{\"submitted\":%" PRIu64 ",\"inline_runs\":%" PRIu64
          ",\"completed\":%" PRIu64 ",\"rejected_queue_full\":%" PRIu64
          ",\"deadline_expired\":%" PRIu64 ",\"invalid_request\":%" PRIu64
          ",\"aborted\":%" PRIu64 "},",
          s.submitted, s.inline_runs, s.completed, s.rejected_queue_full,
          s.deadline_expired, s.invalid_request, s.aborted);
  appendf(out,
          "\"scenarios\":{\"pairwise\":%" PRIu64 ",\"search\":%" PRIu64
          ",\"batch\":%" PRIu64 "},",
          s.pairwise, s.search, s.batch);
  appendf(out,
          "\"kernel\":{\"cells\":%" PRIu64
          ",\"seconds\":%.9g,\"aggregate_gcups\":%.6g},",
          s.cells, s.kernel_seconds, s.aggregate_gcups());
  appendf(out,
          "\"window\":{\"span_s\":%d,\"cells\":%" PRIu64
          ",\"kernel_seconds\":%.9g,\"gcups\":%.6g},",
          MetricsSnapshot::kWindowSeconds, s.window_cells,
          s.window_kernel_seconds, s.window_gcups());
  out += "\"targets\":[";
  bool first = true;
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i) {
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k) {
      if (s.target_requests[i][k] == 0 && s.target_cells[i][k] == 0) continue;
      appendf(out,
              "%s{\"isa\":\"%s\",\"kernel\":\"%s\",\"requests\":%" PRIu64
              ",\"cells\":%" PRIu64 "}",
              first ? "" : ",", simd::isa_name(static_cast<simd::Isa>(i)),
              perf::kernel_variant_name(static_cast<KernelVariant>(k)),
              s.target_requests[i][k], s.target_cells[i][k]);
      first = false;
    }
  }
  out += "],";
  appendf(out,
          "\"batch_packing\":{\"cells8\":%" PRIu64 ",\"useful_cells8\":%" PRIu64
          ",\"efficiency\":%.6g},",
          s.batch_cells8, s.batch_useful_cells8, s.batch_packing_efficiency());
  appendf(out,
          "\"query_cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"hit_rate\":%.6g,\"evictions\":%" PRIu64 ",\"entries\":%" PRIu64
          ",\"ws_reuses\":%" PRIu64 ",\"ws_creates\":%" PRIu64 "},",
          s.query_cache_hits, s.query_cache_misses, s.query_cache_hit_rate(),
          s.query_cache_evictions, s.query_cache_entries, s.workspace_reuses,
          s.workspace_creates);
  appendf(out,
          "\"pool\":{\"threads\":%u,\"jobs\":%" PRIu64
          ",\"busy_seconds\":%.9g,\"utilization\":%.6g},",
          s.pool_threads, s.pool_jobs, s.pool_busy_seconds,
          s.pool_utilization());
  appendf(out,
          "\"trace\":{\"recorded\":%" PRIu64 ",\"dropped_wrap\":%" PRIu64
          ",\"dropped_torn\":%" PRIu64 ",\"dropped_overflow\":%" PRIu64 "},",
          s.trace_recorded, s.trace_dropped_wrap, s.trace_dropped_torn,
          s.trace_dropped_overflow);
  appendf(out, "\"pmu\":{\"unavailable\":%" PRIu64 ",\"cells\":[",
          s.pmu_unavailable);
  {
    bool first_cell = true;
    for (int i = 0; i < MetricsSnapshot::kIsas; ++i)
      for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k)
        for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
          const perf::PmuSample& c = s.pmu[i][k][w];
          if (c.samples == 0) continue;
          appendf(out,
                  "%s{\"isa\":\"%s\",\"kernel\":\"%s\",\"width\":%u,"
                  "\"spans\":%" PRIu64 ",\"wall_ns\":%" PRIu64
                  ",\"cycles\":%" PRIu64 ",\"instructions\":%" PRIu64
                  ",\"stall_frontend\":%" PRIu64 ",\"stall_backend\":%" PRIu64
                  ",\"llc_misses\":%" PRIu64 ",\"branch_misses\":%" PRIu64
                  ",\"ipc\":%.6g,\"backend_stall_fraction\":%.6g,"
                  "\"effective_ghz\":%.6g}",
                  first_cell ? "" : ",",
                  simd::isa_name(static_cast<simd::Isa>(i)),
                  perf::kernel_variant_name(static_cast<KernelVariant>(k)),
                  MetricsSnapshot::width_bits_at(w), c.samples, c.wall_ns,
                  c.cycles, c.instructions, c.stall_frontend, c.stall_backend,
                  c.llc_misses, c.branch_misses, c.ipc(),
                  c.backend_stall_fraction(), c.effective_ghz());
          first_cell = false;
        }
  }
  appendf(out, "],\"avx512_frequency_ratio\":%.6g},",
          s.avx512_frequency_ratio());
  appendf(out, "\"slow_requests\":%" PRIu64 ",", s.slow_requests);
  appendf(out,
          "\"db\":{\"source\":\"%s\",\"map_bytes\":%" PRIu64
          ",\"resident_bytes\":%" PRIu64 ",\"load_seconds\":%.6g"
          ",\"epoch\":\"%" PRIu64 "\"},",
          core::db_source_name(static_cast<core::DbSource>(s.db_source)),
          s.db_map_bytes, s.db_resident_bytes, s.db_load_seconds, s.db_epoch);
  out += "\"shards\":[";
  for (uint32_t i = 0; i < s.shard_count; ++i) {
    const auto& sh = s.shards[i];
    appendf(out,
            "%s{\"shard\":%u,\"node\":%d,\"threads\":%u,\"bound\":%s,"
            "\"sequences\":%" PRIu64 ",\"searches\":%" PRIu64
            ",\"batches\":%" PRIu64 ",\"cells\":%" PRIu64
            ",\"useful_cells\":%" PRIu64 ",\"busy_seconds\":%.6g,"
            "\"gcups\":%.6g,\"queue_depth\":%" PRIu64
            ",\"llc_misses\":%" PRIu64 ",\"cycles\":%" PRIu64 "}",
            i ? "," : "", i, sh.node, sh.threads, sh.bound ? "true" : "false",
            sh.sequences, sh.searches, sh.batches, sh.cells, sh.useful_cells,
            sh.busy_seconds, sh.gcups(), sh.queue_depth, sh.llc_misses,
            sh.cycles);
  }
  out += "],";
  appendf(out,
          "\"result_cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"hit_rate\":%.6g,\"evictions\":%" PRIu64 ",\"entries\":%" PRIu64
          ",\"coalesced\":%" PRIu64 ",\"dedup_ratio\":%.6g},",
          s.result_cache_hits, s.result_cache_misses,
          s.result_cache_hit_rate(), s.result_cache_evictions,
          s.result_cache_entries, s.coalesced, s.dedup_ratio());
  appendf(out,
          "\"server\":{\"connections\":%" PRIu64
          ",\"active_connections\":%" PRIu64 ",\"frames_rx\":%" PRIu64
          ",\"frames_tx\":%" PRIu64 ",\"bytes_rx\":%" PRIu64
          ",\"bytes_tx\":%" PRIu64 ",\"protocol_errors\":%" PRIu64
          ",\"http_scrapes\":%" PRIu64 "},",
          s.server_connections, s.server_active_connections,
          s.server_frames_rx, s.server_frames_tx, s.server_bytes_rx,
          s.server_bytes_tx, s.server_protocol_errors, s.server_http_scrapes);
  out += "\"tiers\":{";
  for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t) {
    uint64_t total = 0;
    for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
      total += s.tier_requests[t][sc];
    appendf(out,
            "%s\"%s\":{\"requests\":%" PRIu64 ",\"pairwise\":%" PRIu64
            ",\"search\":%" PRIu64 ",\"batch\":%" PRIu64
            ",\"p50_s\":%.9g,\"p99_s\":%.9g}",
            t ? "," : "", perf::qos_tier_label(t), total,
            s.tier_requests[t][0], s.tier_requests[t][1], s.tier_requests[t][2],
            s.tier_latency[t].p50_s, s.tier_latency[t].p99_s);
  }
  out += "},";
  appendf(out,
          "\"log\":{\"records\":%" PRIu64 ",\"dropped_overflow\":%" PRIu64
          ",\"dropped_threads\":%" PRIu64 ",\"suppressed\":%" PRIu64 "},",
          s.log_records, s.log_dropped_overflow, s.log_dropped_threads,
          s.log_suppressed);
  out += "\"query_length_bins\":[";
  for (int bn = 0; bn < MetricsSnapshot::kLengthBins; ++bn)
    appendf(out, "%s%" PRIu64, bn ? "," : "", s.query_length_bins[bn]);
  out += "],";
  if (slo != nullptr)
    appendf(out,
            "\"slo\":{\"state\":\"%s\",\"instant\":\"%s\","
            "\"latency_fast_burn\":%.6g,\"latency_slow_burn\":%.6g,"
            "\"availability_fast_burn\":%.6g,"
            "\"availability_slow_burn\":%.6g,\"evaluations\":%" PRIu64
            ",\"transitions\":%" PRIu64 "},",
            alert_state_name(slo->state), alert_state_name(slo->instant),
            slo->latency_fast_burn, slo->latency_slow_burn,
            slo->availability_fast_burn, slo->availability_slow_burn,
            slo->evaluations, slo->transitions);
  appendf(out, "\"uptime_seconds\":%.6g,", s.uptime_seconds);
  json_histogram(out, "queue_wait", s.queue_wait);
  out += ",";
  json_histogram(out, "kernel_time", s.kernel_time);
  out += "}\n";
  return out;
}

}  // namespace swve::obs
