#include "obs/timeseries.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace swve::obs {

namespace {

using perf::MetricsSnapshot;

constexpr const char* kSeriesNames[] = {
    "qps",   "tiers", "latency", "cache",   "gcups",
    "queue", "log",   "pmu",     "lengths", "freq",
    "shards",
};

// printf-append with a stack buffer; every call site stays under 512 bytes.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof buf - 1));
}

/// Comma-separated selector: does `series` (empty = everything) name `key`?
bool selected(std::string_view series, std::string_view key) {
  if (series.empty()) return true;
  size_t pos = 0;
  while (pos <= series.size()) {
    size_t comma = series.find(',', pos);
    if (comma == std::string_view::npos) comma = series.size();
    std::string_view tok = series.substr(pos, comma - pos);
    while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
    while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
    if (tok == key) return true;
    pos = comma + 1;
  }
  return false;
}

uint64_t error_total(const MetricsSnapshot& s) noexcept {
  return s.rejected_queue_full + s.deadline_expired + s.invalid_request +
         s.aborted;
}

uint64_t log_drop_total(const MetricsSnapshot& s) noexcept {
  return s.log_dropped_overflow + s.log_dropped_threads + s.log_suppressed;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(TimeSeriesOptions options) : opt_(options) {
  if (opt_.cadence_s <= 0) opt_.cadence_s = 1.0;
  if (opt_.capacity == 0) opt_.capacity = 1;
}

void TimeSeriesStore::push(const perf::MetricsSnapshot& snap, double t_s,
                           uint64_t queue_depth, double probe_ghz,
                           double cpufreq_ghz) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!have_prev_ || t_s <= prev_t_s_) {
    // First push, or a non-advancing clock: (re)seed the baseline.
    prev_ = snap;
    prev_t_s_ = t_s;
    have_prev_ = true;
    return;
  }
  const double dt = t_s - prev_t_s_;

  TimeSeriesPoint p;
  p.t_s = t_s;
  p.dt_s = dt;
  p.queue_depth = queue_depth;
  p.probe_ghz = probe_ghz;
  p.cpufreq_ghz = cpufreq_ghz;

  p.completed_delta = perf::counter_delta(snap.completed, prev_.completed);
  p.submitted_delta = perf::counter_delta(snap.submitted, prev_.submitted);
  p.error_delta = perf::counter_delta(error_total(snap), error_total(prev_));
  p.qps = perf::delta_rate(snap.completed, prev_.completed, dt);
  p.error_qps = static_cast<double>(p.error_delta) / dt;

  for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t) {
    uint64_t now_n = 0, prev_n = 0;
    for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc) {
      now_n += snap.tier_requests[t][sc];
      prev_n += prev_.tier_requests[t][sc];
    }
    p.tier_qps[t] = perf::delta_rate(now_n, prev_n, dt);
    const perf::LatencyHistogram::Snapshot d =
        perf::LatencyHistogram::Snapshot::subtract(snap.tier_latency[t],
                                                   prev_.tier_latency[t]);
    p.tier_p50_s[t] = d.p50_s;
    p.tier_p99_s[t] = d.p99_s;
    p.latency = perf::LatencyHistogram::Snapshot::merge(p.latency, d);
  }

  p.cache_hit_rate = perf::delta_ratio(
      snap.result_cache_hits, prev_.result_cache_hits,
      snap.result_cache_hits + snap.result_cache_misses,
      prev_.result_cache_hits + prev_.result_cache_misses);
  const uint64_t cells_d = perf::counter_delta(snap.cells, prev_.cells);
  const double ks_d = std::max(0.0, snap.kernel_seconds - prev_.kernel_seconds);
  p.gcups = ks_d > 0 ? static_cast<double>(cells_d) / ks_d / 1e9 : 0.0;
  p.log_drops =
      perf::counter_delta(log_drop_total(snap), log_drop_total(prev_));

  for (int i = 0; i < MetricsSnapshot::kIsas; ++i) {
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k) {
      for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
        const perf::PmuSample& now = snap.pmu[i][k][w];
        const perf::PmuSample& was = prev_.pmu[i][k][w];
        perf::PmuSample d;
        d.samples = perf::counter_delta(now.samples, was.samples);
        d.wall_ns = perf::counter_delta(now.wall_ns, was.wall_ns);
        d.cycles = perf::counter_delta(now.cycles, was.cycles);
        d.instructions =
            perf::counter_delta(now.instructions, was.instructions);
        d.stall_backend =
            perf::counter_delta(now.stall_backend, was.stall_backend);
        if (d.cycles == 0) continue;
        TimeSeriesPoint::PmuCellPoint cell;
        cell.isa = static_cast<uint8_t>(i);
        cell.kernel = static_cast<uint8_t>(k);
        cell.width = static_cast<uint8_t>(w);
        cell.spans = d.samples;
        cell.ipc = d.ipc();
        cell.backend_stall_fraction = d.backend_stall_fraction();
        cell.effective_ghz = d.effective_ghz();
        p.pmu.push_back(cell);
      }
    }
  }
  p.avx512_frequency_ratio = snap.avx512_frequency_ratio();

  for (uint32_t i = 0; i < snap.shard_count &&
                       i < MetricsSnapshot::kMaxShards;
       ++i) {
    const auto& now = snap.shards[i];
    // A shard missing from the previous snapshot (count grew) deltas
    // against zeroes, which counter_delta already handles.
    const auto& was = prev_.shards[i];
    TimeSeriesPoint::ShardPoint sp;
    sp.shard = static_cast<uint8_t>(i);
    sp.node = now.node;
    const uint64_t cells_delta = perf::counter_delta(now.cells, was.cells);
    const double busy_d = std::max(0.0, now.busy_seconds - was.busy_seconds);
    sp.gcups =
        busy_d > 0 ? static_cast<double>(cells_delta) / busy_d / 1e9 : 0.0;
    sp.searches = perf::counter_delta(now.searches, was.searches);
    sp.llc_misses = perf::counter_delta(now.llc_misses, was.llc_misses);
    sp.queue_depth = now.queue_depth;
    p.shards.push_back(sp);
  }

  uint64_t dominant_n = 0;
  for (int b = 0; b < MetricsSnapshot::kLengthBins; ++b) {
    p.length_bins[b] = perf::counter_delta(snap.query_length_bins[b],
                                           prev_.query_length_bins[b]);
    if (p.length_bins[b] > dominant_n) {
      dominant_n = p.length_bins[b];
      p.dominant_length_bin = b;
    }
  }

  ring_.push_back(std::move(p));
  while (ring_.size() > opt_.capacity) ring_.pop_front();
  prev_ = snap;
  prev_t_s_ = t_s;
}

std::vector<TimeSeriesPoint> TimeSeriesStore::points(double window_s) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TimeSeriesPoint> out;
  if (ring_.empty()) return out;
  const double cutoff =
      window_s > 0 ? ring_.back().t_s - window_s : -1e300;
  for (const TimeSeriesPoint& p : ring_)
    if (p.t_s >= cutoff) out.push_back(p);
  return out;
}

bool TimeSeriesStore::latest(TimeSeriesPoint* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.empty()) return false;
  if (out) *out = ring_.back();
  return true;
}

size_t TimeSeriesStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

bool TimeSeriesStore::is_series_name(std::string_view name) {
  for (const char* k : kSeriesNames)
    if (name == k) return true;
  return false;
}

std::string TimeSeriesStore::json(std::string_view series,
                                  double window_s) const {
  const std::vector<TimeSeriesPoint> snap = points(window_s);
  std::string out;
  appendf(out, "{\"cadence_s\":%.6g,\"capacity\":%zu,\"points\":[",
          opt_.cadence_s, opt_.capacity);
  for (size_t n = 0; n < snap.size(); ++n) {
    const TimeSeriesPoint& p = snap[n];
    appendf(out, "%s\n{\"t_s\":%.3f,\"dt_s\":%.3f", n ? "," : "", p.t_s,
            p.dt_s);
    if (selected(series, "qps"))
      appendf(out,
              ",\"qps\":%.6g,\"error_qps\":%.6g,\"completed\":%" PRIu64
              ",\"errors\":%" PRIu64,
              p.qps, p.error_qps, p.completed_delta, p.error_delta);
    if (selected(series, "tiers")) {
      out += ",\"tiers\":[";
      for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
        appendf(out,
                "%s{\"tier\":\"%s\",\"qps\":%.6g,\"p50_ms\":%.6g,"
                "\"p99_ms\":%.6g}",
                t ? "," : "", perf::qos_tier_label(t), p.tier_qps[t],
                p.tier_p50_s[t] * 1e3, p.tier_p99_s[t] * 1e3);
      out += "]";
    }
    if (selected(series, "latency"))
      appendf(out,
              ",\"latency\":{\"count\":%" PRIu64
              ",\"p50_ms\":%.6g,\"p99_ms\":%.6g}",
              p.latency.count, p.latency.p50_s * 1e3, p.latency.p99_s * 1e3);
    if (selected(series, "cache"))
      appendf(out, ",\"cache_hit_rate\":%.6g", p.cache_hit_rate);
    if (selected(series, "gcups")) appendf(out, ",\"gcups\":%.6g", p.gcups);
    if (selected(series, "queue"))
      appendf(out, ",\"queue_depth\":%" PRIu64, p.queue_depth);
    if (selected(series, "log"))
      appendf(out, ",\"log_drops\":%" PRIu64, p.log_drops);
    if (selected(series, "pmu")) {
      out += ",\"pmu\":[";
      for (size_t c = 0; c < p.pmu.size(); ++c) {
        const TimeSeriesPoint::PmuCellPoint& cell = p.pmu[c];
        appendf(out,
                "%s{\"isa\":\"%s\",\"kernel\":\"%s\",\"width\":%u,"
                "\"spans\":%" PRIu64
                ",\"ipc\":%.4g,\"stall_be\":%.4g,\"ghz\":%.4g}",
                c ? "," : "",
                simd::isa_name(static_cast<simd::Isa>(cell.isa)),
                perf::kernel_variant_name(
                    static_cast<perf::KernelVariant>(cell.kernel)),
                MetricsSnapshot::width_bits_at(cell.width), cell.spans,
                cell.ipc, cell.backend_stall_fraction, cell.effective_ghz);
      }
      out += "]";
    }
    if (selected(series, "freq"))
      appendf(out,
              ",\"avx512_freq_ratio\":%.4g,\"probe_ghz\":%.4g,"
              "\"cpufreq_ghz\":%.4g",
              p.avx512_frequency_ratio, p.probe_ghz, p.cpufreq_ghz);
    if (selected(series, "shards") && !p.shards.empty()) {
      out += ",\"shards\":[";
      for (size_t c = 0; c < p.shards.size(); ++c) {
        const TimeSeriesPoint::ShardPoint& sh = p.shards[c];
        appendf(out,
                "%s{\"shard\":%u,\"node\":%d,\"gcups\":%.4g,"
                "\"searches\":%" PRIu64 ",\"queue_depth\":%" PRIu64
                ",\"llc_misses\":%" PRIu64 "}",
                c ? "," : "", sh.shard, sh.node, sh.gcups, sh.searches,
                sh.queue_depth, sh.llc_misses);
      }
      out += "]";
    }
    if (selected(series, "lengths")) {
      out += ",\"length_bins\":[";
      for (int b = 0; b < MetricsSnapshot::kLengthBins; ++b)
        appendf(out, "%s%" PRIu64, b ? "," : "", p.length_bins[b]);
      appendf(out, "],\"dominant_length_bin\":%d", p.dominant_length_bin);
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace swve::obs
