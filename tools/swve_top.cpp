// swve_top — a terminal dashboard over a running swve_server.
//
//   swve_top [--host ADDR] [--port N] [--interval S] [--window S] [--once]
//
// Polls the server's /varz telemetry history (only the families it draws)
// and /statusz and redraws a single ANSI frame per interval: Unicode
// sparklines for QPS, per-tier p99, result-cache hit rate, GCUPS and queue
// depth; the latest PMU readings (IPC, backend-stall fraction, effective
// GHz) per ISA x kernel x width cell; per-shard GCUPS and queue depth; and
// the burn-rate alert state. Every number is a /varz window value or a sum
// of them. Plain escape codes only — no curses, so
// it works over any ssh session and inside CI logs (--once prints one
// frame and exits without touching the cursor).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/json.hpp"

using swve::net::Json;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(
      "usage: swve_top [--host ADDR] [--port N] [--interval S]\n"
      "                [--window S] [--once]\n",
      stderr);
  std::exit(2);
}

/// Eight-level Unicode sparkline of the series tail, scaled to its own
/// maximum (a flat-zero series renders as a run of the lowest bar).
std::string sparkline(const std::vector<double>& v, size_t width) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  const size_t n = std::min(v.size(), width);
  std::string out;
  if (n == 0) return out;
  double hi = 0;
  for (size_t i = v.size() - n; i < v.size(); ++i) hi = std::max(hi, v[i]);
  for (size_t i = v.size() - n; i < v.size(); ++i) {
    int level = 0;
    if (hi > 0) {
      level = static_cast<int>(v[i] / hi * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kBars[level];
  }
  return out;
}

/// The families drawn below: all /varz is asked for.
constexpr const char* kSeries =
    "requests_completed_total,tier_latency_seconds,result_cache_lookups_total,"
    "gcups_aggregate,queue_depth,pmu_ipc,pmu_backend_stall_fraction,"
    "pmu_effective_ghz,pmu_avx512_frequency_ratio,shard_info,shard_gcups,"
    "shard_queue_depth";

/// The series of a labeled family whose `label` is `value` (null if none).
const Json* labeled(const Json& family, const char* label,
                    const std::string& value) {
  if (family.is_array())
    for (const Json& s : family.as_array())
      if (s[label].as_string() == value) return &s;
  return nullptr;
}

/// A family's value: the number of an unlabeled family, or the sum of a
/// labeled one's series (only those whose `label` is `value`, if given).
double family_sum(const Json& family, const char* label = nullptr,
                  const char* value = nullptr) {
  if (family.is_number()) return family.as_number();
  double sum = 0;
  if (family.is_array())
    for (const Json& s : family.as_array())
      if (label == nullptr || s[label].as_string() == value)
        sum += s["value"].as_number();
  return sum;
}

/// One number per /varz point, oldest first.
template <class F>
std::vector<double> per_point(const Json& points, F&& f) {
  std::vector<double> out;
  if (points.is_array())
    for (const Json& p : points.as_array()) out.push_back(f(p));
  return out;
}

/// The value of the series of `key` in `p` whose labels match `c`'s.
double same_cell(const Json& p, const char* key, const Json& c) {
  const Json& family = p[key];
  if (family.is_array())
    for (const Json& s : family.as_array())
      if (s["isa"].as_string() == c["isa"].as_string() &&
          s["kernel"].as_string() == c["kernel"].as_string() &&
          s["width"].as_string() == c["width"].as_string())
        return s["value"].as_number();
  return 0.0;
}

const char* state_color(const std::string& state) {
  if (state == "firing") return "\x1b[1;31m";   // bold red
  if (state == "warning") return "\x1b[1;33m";  // bold yellow
  return "\x1b[1;32m";                          // bold green
}

double last_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : v.back();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7731;
  double interval_s = 1.0;
  double window_s = 120.0;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    if (s == "--host") host = next();
    else if (s == "--port") port = static_cast<uint16_t>(std::atoi(next()));
    else if (s == "--interval") interval_s = std::atof(next());
    else if (s == "--window") window_s = std::atof(next());
    else if (s == "--once") once = true;
    else if (s == "--help" || s == "-h") usage();
    else usage(("unknown option " + s).c_str());
  }
  if (interval_s <= 0) interval_s = 1.0;
  if (window_s <= 0) window_s = 120.0;

  const std::string varz_path = "/varz?window=" +
                                std::to_string(static_cast<int>(window_s)) +
                                "&series=" + kSeries;
  constexpr size_t kSparkWidth = 60;

  for (;;) {
    const auto varz = swve::net::http_get(host, port, varz_path, 5.0);
    if (!varz) {
      std::fprintf(stderr, "swve_top: %s:%u: %s\n", host.c_str(), port,
                   varz.error().message.c_str());
      return 1;
    }
    const auto doc = Json::parse(*varz);
    if (!doc) {
      // A 503 body ("telemetry history disabled...") is not JSON; show it.
      std::fprintf(stderr, "swve_top: %s", varz.value().c_str());
      return 1;
    }
    const Json& points = (*doc)["points"];
    const size_t npoints =
        points.is_array() ? points.as_array().size() : 0;

    // /statusz carries what the history does not: uptime, drain state, and
    // the hysteresis-filtered SLO alert.
    std::string uptime = "?", slo_state = "ok", slo_line;
    bool draining = false;
    if (const auto statusz =
            swve::net::http_get(host, port, "/statusz", 5.0)) {
      if (const auto sdoc = Json::parse(*statusz)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0fs",
                      (*sdoc)["uptime_s"].as_number());
        uptime = buf;
        draining = (*sdoc)["draining"].as_bool();
        const Json& slo = (*sdoc)["slo"];
        if (slo.is_object()) {
          slo_state = slo["state"].as_string();
          char line[160];
          std::snprintf(
              line, sizeof line,
              "burn lat %.2f/%.2f avail %.2f/%.2f (fast/slow), "
              "transitions %.0f",
              slo["latency"]["fast_burn"].as_number(),
              slo["latency"]["slow_burn"].as_number(),
              slo["availability"]["fast_burn"].as_number(),
              slo["availability"]["slow_burn"].as_number(),
              slo["transitions"].as_number());
          slo_line = line;
        }
      }
    }

    const std::vector<double> qps = per_point(points, [](const Json& p) {
      const double dt = p["dt_s"].as_number();
      return dt > 0 ? family_sum(p["requests_completed_total"]) / dt : 0.0;
    });
    const std::vector<double> cache = per_point(points, [](const Json& p) {
      const Json& lookups = p["result_cache_lookups_total"];
      const double hits = family_sum(lookups, "result", "hit");
      const double all = family_sum(lookups);
      return all > 0 ? hits / all : 0.0;
    });
    const std::vector<double> gcups = per_point(
        points, [](const Json& p) { return p["gcups_aggregate"].as_number(); });
    const std::vector<double> queue = per_point(
        points, [](const Json& p) { return p["queue_depth"].as_number(); });

    std::string frame;
    if (!once) frame += "\x1b[H\x1b[J";  // home + clear
    char line[256];
    std::snprintf(line, sizeof line,
                  "swve_top — %s:%u   up %s%s   samples %zu   alert %s%s"
                  "\x1b[0m\n",
                  host.c_str(), port, uptime.c_str(),
                  draining ? " (draining)" : "", npoints,
                  state_color(slo_state), slo_state.c_str());
    frame += line;
    if (!slo_line.empty()) {
      frame += "  ";
      frame += slo_line;
      frame += "\n";
    }
    frame += "\n";

    std::snprintf(line, sizeof line, "  %-9s %8.1f  %s\n", "qps",
                  last_of(qps), sparkline(qps, kSparkWidth).c_str());
    frame += line;
    static const char* kTierNames[] = {"interactive", "standard", "bulk"};
    for (size_t t = 0; t < 3; ++t) {
      const std::vector<double> p99 = per_point(points, [&](const Json& p) {
        const Json* h = labeled(p["tier_latency_seconds"], "tier", kTierNames[t]);
        return h != nullptr ? (*h)["p99_s"].as_number() * 1e3 : 0.0;
      });
      std::snprintf(line, sizeof line, "  p99 %-12s %6.2fms %s\n",
                    kTierNames[t], last_of(p99),
                    sparkline(p99, kSparkWidth).c_str());
      frame += line;
    }
    std::snprintf(line, sizeof line, "  %-9s %7.0f%%  %s\n", "cache",
                  last_of(cache) * 100.0,
                  sparkline(cache, kSparkWidth).c_str());
    frame += line;
    std::snprintf(line, sizeof line, "  %-9s %8.2f  %s\n", "gcups",
                  last_of(gcups), sparkline(gcups, kSparkWidth).c_str());
    frame += line;
    std::snprintf(line, sizeof line, "  %-9s %8.0f  %s\n", "queue",
                  last_of(queue), sparkline(queue, kSparkWidth).c_str());
    frame += line;

    // Latest PMU cells: one row per ISA x kernel x width with counters, its
    // ratios over the last interval.
    if (npoints > 0) {
      const Json& last = points.as_array().back();
      const Json& pmu = last["pmu_ipc"];
      if (pmu.is_array() && !pmu.as_array().empty()) {
        frame += "\n  kernel cells (last interval):\n";
        std::snprintf(line, sizeof line, "  %-8s %-10s %5s %6s %7s %6s\n",
                      "isa", "kernel", "width", "ipc", "stall", "ghz");
        frame += line;
        for (const Json& c : pmu.as_array()) {
          std::snprintf(
              line, sizeof line, "  %-8s %-10s %5s %6.2f %6.1f%% %6.2f\n",
              c["isa"].as_string().c_str(), c["kernel"].as_string().c_str(),
              c["width"].as_string().c_str(), c["value"].as_number(),
              same_cell(last, "pmu_backend_stall_fraction", c) * 100.0,
              same_cell(last, "pmu_effective_ghz", c));
          frame += line;
        }
        const double freq = last["pmu_avx512_frequency_ratio"].as_number();
        if (freq > 0) {
          std::snprintf(line, sizeof line,
                        "  avx512 frequency ratio %.2f%s\n", freq,
                        freq < 0.97 ? "  (license throttling?)" : "");
          frame += line;
        }
      }

      // Per-shard throughput: one sparkline row per database shard, so
      // NUMA imbalance (one shard's GCUPS or queue diverging from its
      // peers') is visible at a glance.
      const Json& shards = last["shard_gcups"];
      if (shards.is_array() && !shards.as_array().empty()) {
        frame += "\n  shards (gcups | queue):\n";
        for (const Json& shard : shards.as_array()) {
          const std::string id = shard["shard"].as_string();
          const std::vector<double> sh_gcups = per_point(points, [&](const Json& p) {
            return family_sum(p["shard_gcups"], "shard", id.c_str());
          });
          const std::vector<double> sh_queue = per_point(points, [&](const Json& p) {
            return family_sum(p["shard_queue_depth"], "shard", id.c_str());
          });
          const Json* info = labeled(last["shard_info"], "shard", id);
          const std::string node =
              info != nullptr ? (*info)["node"].as_string() : "-1";
          char tag[24];
          if (node != "-1")
            std::snprintf(tag, sizeof tag, "s%s/n%s", id.c_str(), node.c_str());
          else
            std::snprintf(tag, sizeof tag, "s%s", id.c_str());
          std::snprintf(line, sizeof line,
                        "  %-9s %8.2f  %s  q%3.0f %s\n", tag,
                        last_of(sh_gcups),
                        sparkline(sh_gcups, kSparkWidth / 2).c_str(),
                        last_of(sh_queue),
                        sparkline(sh_queue, kSparkWidth / 2).c_str());
          frame += line;
        }
      }
    }

    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}
