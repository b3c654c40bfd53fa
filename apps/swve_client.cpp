// swve_client — command-line client for a running swve_server.
//
//   swve_client ping    [net options]
//   swve_client align   [options] QUERY.fa TARGET.fa
//   swve_client search  [options] QUERY.fa
//   swve_client batch   [options] QUERIES.fa
//   swve_client metrics [--json | --watch S] [net options]
//   swve_client bench   [options]      closed-loop QPS/latency microbench
//
// Sequences are encoded client-side and sent as binary protocol v1 frames,
// so responses are bit-identical to in-process AlignService calls against
// the server's database. Provenance of each response is reported: [cache]
// for LRU hits, [coalesced] for singleflight joins.
//
// Net options:
//   --host ADDR          server address (default 127.0.0.1)
//   --port N             server port (default 7731)
//   --timeout S          socket timeout (default 10)
//   --tier interactive|standard|bulk   QoS tier (default standard)
//   --deadline-ms N      request deadline
//   --no-cache           ask the server to bypass its result cache
//   --top K              hits per query (search/batch)
//   --dna                DNA alphabet (default protein)
//   --repeat N           send the request N times (cache/dedup demos)
//   --trace              send requests wire-traced: each response's
//                        server-side breakdown (queue/exec/serialize vs.
//                        network) is printed; bench reports the split
//
// bench options (plus net options above):
//   --requests N         closed-loop requests to send (default 200)
//   --length N           synthetic query length (default 320)
//   --distinct N         distinct queries cycled through (default 1)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/json.hpp"
#include "swve.hpp"

using namespace swve;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 7731;
  double timeout_s = 10.0;
  service::QosTier tier = service::QosTier::Standard;
  int deadline_ms = 0;
  bool no_cache = false;
  size_t top_k = 10;
  bool dna = false;
  int repeat = 1;
  bool json = false;
  bool trace = false;
  double watch_s = 0;  ///< metrics: poll interval; 0 = single dump
  // bench
  int requests = 200;
  uint32_t length = 320;
  int distinct = 1;
  std::vector<std::string> positional;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(
      "usage: swve_client <ping|align|search|batch|metrics|bench> [options]\n"
      "  --host ADDR | --port N | --timeout S | --tier NAME\n"
      "  --deadline-ms N | --no-cache | --top K | --dna | --repeat N\n"
      "  --trace (server timing breakdown)\n"
      "  --json | --watch S (metrics) | --requests N --length N "
      "--distinct N (bench)\n",
      stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    if (s == "--host") o.host = next();
    else if (s == "--port") o.port = static_cast<uint16_t>(std::atoi(next()));
    else if (s == "--timeout") o.timeout_s = std::atof(next());
    else if (s == "--tier") {
      const std::string t = next();
      if (t == "interactive") o.tier = service::QosTier::Interactive;
      else if (t == "standard") o.tier = service::QosTier::Standard;
      else if (t == "bulk") o.tier = service::QosTier::Bulk;
      else usage(("unknown tier " + t).c_str());
    } else if (s == "--deadline-ms") o.deadline_ms = std::atoi(next());
    else if (s == "--no-cache") o.no_cache = true;
    else if (s == "--top") o.top_k = std::strtoul(next(), nullptr, 10);
    else if (s == "--dna") o.dna = true;
    else if (s == "--repeat") o.repeat = std::atoi(next());
    else if (s == "--json") o.json = true;
    else if (s == "--watch") o.watch_s = std::atof(next());
    else if (s == "--trace") o.trace = true;
    else if (s == "--requests") o.requests = std::atoi(next());
    else if (s == "--length")
      o.length = static_cast<uint32_t>(std::atoi(next()));
    else if (s == "--distinct") o.distinct = std::atoi(next());
    else if (s == "--help" || s == "-h") usage();
    else if (s.rfind("--", 0) == 0) usage(("unknown option " + s).c_str());
    else o.positional.push_back(s);
  }
  return o;
}

service::RequestOptions request_options(const Options& o) {
  service::RequestOptions ro;
  ro.tier = o.tier;
  ro.top_k = o.top_k;
  if (o.deadline_ms > 0)
    ro.deadline = std::chrono::milliseconds(o.deadline_ms);
  return ro;
}

const char* provenance(uint8_t flags) {
  if ((flags & net::kFlagFromCache) != 0) return " [cache]";
  if ((flags & net::kFlagCoalesced) != 0) return " [coalesced]";
  return "";
}

const char* timing_source(uint8_t source) {
  return source == 1 ? "cache" : source == 2 ? "coalesced" : "executed";
}

/// --trace: decompose the measured RTT into the server's reported
/// queue/exec/serialize time and the remainder (network + client).
template <typename R>
void print_timing(const net::RpcResult<R>& r, double rtt_ms) {
  if (!r.timing) return;
  const net::ServerTiming& t = *r.timing;
  const double server_ms =
      static_cast<double>(t.queue_us + t.exec_us + t.serialize_us) / 1000.0;
  std::printf(
      "  trace %llu [%s]: rtt %.3f ms = network %.3f + queue %.3f + "
      "exec %.3f + serialize %.3f\n",
      static_cast<unsigned long long>(t.trace_id), timing_source(t.source),
      rtt_ms, std::max(0.0, rtt_ms - server_ms),
      t.queue_us / 1000.0, t.exec_us / 1000.0, t.serialize_us / 1000.0);
}

seq::Sequence first_record(const std::string& path, const seq::Alphabet& a) {
  auto records = seq::read_fasta_file(path, a);
  if (records.empty()) usage(("no sequences in " + path).c_str());
  return std::move(records.front());
}

int run_bench(net::Client& client, const Options& o) {
  // Closed-loop: one request at a time, wall-clock percentiles client-side.
  // --distinct 1 exercises the hot result cache; larger values sweep it.
  std::vector<seq::Sequence> queries;
  for (int i = 0; i < std::max(1, o.distinct); ++i)
    queries.push_back(seq::generate_sequence(
        1000 + static_cast<uint64_t>(i), o.length,
        o.dna ? seq::AlphabetKind::Dna : seq::AlphabetKind::Protein));

  std::vector<double> lat_ms;
  lat_ms.reserve(static_cast<size_t>(o.requests));
  std::vector<double> net_ms, queue_ms, exec_ms;  // --trace decomposition
  uint64_t cache_hits = 0;
  uint64_t errors = 0;
  const auto bench_start = std::chrono::steady_clock::now();
  for (int i = 0; i < o.requests; ++i) {
    service::SearchRequest rq;
    rq.query = queries[static_cast<size_t>(i) % queries.size()];
    rq.options = request_options(o);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r =
        client.search(rq, o.no_cache ? net::kFlagNoCache : uint8_t{0});
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      ++errors;
      continue;
    }
    if (r.from_cache()) ++cache_hits;
    const double rtt =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    lat_ms.push_back(rtt);
    if (r.timing) {
      const net::ServerTiming& t = *r.timing;
      const double server =
          static_cast<double>(t.queue_us + t.exec_us + t.serialize_us) /
          1000.0;
      net_ms.push_back(std::max(0.0, rtt - server));
      queue_ms.push_back(t.queue_us / 1000.0);
      exec_ms.push_back(t.exec_us / 1000.0);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  if (lat_ms.empty()) {
    std::fprintf(stderr, "bench: all %d requests failed\n", o.requests);
    return 1;
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  const auto pct = [&](double p) {
    const size_t idx = static_cast<size_t>(p * (lat_ms.size() - 1));
    return lat_ms[idx];
  };
  std::printf(
      "bench: %zu ok, %llu errors, %.0f qps | p50 %.3f ms, p99 %.3f ms | "
      "cache hits %llu (%.0f%%)\n",
      lat_ms.size(), static_cast<unsigned long long>(errors),
      lat_ms.size() / wall_s, pct(0.50), pct(0.99),
      static_cast<unsigned long long>(cache_hits),
      100.0 * cache_hits / lat_ms.size());
  if (!net_ms.empty()) {
    // Wire tracing was on: split the RTT percentiles into where the time
    // actually went (server timing trailer vs. the network remainder).
    const auto pctof = [](std::vector<double>& v, double p) {
      std::sort(v.begin(), v.end());
      return v[static_cast<size_t>(p * (v.size() - 1))];
    };
    std::printf(
        "bench trace: network p50 %.3f / p99 %.3f ms | queue p50 %.3f / "
        "p99 %.3f ms | exec p50 %.3f / p99 %.3f ms\n",
        pctof(net_ms, 0.50), pctof(net_ms, 0.99), pctof(queue_ms, 0.50),
        pctof(queue_ms, 0.99), pctof(exec_ms, 0.50), pctof(exec_ms, 0.99));
  }

  // Server startup cost is not a request latency: fetch the db families of
  // the metrics JSON and report the one-time database load separately, so
  // the percentiles above are never conflated with cold-start.
  const auto m = client.metrics(/*json=*/true);
  if (m.ok()) {
    const auto doc = net::Json::parse(*m.response);
    if (doc && (*doc)["db_info"].is_array() &&
        !(*doc)["db_info"].as_array().empty()) {
      std::printf(
          "bench server: db source %s, db load %.1f ms (one-time startup, "
          "excluded from latencies), map %.1f MiB\n",
          (*doc)["db_info"].as_array()[0]["source"].as_string().c_str(),
          (*doc)["db_load_seconds"].as_number() * 1e3,
          (*doc)["db_map_bytes"].as_number() / (1024.0 * 1024.0));
    }
  }
  return 0;
}

/// Sum of a labeled family's values in the metrics JSON, optionally only
/// the series whose `label` equals `value`.
uint64_t family_sum(const net::Json& family, const char* label = nullptr,
                    const char* value = nullptr) {
  double sum = 0;
  if (family.is_array())
    for (const net::Json& series : family.as_array())
      if (label == nullptr || series[label].as_string() == value)
        sum += series["value"].as_number();
  return static_cast<uint64_t>(sum);
}

/// metrics --watch S: poll the server's JSON metrics at a fixed cadence
/// and print per-interval rates computed with the same counter-delta
/// helpers the server-side time-series store uses (perf::delta_rate /
/// delta_ratio), so a watch line and a /varz point agree.
int run_metrics_watch(net::Client& client, double interval_s) {
  if (interval_s <= 0) interval_s = 1.0;
  uint64_t prev_completed = 0, prev_hits = 0, prev_misses = 0, prev_cells = 0;
  double prev_kernel_s = 0;
  bool have_prev = false;
  auto prev_t = std::chrono::steady_clock::now();
  std::printf("%10s %10s %12s %10s %10s\n", "dt_s", "qps", "completed",
              "cache_hit", "gcups");
  for (;;) {
    const auto r = client.metrics(/*json=*/true);
    if (!r.ok()) {
      std::fprintf(stderr, "swve_client: %s\n", r.error.c_str());
      return 1;
    }
    const auto now_t = std::chrono::steady_clock::now();
    const auto doc = net::Json::parse(*r.response);
    if (!doc) {
      std::fprintf(stderr, "swve_client: unparseable metrics JSON\n");
      return 1;
    }
    const uint64_t completed = family_sum((*doc)["requests_completed_total"]);
    const net::Json& lookups = (*doc)["result_cache_lookups_total"];
    const uint64_t hits = family_sum(lookups, "result", "hit");
    const uint64_t misses = family_sum(lookups, "result", "miss");
    const uint64_t cells =
        static_cast<uint64_t>((*doc)["kernel_cells_total"].as_number());
    const double kernel_s = (*doc)["kernel_seconds_total"].as_number();
    if (have_prev) {
      const double dt =
          std::chrono::duration<double>(now_t - prev_t).count();
      const double qps = perf::delta_rate(completed, prev_completed, dt);
      const double hit_rate = perf::delta_ratio(
          hits, prev_hits, hits + misses, prev_hits + prev_misses);
      const double ks_d = std::max(0.0, kernel_s - prev_kernel_s);
      const double gcups =
          ks_d > 0 ? static_cast<double>(
                         perf::counter_delta(cells, prev_cells)) /
                         ks_d / 1e9
                   : 0.0;
      std::printf("%10.1f %10.1f %+12lld %9.1f%% %10.2f\n", dt, qps,
                  static_cast<long long>(
                      perf::counter_delta(completed, prev_completed)),
                  hit_rate * 100.0, gcups);
      std::fflush(stdout);
    }
    prev_completed = completed;
    prev_hits = hits;
    prev_misses = misses;
    prev_cells = cells;
    prev_kernel_s = kernel_s;
    prev_t = now_t;
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Options o = parse(argc, argv);
  const seq::Alphabet& alphabet =
      o.dna ? seq::Alphabet::dna() : seq::Alphabet::protein();

  auto connected = net::Client::connect(o.host, o.port, o.timeout_s);
  if (!connected) {
    std::fprintf(stderr, "swve_client: %s\n",
                 connected.error().message.c_str());
    return 1;
  }
  net::Client& client = *connected.value();
  if (o.trace) client.enable_tracing(true);
  const uint8_t extra = o.no_cache ? net::kFlagNoCache : uint8_t{0};

  if (cmd == "ping") {
    const auto r = client.ping();
    std::printf("%s\n", r.ok() ? "pong" : r.error.c_str());
    return r.ok() ? 0 : 1;
  }

  if (cmd == "metrics") {
    if (o.watch_s > 0) return run_metrics_watch(client, o.watch_s);
    const auto r = client.metrics(o.json);
    if (!r.ok()) {
      std::fprintf(stderr, "swve_client: %s\n", r.error.c_str());
      return 1;
    }
    std::fputs(r.response->c_str(), stdout);
    return 0;
  }

  if (cmd == "bench") return run_bench(client, o);

  if (cmd == "align") {
    if (o.positional.size() != 2) usage("align needs QUERY.fa TARGET.fa");
    service::AlignRequest rq;
    rq.query = first_record(o.positional[0], alphabet);
    rq.reference = first_record(o.positional[1], alphabet);
    rq.options = request_options(o);
    rq.options.traceback = true;
    for (int i = 0; i < o.repeat; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = client.align(rq, extra);
      const double rtt = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (!r.ok()) {
        std::fprintf(stderr, "swve_client: %s: %s\n",
                     service::status_name(r.status), r.error.c_str());
        return 1;
      }
      const core::Alignment& a = r.response->alignment;
      std::printf("score %d  query %d-%d  ref %d-%d  cigar %s%s\n", a.score,
                  a.begin_query, a.end_query, a.begin_ref, a.end_ref,
                  a.cigar.to_string().c_str(), provenance(r.flags));
      print_timing(r, rtt);
    }
    return 0;
  }

  if (cmd == "search") {
    if (o.positional.size() != 1) usage("search needs QUERY.fa");
    service::SearchRequest rq;
    rq.query = first_record(o.positional[0], alphabet);
    rq.options = request_options(o);
    for (int i = 0; i < o.repeat; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = client.search(rq, extra);
      const double rtt = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (!r.ok()) {
        std::fprintf(stderr, "swve_client: %s: %s\n",
                     service::status_name(r.status), r.error.c_str());
        return 1;
      }
      std::printf("query %s: %zu hits%s\n", rq.query.id().c_str(),
                  r.response->result.hits.size(), provenance(r.flags));
      print_timing(r, rtt);
      for (const auto& h : r.response->result.hits)
        std::printf("  db[%u] score %d end (%d,%d)\n", h.seq_index, h.score,
                    h.end_query, h.end_ref);
    }
    return 0;
  }

  if (cmd == "batch") {
    if (o.positional.size() != 1) usage("batch needs QUERIES.fa");
    service::BatchRequest rq;
    rq.queries = seq::read_fasta_file(o.positional[0], alphabet);
    rq.options = request_options(o);
    for (int i = 0; i < o.repeat; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = client.batch(rq, extra);
      const double rtt = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (!r.ok()) {
        std::fprintf(stderr, "swve_client: %s: %s\n",
                     service::status_name(r.status), r.error.c_str());
        return 1;
      }
      std::printf("%zu queries%s\n", r.response->results.size(),
                  provenance(r.flags));
      print_timing(r, rtt);
      for (size_t q = 0; q < r.response->results.size(); ++q) {
        const auto& hits = r.response->results[q].hits;
        std::printf("  query %zu: %zu hits, best %d\n", q, hits.size(),
                    hits.empty() ? 0 : hits.front().score);
      }
    }
    return 0;
  }

  usage(("unknown command " + cmd).c_str());
}
