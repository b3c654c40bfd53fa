// swve_server — the standalone protocol v1 serving daemon.
//
//   swve_server [options]
//
// Loads (or synthesizes) a sequence database, builds an AlignService, and
// serves it over TCP via net::Server: binary protocol v1 with singleflight
// coalescing and an LRU result cache, plus "GET /metrics" and "/healthz"
// HTTP on the same port. SIGTERM/SIGINT trigger a graceful drain through
// the flight recorder (in-flight requests finish, then the process exits).
//
// Database options:
//   --db FILE                serve this database: a FASTA file, or a
//                            pre-packed swdb artifact (swve_db_build) —
//                            routed by magic sniff or a .swdb extension,
//                            so corrupt artifacts are rejected with a
//                            typed error rather than misparsed as FASTA.
//                            Artifacts mmap in O(1) instead of re-packing.
//   --synthetic-residues N   serve a deterministic synthetic database
//                            (default: 2,000,000 residues, seed 42)
//   --seed N                 synthetic generator seed
//   --dna                    DNA alphabet (default: protein; FASTA only —
//                            an artifact records its own alphabet)
//
// Serving options:
//   --port N                 TCP port (default 7731; 0 = ephemeral)
//   --bind ADDR              bind address (default 127.0.0.1)
//   --max-conns N            concurrent connection cap (default 1024)
//   --max-frame-mb N         per-frame payload cap in MiB (default 16)
//   --cache-entries N        result-cache capacity (default 512; 0 = off)
//   --no-singleflight        disable in-flight request coalescing
//   --no-http                disable the HTTP /metrics endpoint
//   --drain-timeout S        graceful-drain budget in seconds (default 10)
//
// Service options:
//   --matrix NAME            scoring matrix (default blosum62)
//   --top K                  default hits per query (default 10)
//   --threads N              pool threads for intra-request fan-out
//   --shards N|auto          split batch search into N database shards
//                            with per-shard pinned pools and a
//                            bit-identical top-k merge ("auto" = one
//                            shard per NUMA node; default 1 = one shard
//                            on the --threads pool)
//   --numa MODE              off | interleave | bind placement of packed
//                            shard columns (needs --shards; off, the
//                            default, pins and places nothing)
//   --executors N            executor threads draining the queue
//   --queue-cap N            submission queue capacity (default 256)
//   --slo-ms N               watchdog SLO for slow-request records
//   --flight-out FILE        flight-recorder dump path on signals
//
// Telemetry history & SLO alerting options:
//   --telemetry-cadence S    time-series sample period in seconds
//                            (default 1; 0 disables history, /varz, and
//                            the burn-rate engine)
//   --telemetry-retention S  history window kept in memory (default 600)
//   --slo-p99-ms N           latency SLO target for burn-rate alerting:
//                            latency_objective of requests must finish
//                            within N ms (distinct from --slo-ms, which
//                            only records slow requests in the watchdog)
//   --slo-objective F        fraction of requests that must meet the
//                            latency target (default 0.99)
//   --tracez-entries N       /tracez ring capacity (default 32)
//
// Observability options:
//   --log-file FILE          structured JSON-lines log file (O_APPEND)
//   --log-level LVL          debug | info | warn | error (default info)
//   --log-rate N             per-event-site records/second cap (0 = off)
//   --trace-events N         trace-sink ring capacity per thread
//                            (default 8192; 0 disables the sink and the
//                            span half of /tracez). A thread's ring is
//                            allocated when it first records and holds
//                            120 B per event written, up to N events.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "swve.hpp"

using namespace swve;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(
      "usage: swve_server [options]\n"
      "  --db FILE(.fa|.swdb)\n"
      "  --synthetic-residues N [--seed N] [--dna]\n"
      "  --port N | --bind ADDR | --max-conns N | --max-frame-mb N\n"
      "  --cache-entries N | --no-singleflight | --no-http\n"
      "  --drain-timeout S | --matrix NAME | --top K | --threads N\n"
      "  --shards N|auto | --numa off|interleave|bind\n"
      "  --executors N | --queue-cap N | --slo-ms N | --flight-out FILE\n"
      "  --log-file FILE | --log-level LVL | --log-rate N\n"
      "  --trace-events N | --tracez-entries N\n"
      "  --telemetry-cadence S | --telemetry-retention S\n"
      "  --slo-p99-ms N | --slo-objective F\n",
      stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  uint64_t synthetic_residues = 2'000'000;
  uint64_t seed = 42;
  bool dna = false;
  std::string matrix_name = "blosum62";
  std::string flight_out;
  int slo_ms = 0;
  std::string log_file;
  std::string log_level = "info";
  uint64_t log_rate = 0;
  size_t trace_events = 8192;

  service::ServiceOptions opt;
  opt.serve.port = 7731;

  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    if (s == "--db") db_path = next();
    else if (s == "--synthetic-residues")
      synthetic_residues = std::strtoull(next(), nullptr, 10);
    else if (s == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (s == "--dna") dna = true;
    else if (s == "--port")
      opt.serve.port = static_cast<uint16_t>(std::atoi(next()));
    else if (s == "--bind") opt.serve.bind = next();
    else if (s == "--max-conns")
      opt.serve.max_connections = std::strtoul(next(), nullptr, 10);
    else if (s == "--max-frame-mb")
      opt.serve.max_frame_bytes = std::strtoul(next(), nullptr, 10) << 20;
    else if (s == "--cache-entries")
      opt.serve.result_cache_capacity = std::strtoul(next(), nullptr, 10);
    else if (s == "--no-singleflight") opt.serve.singleflight = false;
    else if (s == "--no-http") opt.serve.http_metrics = false;
    else if (s == "--drain-timeout")
      opt.serve.drain_timeout_s = std::atof(next());
    else if (s == "--shards") {
      const std::string v = next();
      opt.search.shards = (v == "auto") ? 0 : std::atoi(v.c_str());
    } else if (s == "--numa") {
      const std::string v = next();
      if (!parallel::parse_numa_policy(v, &opt.search.numa))
        usage(("unknown --numa policy " + v).c_str());
    }
    else if (s == "--matrix") matrix_name = next();
    else if (s == "--top") opt.default_top_k = std::strtoul(next(), nullptr, 10);
    else if (s == "--threads")
      opt.pool_threads = static_cast<unsigned>(std::atoi(next()));
    else if (s == "--executors")
      opt.queue.executors = static_cast<unsigned>(std::atoi(next()));
    else if (s == "--queue-cap")
      opt.queue.capacity = std::strtoul(next(), nullptr, 10);
    else if (s == "--slo-ms") slo_ms = std::atoi(next());
    else if (s == "--telemetry-cadence")
      opt.serve.telemetry_cadence_s = std::atof(next());
    else if (s == "--telemetry-retention")
      opt.serve.telemetry_retention_s = std::atof(next());
    else if (s == "--slo-p99-ms")
      opt.obs.slo.latency_target_s = std::atof(next()) / 1000.0;
    else if (s == "--slo-objective")
      opt.obs.slo.latency_objective = std::atof(next());
    else if (s == "--tracez-entries")
      opt.serve.tracez_capacity = std::strtoul(next(), nullptr, 10);
    else if (s == "--flight-out") flight_out = next();
    else if (s == "--log-file") log_file = next();
    else if (s == "--log-level") log_level = next();
    else if (s == "--log-rate") log_rate = std::strtoull(next(), nullptr, 10);
    else if (s == "--trace-events")
      trace_events = std::strtoul(next(), nullptr, 10);
    else if (s == "--help" || s == "-h") usage();
    else usage(("unknown option " + s).c_str());
  }

  const seq::Alphabet& alphabet =
      dna ? seq::Alphabet::dna() : seq::Alphabet::protein();
  const matrix::ScoreMatrix* matrix = matrix::ScoreMatrix::find(matrix_name);
  if (matrix == nullptr) usage(("unknown matrix " + matrix_name).c_str());
  opt.config.matrix = matrix;
  opt.obs.slow_request_slo_s = slo_ms / 1000.0;

  // The logger outlives everything that logs (service threads, server
  // loop, flight recorder), so it is declared before them and destroyed
  // last; the destructor drains the rings, losing nothing accepted.
  obs::LoggerOptions logopt;
  logopt.min_level = obs::log_level_from_string(log_level);
  logopt.path = log_file;
  logopt.rate_limit_per_sec = log_rate;
  obs::Logger logger(logopt);
  obs::Logger::install_global(&logger);

  // Trace sink for wire tracing: propagated trace ids land here as
  // queue/dispatch/kernel spans, surfaced through /tracez and the flight
  // recorder's Chrome-trace dump.
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (trace_events > 0) {
    try {
      trace_sink = std::make_unique<obs::TraceSink>(trace_events);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    opt.obs.trace_sink = trace_sink.get();
  }

  // The mapping is declared before the service: the service serves
  // sequences and batch columns straight out of it for its whole lifetime.
  std::unique_ptr<core::MappedDb> mapped;
  seq::SequenceDatabase db;
  // Artifact routing: the magic sniff, OR the .swdb extension — so a
  // corrupted artifact (bad magic included) still reaches the reader and
  // comes back as a typed invalid_artifact error instead of being
  // misparsed as FASTA.
  const bool is_artifact =
      !db_path.empty() &&
      (core::file_has_swdb_magic(db_path) ||
       (db_path.size() > 5 &&
        db_path.compare(db_path.size() - 5, 5, ".swdb") == 0));
  if (is_artifact) {
    auto opened = core::MappedDb::open(db_path);
    if (!opened) {
      std::fprintf(stderr, "swve_server: %s (%s)\n",
                   opened.error().message.c_str(),
                   core::ConfigError::code_name(opened.error().code));
      return 1;
    }
    mapped = std::move(opened.value());
  } else if (!db_path.empty()) {
    try {
      db = seq::SequenceDatabase::from_fasta_file(db_path, alphabet);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "swve_server: cannot load %s: %s\n",
                   db_path.c_str(), e.what());
      return 1;
    }
  } else {
    seq::SyntheticConfig scfg;
    scfg.seed = seed;
    scfg.kind = dna ? seq::AlphabetKind::Dna : seq::AlphabetKind::Protein;
    scfg.target_residues = synthetic_residues;
    db = seq::SequenceDatabase::synthetic(scfg);
  }

  std::unique_ptr<service::AlignService> svc_holder =
      mapped ? std::make_unique<service::AlignService>(*mapped, opt)
             : std::make_unique<service::AlignService>(db, opt);
  service::AlignService& svc = *svc_holder;
  auto started = net::Server::start(svc);
  if (!started) {
    std::fprintf(stderr, "swve_server: %s\n", started.error().message.c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = std::move(started.value());

  // SIGTERM/SIGINT: the flight recorder dumps (when --flight-out is set),
  // pokes the server's term eventfd, and returns — the drain below owns
  // process exit.
  obs::FlightRecorder recorder;
  obs::FlightRecorderOptions fr;
  fr.path = flight_out;
  fr.sink = trace_sink.get();
  fr.registry = svc.registry();
  fr.inflight = svc.inflight();
  fr.notify_fd = server->term_fd();
  fr.exit_on_term = false;
  recorder.install(fr);

  const seq::SequenceDatabase& served = *svc.database();
  std::fprintf(stderr,
               "swve_server: listening on %s:%u (%zu sequences, %llu "
               "residues, db source %s, db load %.1f ms, matrix %s, "
               "cache %zu, singleflight %s)\n",
               svc.options().serve.bind.c_str(), server->port(),
               served.sequences().size(),
               static_cast<unsigned long long>(served.total_residues()),
               core::db_source_name(svc.db_source()),
               svc.db_load_seconds() * 1e3, matrix_name.c_str(),
               opt.serve.result_cache_capacity,
               opt.serve.singleflight ? "on" : "off");
  if (const align::ShardedSearch* sh = svc.sharded()) {
    std::fprintf(stderr,
                 "swve_server: batch search: %zu shard(s)%s, numa %s, %zu "
                 "node(s)%s\n",
                 sh->shard_count(),
                 sh->shard_count() == 1 ? " on the service pool" : "",
                 parallel::numa_policy_name(sh->numa_policy()),
                 sh->topology().nodes.size(),
                 sh->topology().synthetic ? " (synthetic topology)" : "");
    obs::log_info("server.shards",
                  {{"shards", sh->shard_count()},
                   {"numa", parallel::numa_policy_name(sh->numa_policy())},
                   {"nodes", sh->topology().nodes.size()}});
  }
  obs::log_info("server.start",
                {{"port", static_cast<unsigned>(server->port())},
                 {"sequences", served.sequences().size()},
                 {"residues", served.total_residues()},
                 {"db_source", core::db_source_name(svc.db_source())},
                 {"db_load_ms", svc.db_load_seconds() * 1e3},
                 {"db_map_bytes", svc.db_map_bytes()},
                 {"cache_entries", opt.serve.result_cache_capacity},
                 {"singleflight", opt.serve.singleflight}});

  server->join();  // runs until SIGTERM/SIGINT starts (and finishes) a drain

  const perf::MetricsSnapshot snap = server->metrics();
  std::fprintf(stderr,
               "swve_server: drained; %llu requests, cache hit rate %.2f, "
               "dedup ratio %.2f\n",
               static_cast<unsigned long long>(snap.completed),
               snap.result_cache_hit_rate(), snap.dedup_ratio());
  obs::log_info("server.exit", {{"completed", snap.completed},
                                {"cache_hits", snap.result_cache_hits},
                                {"coalesced", snap.coalesced}});
  return 0;
}
