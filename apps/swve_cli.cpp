// swve — command-line front end.
//
//   swve align  [options] QUERY.fa TARGET.fa     pairwise alignment
//   swve search [options] QUERY.fa DB.fa         scenario-1 database search
//   swve batch  [options] QUERIES.fa DB.fa       scenario-2 batched server
//   swve info                                    CPU/ISA/build report
//
// All three alignment commands go through service::AlignService — the same
// async, instrumented front door a server embedding would use — and wait on
// service::submit_future, so `--metrics` and `--deadline-ms` work
// uniformly. A failed request prints "swve: request failed (<code>): <message>"
// and exits 1.
//
// Common options:
//   --matrix NAME        blosum45/50/62/80/90, pam120/250, dna_iupac
//   --match N --mismatch N   fixed scoring instead of a matrix
//   --open N --extend N  affine gap penalties (default 11/1)
//   --linear N           linear gap penalty N
//   --band N             banded alignment |i-j| <= N
//   --isa NAME           scalar/avx2/avx512/auto
//   --width 8|16|32|auto DP integer width
//   --top K              hits per query (search/batch; default 10)
//   --threads N          worker threads (default: hardware)
//   --deadline-ms N      fail the request if not done within N ms
//   --metrics            dump the service metrics snapshot to stderr
//   --metrics-format=F   metrics exposition format: text | prom | json
//                        (implies --metrics)
//   --trace-out FILE     write a Chrome trace-event JSON (Perfetto /
//                        chrome://tracing) of the request's spans to FILE
//   --sample-period-ms N tick the telemetry history every N ms and dump it
//                        (frequency probe, QPS, GCUPS, ...) to stderr on exit
//                        as one JSON line prefixed "telemetry: "
//   --flight-out FILE    install the flight recorder: on SIGSEGV/SIGABRT or
//                        SIGTERM/SIGINT, dump trace ring + metrics snapshot +
//                        in-flight request table to FILE (also flushes
//                        --trace-out), then exit/re-raise
//   --slo-ms N           latency SLO: the watchdog emits a structured
//                        slow-request record for any request executing
//                        longer than N ms
//   --no-pmu             disable span-scoped hardware-counter attribution
//                        (the swve_pmu_* cells of --metrics: cycles,
//                        instructions, stalls and misses per ISA x kernel
//                        x width)
//   --dna                parse sequences with the DNA alphabet
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "swve.hpp"

using namespace swve;

namespace {

struct CliOptions {
  align::AlignConfig cfg;
  std::string matrix_name = "blosum62";
  size_t top_k = 10;
  unsigned threads = 0;
  bool dna = false;
  bool metrics = false;
  obs::MetricsFormat metrics_format = obs::MetricsFormat::Text;
  std::string trace_out;
  int sample_period_ms = 0;  // 0 = service default cadence, no dump
  int deadline_ms = 0;  // 0 = none
  std::string flight_out;    // flight-recorder dump path ("" = not installed)
  int slo_ms = 0;            // 0 = watchdog off
  bool no_pmu = false;
  std::vector<std::string> positional;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(
      "usage: swve <align|search|batch|info> [options] FILES...\n"
      "  swve align  QUERY.fa TARGET.fa   pairwise (first record of each)\n"
      "  swve search QUERY.fa DB.fa       one query vs database, top hits\n"
      "  swve batch  QUERIES.fa DB.fa     many queries vs database\n"
      "  swve info                        CPU / ISA / calibration report\n"
      "options: --matrix NAME | --match N --mismatch N | --open N --extend N\n"
      "         --linear N | --band N | --isa NAME | --width 8|16|32|auto\n"
      "         --top K | --threads N | --deadline-ms N | --metrics | --dna\n"
      "         --metrics-format=text|prom|json | --trace-out FILE\n"
      "         --sample-period-ms N | --flight-out FILE | --slo-ms N\n"
      "         --no-pmu\n",
      stderr);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  bool fixed = false;
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    if (s == "--matrix") o.matrix_name = next();
    else if (s == "--match") { o.cfg.match = std::atoi(next()); fixed = true; }
    else if (s == "--mismatch") { o.cfg.mismatch = std::atoi(next()); fixed = true; }
    else if (s == "--open") o.cfg.gap_open = std::atoi(next());
    else if (s == "--extend") o.cfg.gap_extend = std::atoi(next());
    else if (s == "--linear") {
      o.cfg.gap_model = core::GapModel::Linear;
      o.cfg.gap_extend = std::atoi(next());
    } else if (s == "--band") o.cfg.band = std::atoi(next());
    else if (s == "--isa") o.cfg.isa = simd::isa_from_string(next());
    else if (s == "--width") {
      std::string w = next();
      o.cfg.width = w == "8"    ? core::Width::W8
                    : w == "16" ? core::Width::W16
                    : w == "32" ? core::Width::W32
                                : core::Width::Adaptive;
    } else if (s == "--top") o.top_k = std::strtoul(next(), nullptr, 10);
    else if (s == "--threads") o.threads = static_cast<unsigned>(std::atoi(next()));
    else if (s == "--deadline-ms") o.deadline_ms = std::atoi(next());
    else if (s == "--metrics") o.metrics = true;
    else if (s.rfind("--metrics-format", 0) == 0) {
      const std::string v = s.size() > 16 && s[16] == '=' ? s.substr(17) : next();
      auto fmt = obs::metrics_format_from_string(v);
      if (!fmt) usage(("unknown metrics format " + v).c_str());
      o.metrics_format = *fmt;
      o.metrics = true;
    }
    else if (s == "--trace-out") o.trace_out = next();
    else if (s == "--flight-out") o.flight_out = next();
    else if (s == "--slo-ms") o.slo_ms = std::atoi(next());
    else if (s == "--no-pmu") o.no_pmu = true;
    else if (s == "--sample-period-ms") o.sample_period_ms = std::atoi(next());
    else if (s == "--dna") o.dna = true;
    else if (s == "--help") usage();
    else if (s.rfind("--", 0) == 0) usage(("unknown option " + s).c_str());
    else o.positional.push_back(s);
  }
  if (fixed) {
    o.cfg.scheme = core::ScoreScheme::Fixed;
  } else {
    const matrix::ScoreMatrix* m = matrix::ScoreMatrix::find(o.matrix_name);
    if (!m) usage(("unknown matrix " + o.matrix_name).c_str());
    o.cfg.matrix = m;
    if (m->alphabet().kind() == seq::AlphabetKind::Dna) o.dna = true;
  }
  o.cfg.validate();
  return o;
}

const seq::Alphabet& alpha(const CliOptions& o) {
  return o.dna ? seq::Alphabet::dna() : seq::Alphabet::protein();
}

service::ServiceOptions service_options(const CliOptions& o,
                                        obs::TraceSink* sink) {
  service::ServiceOptions so;
  so.pool_threads = o.threads;
  so.config = o.cfg;
  so.default_top_k = o.top_k;
  so.obs.trace_sink = sink;
  if (o.sample_period_ms > 0)
    so.serve.telemetry_cadence_s = o.sample_period_ms * 1e-3;
  so.obs.pmu_attribution = !o.no_pmu;
  so.obs.slow_request_slo_s = o.slo_ms > 0 ? o.slo_ms * 1e-3 : 0;
  return so;
}

/// Report a failed request; the command's exit status.
int request_failed(const core::ConfigError& e) {
  std::fprintf(stderr, "swve: request failed (%s): %s\n",
               core::ConfigError::code_name(e.code), e.message.c_str());
  return 1;
}

/// Sink for the service to record into when --trace-out or --flight-out was
/// given (must be constructed before — and so outlive — the AlignService).
std::unique_ptr<obs::TraceSink> make_sink(const CliOptions& o) {
  return o.trace_out.empty() && o.flight_out.empty()
             ? nullptr
             : std::make_unique<obs::TraceSink>();
}

/// Install the flight recorder over the service's observability state, so
/// SIGTERM/SIGINT (and crashes) flush --trace-out and dump the black box
/// instead of losing everything. No-op when neither --flight-out nor
/// --trace-out was given. The recorder must be declared after the service:
/// its destructor uninstalls the handlers before the service (whose
/// registry/in-flight table they read) is torn down.
void install_recorder(obs::FlightRecorder& rec, const CliOptions& o,
                      service::AlignService& svc, obs::TraceSink* sink) {
  if (o.flight_out.empty() && o.trace_out.empty()) return;
  obs::FlightRecorderOptions fo;
  fo.path = o.flight_out;
  fo.trace_out = o.trace_out;
  fo.sink = sink;
  fo.registry = svc.registry();
  fo.inflight = svc.inflight();
  rec.install(fo);
}

void apply_deadline(service::RequestOptions& ro, const CliOptions& o) {
  if (o.deadline_ms > 0)
    ro.deadline = std::chrono::milliseconds(o.deadline_ms);
}

/// End-of-command observability dump: metrics in the chosen format, the
/// telemetry history, and the Chrome trace file.
void dump_observability(const CliOptions& o, const service::AlignService& svc,
                        const obs::TraceSink* sink) {
  if (o.metrics)
    std::fputs(svc.dump_metrics(o.metrics_format).c_str(), stderr);
  // The service keeps telemetry on by default; the dump stays tied to the
  // explicit --sample-period-ms opt-in.
  if (o.sample_period_ms > 0 && svc.timeseries()) {
    std::string json = svc.timeseries()->json();
    std::erase(json, '\n');
    std::fprintf(stderr, "telemetry: %s\n", json.c_str());
  }
  if (sink && !o.trace_out.empty()) {
    const std::string json = sink->chrome_trace_json();
    std::FILE* f = std::fopen(o.trace_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "swve: cannot write %s\n", o.trace_out.c_str());
      return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                 sink->snapshot_events().size(), o.trace_out.c_str());
  }
}

int cmd_info() {
  const auto& f = simd::cpu_features();
  std::printf("swve %s\n", "1.0.0");
  std::printf("cpu: sse4.1=%d avx2=%d avx512(bw/vl)=%d vbmi=%d, %u hardware threads\n",
              f.sse41, f.avx2, f.avx512bw_vl, f.avx512vbmi, f.hardware_threads);
  std::printf("resolved ISA: %s\n", simd::isa_name(simd::resolve_isa(simd::Isa::Auto)));
  perf::FreqSample fs = perf::measure_frequency(50);
  std::printf("effective frequency: %.2f GHz\n", fs.ghz);
  std::printf("built-in matrices:");
  for (const auto& n : matrix::ScoreMatrix::builtin_names()) std::printf(" %s", n.c_str());
  std::printf(" dna_iupac\n");
  return 0;
}

int cmd_align(const CliOptions& o) {
  if (o.positional.size() != 2) usage("align needs QUERY.fa TARGET.fa");
  auto qs = seq::read_fasta_file(o.positional[0], alpha(o));
  auto ts = seq::read_fasta_file(o.positional[1], alpha(o));
  if (qs.empty() || ts.empty()) usage("empty FASTA input");

  auto sink = make_sink(o);
  service::ServiceOptions so = service_options(o, sink.get());
  so.config.traceback = true;
  so.config.max_traceback_cells = uint64_t{1} << 34;
  service::AlignService svc(so);
  obs::FlightRecorder rec;
  install_recorder(rec, o, svc, sink.get());

  service::AlignRequest rq;
  rq.query = qs[0];
  rq.reference = ts[0];
  apply_deadline(rq.options, o);
  auto out = service::submit_future(svc, std::move(rq)).get();
  if (!out) return request_failed(out.error());
  const service::AlignResponse& resp = *out;
  const core::Alignment& a = resp.alignment;

  align::AlignmentStats st = align::alignment_stats(qs[0], ts[0], a);
  std::printf("%s x %s: score %d, identity %.1f%%, cigar %s\n", qs[0].id().c_str(),
              ts[0].id().c_str(), a.score, 100 * st.identity(),
              a.cigar.to_string().c_str());
  std::printf("query [%d,%d]  target [%d,%d]  (%s, %d-bit%s)\n\n", a.begin_query,
              a.end_query, a.begin_ref, a.end_ref, simd::isa_name(a.isa_used),
              a.width_used == core::Width::W8 ? 8
              : a.width_used == core::Width::W16 ? 16 : 32,
              a.saturated_8 ? ", 8-bit saturated" : "");
  std::fputs(align::format_alignment(qs[0], ts[0], a).c_str(), stdout);
  dump_observability(o, svc, sink.get());
  return 0;
}

int cmd_search(const CliOptions& o) {
  if (o.positional.size() != 2) usage("search needs QUERY.fa DB.fa");
  auto qs = seq::read_fasta_file(o.positional[0], alpha(o));
  if (qs.empty()) usage("empty query FASTA");
  seq::SequenceDatabase db =
      seq::SequenceDatabase::from_fasta_file(o.positional[1], alpha(o));

  auto sink = make_sink(o);
  service::AlignService svc(db, service_options(o, sink.get()));
  obs::FlightRecorder rec;
  install_recorder(rec, o, svc, sink.get());
  service::SearchRequest rq;
  rq.query = qs[0];
  apply_deadline(rq.options, o);
  auto out = service::submit_future(svc, std::move(rq)).get();
  if (!out) return request_failed(out.error());
  const service::SearchResponse& resp = *out;
  const align::SearchResult& res = resp.result;

  std::fprintf(stderr, "searched %zu sequences (%llu residues) in %.3f s, %.2f GCUPS\n",
               db.size(), static_cast<unsigned long long>(db.total_residues()),
               res.seconds, res.gcups());
  std::printf("query\ttarget\tscore\tend_q\tend_t\n");
  for (const auto& h : res.hits)
    std::printf("%s\t%s\t%d\t%d\t%d\n", qs[0].id().c_str(),
                db[h.seq_index].id().c_str(), h.score, h.end_query, h.end_ref);
  dump_observability(o, svc, sink.get());
  return 0;
}

int cmd_batch(const CliOptions& o) {
  if (o.positional.size() != 2) usage("batch needs QUERIES.fa DB.fa");
  auto qs = seq::read_fasta_file(o.positional[0], alpha(o));
  if (qs.empty()) usage("empty queries FASTA");
  seq::SequenceDatabase db =
      seq::SequenceDatabase::from_fasta_file(o.positional[1], alpha(o));

  auto sink = make_sink(o);
  service::AlignService svc(db, service_options(o, sink.get()));
  obs::FlightRecorder rec;
  install_recorder(rec, o, svc, sink.get());
  service::BatchRequest rq;
  rq.queries = qs;
  apply_deadline(rq.options, o);
  perf::Stopwatch sw;
  auto out = service::submit_future(svc, std::move(rq)).get();
  if (!out) return request_failed(out.error());
  const service::BatchResponse& resp = *out;

  uint64_t cells = 0;
  for (const auto& q : qs) cells += q.length() * db.total_residues();
  std::fprintf(stderr, "%zu queries x %zu sequences in %.3f s, %.2f GCUPS (%d lanes)\n",
               qs.size(), db.size(), sw.seconds(), perf::gcups(cells, sw.seconds()),
               svc.batch_lanes());
  std::printf("query\ttarget\tscore\n");
  for (size_t qi = 0; qi < qs.size(); ++qi)
    for (const auto& h : resp.results[qi].hits)
      std::printf("%s\t%s\t%d\n", qs[qi].id().c_str(), db[h.seq_index].id().c_str(),
                  h.score);
  dump_observability(o, svc, sink.get());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info();
    CliOptions o = parse(argc, argv);
    if (cmd == "align") return cmd_align(o);
    if (cmd == "search") return cmd_search(o);
    if (cmd == "batch") return cmd_batch(o);
    usage(("unknown command " + cmd).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swve: %s\n", e.what());
    return 1;
  }
}
