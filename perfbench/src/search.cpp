// Workload `search`: interactive database search over the wire.
//
// One connection, closed loop, distinct protein queries with lengths
// log-uniform over the paper's 64-2048 ladder, SearchMode::Batch, top-10,
// against a Swiss-Prot-like database written once as a .swdb artifact and
// served through MappedDb (the `swve_server --db x.swdb` path). A share of
// the database are mutated copies of the queries, so some 8-bit lanes
// saturate and are re-scored, as real homolog hits are. Every request
// misses the result cache: the time is in the batch32 kernel, the pool
// fan-out, top-k and phase-2 re-alignment.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <stdexcept>

#include "align/db_search.hpp"
#include "align/query_cache.hpp"
#include "bench.hpp"
#include "core/batch32.hpp"
#include "core/db_format.hpp"
#include "core/dispatch.hpp"
#include "core/mapped_db.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "perf/freq_monitor.hpp"
#include "seq/synthetic.hpp"

namespace perfbench {
namespace {

using namespace swve;

// Generator parameters (recorded as run inputs).
constexpr uint64_t kDbResidues = 9'000'000;  // packed > 8 MiB L2, << L3
constexpr uint32_t kMinLen = 64;
constexpr uint32_t kMaxLen = 2048;
constexpr size_t kStrata = 32;       // queries per round, one per stratum
constexpr size_t kRounds = 8;        // distinct queries = kStrata * kRounds
constexpr double kHomologRate = 0.25;  // substitution rate of query copies
constexpr size_t kTopK = 10;
constexpr size_t kMinSamples = 100;  // p90 with 10 samples beyond it
constexpr uint32_t kWarmupLen = 128;
constexpr size_t kGateQueries = 3;   // shortest queries re-checked

struct Inputs {
  std::vector<seq::Sequence> queries;  // round-major, kStrata per round
  seq::Sequence warmup;
};

// Queries and the warm-up query. The database is built separately because
// it embeds mutated copies of the queries.
Inputs make_queries(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Inputs in;
  for (size_t round = 0; round < kRounds; ++round)
    for (uint32_t len : stratified_log_uniform(rng, kStrata, kMinLen, kMaxLen))
      in.queries.push_back(seq::generate_sequence(rng.next(), len));
  in.warmup = seq::generate_sequence(rng.next(), kWarmupLen);
  return in;
}

seq::SequenceDatabase make_database(uint64_t seed, const Inputs& in) {
  Rng rng(seed * 0xd1b54a32d192ed03ull + 2);
  seq::SyntheticConfig cfg;
  cfg.seed = rng.next();
  cfg.target_residues = kDbResidues;
  std::vector<seq::Sequence> seqs = seq::generate_database(cfg);
  // One mutated copy of every query replaces a random database sequence.
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const size_t pos = static_cast<size_t>(rng.below(seqs.size()));
    seqs[pos] = seq::mutate(in.queries[i], rng.next(), kHomologRate);
  }
  return seq::SequenceDatabase(std::move(seqs));
}

std::string artifact_path(const Args& args) {
  return args.out_dir + "/search-seed" + std::to_string(args.seed) + ".swdb";
}

service::SearchRequest make_request(const seq::Sequence& q) {
  service::SearchRequest rq;
  rq.query = q;
  rq.mode = align::SearchMode::Batch;
  rq.options.top_k = kTopK;
  return rq;
}

// One full serving stack over an opened artifact.
struct Stack {
  obs::TraceSink sink{8192};
  std::unique_ptr<core::MappedDb> mapped;
  std::unique_ptr<service::AlignService> svc;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
};

// Open the artifact, start service and server, connect, and get one fixed
// warm-up reply. Returns false with a message on failure.
bool start_stack(Stack& s, const std::string& path,
                 const seq::Sequence& warmup, std::string* err) {
  auto opened = core::MappedDb::open(path);
  if (!opened) {
    *err = "open " + path + ": " + opened.error().message;
    return false;
  }
  s.mapped = std::move(opened.value());
  s.svc = std::make_unique<service::AlignService>(
      *s.mapped, shipped_server_options(s.sink));
  auto started = net::Server::start(*s.svc);
  if (!started) {
    *err = "server: " + started.error().message;
    return false;
  }
  s.server = std::move(started.value());
  auto conn = net::Client::connect("127.0.0.1", s.server->port(), 60.0);
  if (!conn) {
    *err = "connect: " + conn.error().message;
    return false;
  }
  s.client = std::move(conn.value());
  auto reply = s.client->search(make_request(warmup));
  if (!reply.ok()) {
    *err = "warm-up reply: " + reply.error;
    return false;
  }
  return true;
}

std::vector<std::pair<uint32_t, int>> id_scores(const align::SearchResult& r) {
  std::vector<std::pair<uint32_t, int>> out;
  for (const align::Hit& h : r.hits) out.emplace_back(h.seq_index, h.score);
  return out;
}

// Per-request record of the wire phase.
struct Sample {
  size_t query = 0;
  double t0 = 0;  ///< send time
  double rtt_s = 0;
  bool ok = false;
  uint8_t flags = 0;  ///< reply frame flags (kFlagFromCache, ...)
  std::optional<service::SearchResponse> resp;
  std::optional<net::ServerTiming> timing;
};

// Length rank of query `qi` within its round: with stratified lengths this
// is the stratum it was drawn from.
size_t stratum_of(const Inputs& in, size_t qi) {
  const size_t first = qi / kStrata * kStrata;
  size_t rank = 0;
  for (size_t k = first; k < first + kStrata; ++k)
    rank += in.queries[k].length() < in.queries[qi].length() ? 1 : 0;
  return rank;
}

// One closed-loop request for query `qi`; `traced` attaches a wire trace
// context, `flags` are extra frame flags (kFlagNoCache).
Sample send(Stack& s, const Inputs& in, size_t qi, bool traced,
            uint8_t flags = 0) {
  const service::SearchRequest rq = make_request(in.queries[qi]);
  s.client->enable_tracing(traced);
  const double t0 = now_s();
  auto reply = s.client->search(rq, flags);
  Sample x;
  x.query = qi;
  x.t0 = t0;
  x.rtt_s = now_s() - t0;
  x.ok = reply.ok() && reply.response && !reply.response->result.truncated;
  x.flags = reply.flags;
  x.timing = reply.timing;
  x.resp = std::move(reply.response);
  return x;
}

// Send every query of `round` once, untraced.
std::vector<Sample> wire_round(Stack& s, const Inputs& in, size_t round) {
  std::vector<Sample> out;
  for (size_t k = 0; k < kStrata; ++k)
    out.push_back(send(s, in, round * kStrata + k, false));
  return out;
}

// The kGateQueries shortest queries that got an Ok reply, with the reply.
std::vector<const Sample*> gate_samples(const Inputs& in,
                                        const std::vector<Sample>& xs) {
  std::vector<const Sample*> order;
  for (const Sample& x : xs)
    if (x.ok && x.resp) order.push_back(&x);
  std::sort(order.begin(), order.end(), [&](const Sample* a, const Sample* b) {
    return in.queries[a->query].length() < in.queries[b->query].length();
  });
  order.resize(std::min(kGateQueries, order.size()));
  return order;
}

// Gate: the diagonal engine's top-k over the same mapped database must
// equal the wire replies' (seq_index, score) lists for the gate queries.
void gate_diagonal(const Stack& s, const Inputs& in,
                   const std::vector<Sample>& xs, Report& r) {
  parallel::ThreadPool pool(s.svc->pool_threads());
  align::ExecContext ctx;
  ctx.pool = &pool;
  core::AlignConfig cfg;
  for (const Sample* xp : gate_samples(in, xs)) {
    const Sample& x = *xp;
    const align::SearchResult ref = align::engine::search_diagonal(
        s.mapped->db(), cfg, in.queries[x.query], kTopK, ctx);
    if (id_scores(ref) != id_scores(x.resp->result))
      r.fail("search: batch top-k of query " + std::to_string(x.query) +
             " differs from the diagonal engine's");
  }
}

// The reply's encoded bytes with the two measured durations zeroed: what
// the result cache promises to keep bit-identical.
std::string canonical_bytes(service::SearchResponse resp) {
  resp.result.seconds = 0;
  resp.trace.queue_wait_s = 0;
  resp.trace.kernel_s = 0;
  std::string bytes;
  net::encode_search_response(bytes, resp);
  return bytes;
}

// Gate: the gate queries, sent again, come from the result cache (the
// reply flag and the server's hit counter agree), and both the cached
// reply and a fresh kFlagNoCache execution are bit-identical to the first
// reply.
void gate_cache(Stack& s, const Inputs& in, const std::vector<Sample>& xs,
                Report& r) {
  const std::vector<const Sample*> gated = gate_samples(in, xs);
  const perf::MetricsSnapshot m0 = s.server->metrics();
  size_t flagged = 0;
  for (const Sample* x : gated) {
    const std::string first = canonical_bytes(*x->resp);
    const Sample cached = send(s, in, x->query, false);
    const Sample fresh = send(s, in, x->query, false, net::kFlagNoCache);
    if (!cached.ok || !fresh.ok) {
      r.fail("search: repeat of query " + std::to_string(x->query) +
             " failed");
      continue;
    }
    flagged += (cached.flags & net::kFlagFromCache) ? 1 : 0;
    if (canonical_bytes(*cached.resp) != first)
      r.fail("search: cached reply for query " + std::to_string(x->query) +
             " differs from the first reply");
    if (canonical_bytes(*fresh.resp) != first)
      r.fail("search: uncached repeat of query " + std::to_string(x->query) +
             " differs from the first reply");
  }
  const perf::MetricsSnapshot m1 = s.server->metrics();
  if (flagged != gated.size() ||
      m1.result_cache_hits - m0.result_cache_hits != gated.size())
    r.fail("search: " + std::to_string(flagged) + " of " +
           std::to_string(gated.size()) +
           " repeats flagged from the cache, server counted " +
           std::to_string(m1.result_cache_hits - m0.result_cache_hits));
  std::printf("gate search: %zu queries repeated through the cache\n",
              gated.size());
}

// Input properties every later claim must cite.
void record_inputs(const Stack& s, const std::vector<Sample>& xs,
                   Report& r) {
  uint64_t cells8 = 0, useful8 = 0, rescored = 0, scanned = 0;
  for (const Sample& x : xs) {
    if (!x.resp) continue;
    cells8 += x.resp->result.batch_stats.cells8;
    useful8 += x.resp->result.batch_stats.useful_cells8;
    rescored += x.resp->result.batch_stats.rescored;
    scanned += s.mapped->db().size();
  }
  r.input("db_residues", static_cast<double>(s.mapped->db().total_residues()));
  r.input("db_sequences", static_cast<double>(s.mapped->db().size()));
  const core::Batch32Db& bdb = s.mapped->batch_db();
  r.input("packed_bytes",
          static_cast<double>(bdb.column_bytes().size() +
                              bdb.seq_index_data().size_bytes() +
                              bdb.seq_len_data().size_bytes() +
                              bdb.batch_records().size_bytes()));
  r.input("artifact_bytes", static_cast<double>(s.mapped->mapped_bytes()));
  r.input("l2_bytes_total", static_cast<double>(r.fingerprint.l2_bytes_total));
  r.input("l3_bytes", static_cast<double>(r.fingerprint.l3_bytes));
  r.input("lanes", s.mapped->batch_db().lanes());
  r.input("query_len_min", kMinLen);
  r.input("query_len_max", kMaxLen);
  r.input("queries_per_round", static_cast<double>(kStrata));
  r.input("homolog_substitution_rate", kHomologRate);
  r.input("top_k", static_cast<double>(kTopK));
  r.input("requests", static_cast<double>(xs.size()));
  r.input("rescore_share",
          scanned ? static_cast<double>(rescored) / static_cast<double>(scanned)
                  : 0);
  r.input("useful_cell_frac",
          cells8 ? static_cast<double>(useful8) / static_cast<double>(cells8)
                 : 0);
}

// Batch-mode single-thread kernel pass over every packed batch.
struct KernelPass {
  double seconds = 0;
  double padded_cells = 0;
};
KernelPass batch32_pass(const core::Batch32Db& bdb, const seq::Sequence& q) {
  core::AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  const int k = core::resolved_ilp(isa);
  core::Workspace ws;
  KernelPass p;
  const double t0 = now_s();
  for (size_t b = 0; b < bdb.batch_count();) {
    const int group = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(k), bdb.batch_count() - b));
    core::BatchCols cols[core::kMaxBatchInterleave];
    core::Batch8Result out[core::kMaxBatchInterleave];
    for (int g = 0; g < group; ++g) {
      const core::Batch32Db::Batch batch = bdb.batch(b + static_cast<size_t>(g));
      cols[g] = core::BatchCols{batch.columns, batch.max_len};
      p.padded_cells += static_cast<double>(batch.max_len) *
                        static_cast<double>(bdb.lanes()) *
                        static_cast<double>(q.length());
    }
    core::batch32_align_u8_group(q, cols, group, bdb.lanes(), cfg, ws, isa, k,
                                 out);
    b += static_cast<size_t>(group);
  }
  p.seconds = now_s() - t0;
  return p;
}

// Submit one search to the in-process service and wait for it.
core::ErrorOr<service::SearchResponse> submit_wait(service::AlignService& svc,
                                                   const seq::Sequence& q) {
  std::promise<core::ErrorOr<service::SearchResponse>> done;
  auto fut = done.get_future();
  svc.submit_async(make_request(q),
                   [&done](core::ErrorOr<service::SearchResponse> resp) {
                     done.set_value(std::move(resp));
                   });
  return fut.get();
}

void traced_layers(Stack& s, const Inputs& in, const Args& args,
                   Tracer& tracer, double pack_ms, Report& r) {
  const double res = static_cast<double>(s.mapped->db().total_residues());
  auto cells = [&](size_t qi) {
    return static_cast<double>(in.queries[qi].length()) * res;
  };
  const perf::MetricsSnapshot m0 = s.server->metrics();
  const double w0 = now_s();

  // Wire: the even length strata of round 0, each sent once traced and
  // once untraced (the second send with kFlagNoCache, so it executes
  // again); which goes first alternates. The traced and untraced halves
  // then run the same queries, and their time ratio is the overhead.
  std::vector<Sample> traced, plain;
  size_t pair = 0;
  for (size_t qi = 0; qi < kStrata; ++qi) {
    if (stratum_of(in, qi) % 2 != 0) continue;
    const bool traced_first = pair++ % 2 == 0;
    Sample a = send(s, in, qi, traced_first);
    Sample b = send(s, in, qi, !traced_first, net::kFlagNoCache);
    traced.push_back(std::move(traced_first ? a : b));
    plain.push_back(std::move(traced_first ? b : a));
  }
  s.client->enable_tracing(false);
  const double wire_wall = now_s() - w0;
  const perf::MetricsSnapshot m1 = s.server->metrics();
  r.attempted = traced.size() + plain.size();
  for (const std::vector<Sample>* xs : {&traced, &plain})
    for (const Sample& x : *xs) r.failed += x.ok ? 0 : 1;
  // Distinct queries (and kFlagNoCache repeats) never come from the cache.
  if (m1.result_cache_hits != m0.result_cache_hits ||
      m1.coalesced != m0.coalesced)
    r.fail("search: distinct queries were served from the cache");

  // Spans: each round trip, with the client codec (measured on the same
  // frames) and the trailer's server-side parts as children; what the
  // children leave uncovered is the unattributed remainder.
  std::vector<double> codec_us, serialize_us, queue_us, exec_ms, net_self_us;
  for (const Sample& x : traced) {
    if (!x.ok || !x.timing || !x.resp) {
      r.fail("search: traced reply without timing trailer");
      continue;
    }
    const double c0 = now_s();
    std::string req_bytes, resp_bytes;
    net::encode_search_request(req_bytes, make_request(in.queries[x.query]));
    const auto req_back = net::decode_search_request(req_bytes);
    net::encode_search_response(resp_bytes, *x.resp);
    const auto resp_back = net::decode_search_response(resp_bytes);
    const double codec = now_s() - c0;
    if (!req_back || !resp_back) r.fail("search: codec round trip failed");
    const net::ServerTiming& t = *x.timing;
    codec_us.push_back(codec * 1e6);
    serialize_us.push_back(t.serialize_us);
    queue_us.push_back(t.queue_us);
    exec_ms.push_back(t.exec_us / 1e3);
    const double server_s = (t.queue_us + t.exec_us + t.serialize_us) * 1e-6;
    net_self_us.push_back((x.rtt_s - server_s) * 1e6);
    const uint64_t root = tracer.add("net.rtt", x.t0, x.t0 + x.rtt_s);
    double at = x.t0;
    for (const auto& [name, secs] :
         {std::pair<const char*, double>{"net.codec", codec},
          {"service.queue", t.queue_us * 1e-6},
          {"service.exec", t.exec_us * 1e-6},
          {"net.serialize", t.serialize_us * 1e-6}}) {
      tracer.add(name, at, at + secs, root);
      at += secs;
    }
  }
  const SpanTimes rtt = span_times(tracer.spans(), "net.rtt");
  double rtt_sum = 0, unattributed_sum = 0;
  for (size_t i = 0; i < rtt.total.size(); ++i) {
    rtt_sum += rtt.total[i];
    unattributed_sum += rtt.self[i];
  }

  // One layer down: every other traced query by length (eight, spanning
  // the ladder) through the in-process service, the DatabaseSearch facade
  // on a pool the size of the service's, phase-2 re-alignment and query
  // preparation.
  std::vector<size_t> by_len;
  for (const Sample& x : traced) by_len.push_back(x.query);
  std::sort(by_len.begin(), by_len.end(), [&](size_t a, size_t b) {
    return in.queries[a].length() < in.queries[b].length();
  });
  std::vector<size_t> subset;
  for (size_t k = 0; k < by_len.size(); k += 2) subset.push_back(by_len[k]);
  if (subset.size() < 7)
    throw std::runtime_error("search: too few traced replies to replay");
  // Parallel scaling and the single-thread kernel: three mid-ladder ones.
  const std::vector<size_t> mid = {subset[2], subset[4], subset[6]};

  core::AlignConfig cfg;
  align::DatabaseSearch ds(s.mapped->db(), s.mapped->batch_db(), cfg);
  parallel::ThreadPool pool_n(s.svc->pool_threads());
  parallel::ThreadPool pool_1(1);
  core::Workspace ws;
  std::vector<double> search_ms, realign_ms, prepare_us;
  double svc_exec_sum = 0, wire_exec_sum = 0, search_sum = 0;
  double cells_n = 0, secs_n = 0;
  double diag_cells = 0, diag_secs = 0;
  size_t diag_pairs = 0, diag_widened = 0;
  const perf::MetricsSnapshot s0 = s.svc->metrics();
  for (size_t qi : subset) {
    const seq::Sequence& q = in.queries[qi];
    const double a0 = now_s();
    const core::ErrorOr<service::SearchResponse> resp = submit_wait(*s.svc, q);
    const double a1 = now_s();
    if (!resp) {
      r.fail("search: in-process replay failed: " + resp.error().message);
      continue;
    }
    const double qw = resp->trace.queue_wait_s, ks = resp->trace.kernel_s;
    const uint64_t root = tracer.add("service.request", a0, a1);
    tracer.add("service.queue", a0, a0 + qw, root);
    tracer.add("service.exec", a0 + qw, a0 + qw + ks, root);
    svc_exec_sum += ks;
    for (const Sample& x : traced)
      if (x.query == qi) wire_exec_sum += x.timing->exec_us * 1e-6;

    const double b0 = now_s();
    const align::SearchResult sr = ds.search(q, kTopK, &pool_n);
    const double b1 = now_s();
    tracer.add("align.search", b0, b1);
    search_ms.push_back((b1 - b0) * 1e3);
    search_sum += b1 - b0;
    if (id_scores(sr) != id_scores(resp->result))
      r.fail("search: DatabaseSearch and the service disagree");
    if (std::find(mid.begin(), mid.end(), qi) != mid.end()) {
      cells_n += cells(qi);
      secs_n += b1 - b0;
    }

    const uint64_t parent = tracer.reserve();
    const double c0 = now_s();
    for (const align::Hit& h : sr.hits) {
      const seq::Sequence& target = s.mapped->db()[h.seq_index];
      const double d0 = now_s();
      const core::Alignment a = core::diag_align(q, target, cfg, ws);
      const double d1 = now_s();
      tracer.add("core.diag_align", d0, d1, parent);
      if (a.score != h.score) r.fail("search: re-aligned score differs");
      diag_cells += static_cast<double>(q.length()) *
                    static_cast<double>(target.length());
      diag_secs += d1 - d0;
      diag_pairs++;
      if (a.width_used != core::Width::W8) diag_widened++;
    }
    const double c1 = now_s();
    tracer.add_reserved(parent, "align.realign", c0, c1);
    realign_ms.push_back((c1 - c0) * 1e3);

    align::QueryStateCache cold(1);
    const double p0 = now_s();
    const auto prep = cold.prepared(q, cfg);
    const double p1 = now_s();
    tracer.add("align.prepare", p0, p1);
    prepare_us.push_back((p1 - p0) * 1e6);
  }
  const perf::MetricsSnapshot s1 = s.svc->metrics();

  // The same mid-ladder queries on a one-thread pool, and straight through
  // the batch kernel on this thread.
  double cells_1 = 0, secs_1 = 0, k_cells = 0, k_padded = 0, k_secs = 0;
  const double ghz = perf::measure_frequency(50).ghz;
  for (size_t qi : mid) {
    const double t0 = now_s();
    ds.search(in.queries[qi], kTopK, &pool_1);
    const double t1 = now_s();
    tracer.add("align.search_1t", t0, t1);
    cells_1 += cells(qi);
    secs_1 += t1 - t0;
    const KernelPass kp = batch32_pass(s.mapped->batch_db(), in.queries[qi]);
    tracer.add("core.batch32_group_1t", t1, t1 + kp.seconds);
    k_cells += cells(qi);
    k_padded += kp.padded_cells;
    k_secs += kp.seconds;
  }

  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    const auto m = core::MappedDb::open(artifact_path(args));
    open_ms.push_back((now_s() - t0) * 1e3);
    if (!m) r.fail("search: artifact reopen failed");
  }

  // Budget check: the in-process replay's exec time should explain the
  // wire exec time of the same queries. Timing noise makes this a printed
  // check, not a gate.
  const double exec_ratio = svc_exec_sum / std::max(1e-9, wire_exec_sum);
  std::printf("budget search: in-process exec / wire exec = %.3f (%s)\n",
              exec_ratio,
              exec_ratio > 0.8 && exec_ratio < 1.25 ? "consistent"
                                                    : "MISMATCH");

  double cells8 = 0, useful8 = 0, rescored = 0;
  for (const Sample& x : traced) {
    cells8 += static_cast<double>(x.resp->result.batch_stats.cells8);
    useful8 += static_cast<double>(x.resp->result.batch_stats.useful_cells8);
    rescored += static_cast<double>(x.resp->result.batch_stats.rescored);
  }
  const uint64_t submitted = s1.submitted - s0.submitted;
  double c_traced = 0, c_plain = 0, w_traced = 0, w_plain = 0;
  for (const Sample& x : traced) c_traced += cells(x.query), w_traced += x.rtt_s;
  for (const Sample& x : plain) c_plain += cells(x.query), w_plain += x.rtt_s;
  const double g_traced = c_traced / w_traced, g_plain = c_plain / w_plain;
  const double gn = cells_n / secs_n, g1 = cells_1 / secs_1;
  const Pct self50 = percentile(net_self_us, 0.5);
  const Pct q50 = percentile(queue_us, 0.5);

  r.layer("net.self_us_p50", self50.value, "us", count_note(self50));
  r.layer("net.codec_us", median(codec_us), "us");
  r.layer("net.serialize_us", median(serialize_us), "us");
  r.layer("net.unattributed_frac", rtt_sum > 0 ? unattributed_sum / rtt_sum : 0,
          "ratio");
  r.layer("service.queue_us_p50", q50.value, "us", count_note(q50));
  r.layer("service.queue_us_p99", 0, "us", "n/a on search: n<1000");
  r.layer("service.exec_ms_p50", median(exec_ms), "ms");
  r.layer("service.self_us",
          (svc_exec_sum - search_sum) / static_cast<double>(subset.size()) * 1e6,
          "us", "mean in-process exec minus DatabaseSearch per query");
  r.layer("service.rejected_frac",
          submitted ? static_cast<double>(s1.rejected_queue_full -
                                          s0.rejected_queue_full) /
                          static_cast<double>(submitted)
                    : 0,
          "ratio");
  r.layer("align.search_ms_p50", median(search_ms), "ms",
          "n=" + std::to_string(search_ms.size()));
  r.layer("align.realign_ms", median(realign_ms), "ms");
  r.layer("align.prepare_us", median(prepare_us), "us");
  r.layer("align.useful_cell_frac", cells8 > 0 ? useful8 / cells8 : 0, "ratio");
  r.layer("align.rescore_frac",
          rescored / (static_cast<double>(traced.size()) *
                      static_cast<double>(s.mapped->db().size())),
          "ratio");
  r.layer("core.batch32_gcups_1t", k_cells / k_secs / 1e9, "GCUPS");
  r.layer("core.batch32_cells_per_cycle",
          ghz > 0 ? k_padded / (k_secs * ghz * 1e9) : 0, "cells/cycle",
          "padded cells; " + std::to_string(ghz) + " GHz measured");
  r.layer("core.batch32_lanes", s.mapped->batch_db().lanes(), "lanes",
          "cells/cycle ceiling at one vector op per cell");
  const std::string realigned =
      "phase-2 re-alignment of " + std::to_string(diag_pairs) + " hits";
  r.layer("core.diag_gcups_1t", diag_cells / diag_secs / 1e9, "GCUPS",
          realigned);
  r.layer("core.diag_us_per_pair",
          diag_secs / static_cast<double>(diag_pairs) * 1e6, "us", realigned);
  r.layer("core.widen_frac",
          static_cast<double>(diag_widened) / static_cast<double>(diag_pairs),
          "ratio", realigned);
  r.layer("core.mmap_open_ms", median(open_ms), "ms");
  r.layer("core.pack_ms", pack_ms, "ms", "artifact build packing");
  r.layer("parallel.busy_frac",
          (m1.pool_busy_seconds - m0.pool_busy_seconds) /
              (static_cast<double>(m1.pool_threads) * wire_wall),
          "ratio");
  r.layer("parallel.scaling_eff",
          g1 > 0 ? gn / (static_cast<double>(pool_n.size()) * g1) : 0, "ratio",
          "threads=" + std::to_string(pool_n.size()));
  r.layer("trace.overhead_frac", g_plain > 0 ? 1.0 - g_traced / g_plain : 0,
          "ratio", "gcups of the same queries traced vs untraced");
  record_inputs(s, traced, r);
}

}  // namespace

double write_search_artifact(const Args& args) {
  const Inputs in = make_queries(args.seed);
  const seq::SequenceDatabase db = make_database(args.seed, in);
  const double t0 = now_s();
  const core::Batch32Db bdb(db, host_batch_lanes());
  const double pack_ms = (now_s() - t0) * 1e3;
  auto wrote = core::write_swdb(db, bdb, args.write_artifact);
  if (!wrote) {
    std::fprintf(stderr, "write_swdb: %s\n", wrote.error().message.c_str());
    return -1;
  }
  return pack_ms;
}

double probe_search(const Args& args) {
  const Inputs in = make_queries(args.seed);
  Stack s;
  std::string err;
  const double t0 = now_s();
  if (!start_stack(s, args.artifact, in.warmup, &err)) {
    std::fprintf(stderr, "setup probe: %s\n", err.c_str());
    return -1;
  }
  return now_s() - t0;
}

void run_search(const Args& args, Report& r) {
  Tracer tracer(args.trace);
  const Inputs in = make_queries(args.seed);
  const std::string path = artifact_path(args);
  // Built in a child process, so generating and packing the database stays
  // out of this run's peak resident set.
  const double pack_ms = run_child(args, {"--write-artifact", path});
  if (pack_ms < 0) throw std::runtime_error("building the artifact failed");

  std::vector<double> setups;
  if (!args.trace) {
    setups = run_setup_probes(args, {"--artifact", path});
    if (setups.empty()) throw std::runtime_error("setup probes failed");
  }

  Stack s;
  std::string err;
  if (!start_stack(s, path, in.warmup, &err)) throw std::runtime_error(err);
  r.fingerprint.db_residues = s.mapped->db().total_residues();
  r.fingerprint.artifact_bytes = s.mapped->mapped_bytes();
  const uint64_t res = s.mapped->db().total_residues();

  if (args.trace) {
    traced_layers(s, in, args, tracer, pack_ms, r);
    tracer.write_json(args.out_dir + "/spans-search-seed" +
                      std::to_string(args.seed) + ".json");
    std::filesystem::remove(path);
    return;
  }

  // Timed phase: whole rounds until the time is up and the p90 has ten
  // samples beyond it.
  const double t0 = now_s();
  std::vector<Sample> xs;
  size_t round = 0;
  while (round < kRounds &&
         (now_s() - t0 < args.seconds || xs.size() < kMinSamples)) {
    std::vector<Sample> more = wire_round(s, in, round);
    for (Sample& x : more) xs.push_back(std::move(x));
    ++round;
  }
  const double wall = now_s() - t0;
  // Read before the gates, so only set-up and the timed phase count.
  const double rss_mb = peak_rss_mb();

  std::vector<double> lat_ms;
  double cells = 0;
  size_t failed = 0;
  for (const Sample& x : xs) {
    if (!x.ok) {
      failed++;
      continue;
    }
    lat_ms.push_back(x.rtt_s * 1e3);
    cells += static_cast<double>(in.queries[x.query].length()) *
             static_cast<double>(res);
  }
  r.attempted = xs.size();
  r.failed = failed;
  gate_diagonal(s, in, xs, r);
  gate_cache(s, in, xs, r);
  record_inputs(s, xs, r);

  const Pct p50 = percentile(lat_ms, 0.5);
  const Pct p90 = percentile(lat_ms, 0.9);
  if (!p90.valid) r.fail("search: p90 has fewer than 10 samples beyond it");
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(xs.size());
  r.e2e("gcups", cells / wall / 1e9, "GCUPS");
  r.e2e("p50_ms", p50.value, "ms", count_note(p50));
  r.e2e("tail_ms", p90.value, "ms", "p90, " + count_note(p90));
  r.e2e("max_qps", static_cast<double>(xs.size() - failed) / wall, "req/s",
        "closed loop, 1 connection");
  r.e2e("setup_s", median(setups), "s",
        std::to_string(setups.size()) + " cold starts");
  r.e2e("peak_rss_mb", rss_mb, "MiB");
  std::printf("metric search p90_ms %.6g ms  # %s\n", p90.value,
              count_note(p90).c_str());
  std::printf("metric search failed_frac %.6g ratio\n", failed_frac);
  s.client.reset();
  s.server.reset();
  s.svc.reset();
  s.mapped.reset();
  std::filesystem::remove(path);
}

}  // namespace perfbench
