// Fig 13: the three Smith-Waterman usage scenarios (§II-C / §IV-G).
//   1. single query streamed against the database (threads split the db);
//   2. a batch of queries on a centralized server (one batch32 scan of
//      every query; (query, chunk) items fan out across threads);
//   3. many small query/reference pairs (SW as a subroutine, reusable
//      aligner, working set in cache).
// Plus a packing section: the batch search over a length-skewed database,
// reporting the length-sorted layout's padding efficiency and GCUPS and
// verifying its top-k against engine::search_diagonal, an independent
// engine.
//
// Paper findings: larger queries => higher GCUPS; accumulating queries and
// batching (scenario 2) roughly doubles efficiency in some cases.
//
// A serving section runs the network front door on a loopback socket:
// closed-loop QPS and p99 with a cold vs hot result cache, a singleflight
// dedup burst, and the serve/topk_identical sentinel (wire responses must
// be bit-identical to in-process submissions).
//
// A db-startup section measures what a server pays before its first
// request on each --db path: in-process packing (FASTA startup) vs mmap of
// a pre-packed swve db artifact, with a db/topk_identical sentinel proving
// the mapped view serves the same answers. Startup cost is reported
// separately from request latency everywhere — serve/db_load_ms is the
// one-time cost the serving percentiles deliberately exclude.
//
// --json PATH writes the headline numbers (CI uploads them as an
// artifact). Each */topk_identical sentinel that reads 0 makes the run
// exit 1.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>

#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "bench_common.hpp"
#include "core/db_format.hpp"
#include "core/dispatch.hpp"
#include "core/mapped_db.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"
#include "service/align_service.hpp"

using namespace swve;
using bench::BenchArgs;
using bench::Workload;

namespace {

/// Same hits, scores and end cells, in the same order.
bool same_topk(const align::SearchResult& got, const align::SearchResult& ref) {
  bool same = got.hits.size() == ref.hits.size();
  for (size_t i = 0; same && i < ref.hits.size(); ++i)
    same = got.hits[i].seq_index == ref.hits[i].seq_index &&
           got.hits[i].score == ref.hits[i].score &&
           got.hits[i].end_query == ref.hits[i].end_query &&
           got.hits[i].end_ref == ref.hits[i].end_ref;
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  Workload w = Workload::make(args);
  bench::print_environment();
  const unsigned hw = simd::cpu_features().hardware_threads;
  parallel::ThreadPool pool(hw);
  core::AlignConfig cfg;  // adaptive width: the production configuration
  bench::JsonReport report("fig13");

  perf::print_banner(std::cout, "Fig 13 / scenario 1: single query vs database");
  {
    // The paper's scenario 1 streams the database through the diagonal
    // kernel: time that engine directly (the facade would take the batch
    // scan).
    align::ExecContext serial, threaded;
    threaded.pool = &pool;
    perf::Table t({"query", "len", "GCUPS (1 thread)", "GCUPS (" +
                                                           std::to_string(hw) +
                                                           " threads)"});
    std::vector<double> g1, gn;
    for (const auto& q : w.queries) {
      align::SearchResult r1 =
          align::engine::search_diagonal(w.db, cfg, q, 10, serial);
      align::SearchResult rn =
          align::engine::search_diagonal(w.db, cfg, q, 10, threaded);
      g1.push_back(r1.gcups());
      gn.push_back(rn.gcups());
      t.row({q.id(), std::to_string(q.length()), perf::Table::num(r1.gcups(), 2),
             perf::Table::num(rn.gcups(), 2)});
    }
    t.print(std::cout);
    report.add("scenario1/diagonal_1thread_gcups_geomean", bench::geomean(g1));
    report.add("scenario1/diagonal_threaded_gcups_geomean", bench::geomean(gn));
  }

  perf::print_banner(std::cout,
                     "Fig 13 / scenario 2: batched queries on a centralized server");
  {
    const core::Batch32Db packed(
        w.db, core::batch_lanes_for(simd::resolve_isa(cfg.isa)));
    // One shard on `pool`: the scan a BatchRequest runs.
    const auto sharded = align::ShardedSearch::create(w.db, packed, {}).value();
    const std::vector<seq::SeqView> queries(w.queries.begin(), w.queries.end());
    align::ExecContext ctx;
    ctx.pool = &pool;

    // One-at-a-time processing (client waits per query, each streamed
    // through the diagonal engine)...
    perf::Stopwatch sw1;
    uint64_t cells = 0;
    for (const auto& q : w.queries) {
      align::engine::search_diagonal(w.db, cfg, q, 10, ctx);
      cells += q.length() * w.db.total_residues();
    }
    double serial_gcups = perf::gcups(cells, sw1.seconds());

    // ...vs accumulating the batch and scanning it once with batch32.
    perf::Stopwatch sw2;
    sharded->scan(cfg, queries, 10, ctx);
    double batch_gcups = perf::gcups(cells, sw2.seconds());

    perf::Table t({"mode", "GCUPS", "vs one-at-a-time"});
    t.row({"one query at a time", perf::Table::num(serial_gcups, 2), "1.00"});
    t.row({"accumulated batch (batch32)", perf::Table::num(batch_gcups, 2),
           perf::Table::num(batch_gcups / serial_gcups, 2)});
    t.print(std::cout);
    std::cout << "(paper: accumulating queries before computing can ~double efficiency)\n";
    report.add("scenario2/one_at_a_time_gcups", serial_gcups);
    report.add("scenario2/batch32_gcups", batch_gcups);
  }

  perf::print_banner(std::cout, "Fig 13 / scenario 3: SW as a subroutine (small pairs)");
  {
    std::mt19937_64 rng(args.seed + 99);
    std::vector<seq::Sequence> pairs_q, pairs_r;
    const int pairs = args.quick ? 2000 : 10000;
    uint64_t cells = 0;
    for (int i = 0; i < pairs; ++i) {
      uint32_t lq = 30 + static_cast<uint32_t>(rng() % 100);
      uint32_t lr = 30 + static_cast<uint32_t>(rng() % 100);
      pairs_q.push_back(seq::generate_sequence(rng(), lq));
      pairs_r.push_back(seq::generate_sequence(rng(), lr));
      cells += static_cast<uint64_t>(lq) * lr;
    }
    core::Workspace ws;
    // Warm up, then measure the steady state (no allocation per call).
    for (int i = 0; i < 100; ++i) core::diag_align(pairs_q[0], pairs_r[0], cfg, ws);
    perf::Stopwatch sw;
    for (int i = 0; i < pairs; ++i)
      core::diag_align(pairs_q[static_cast<size_t>(i)], pairs_r[static_cast<size_t>(i)],
                       cfg, ws);
    double g = perf::gcups(cells, sw.seconds());
    double per_call_us = sw.seconds() / pairs * 1e6;
    perf::Table t({"pairs", "mean pair", "GCUPS", "us/call"});
    t.row({std::to_string(pairs), "~80x80", perf::Table::num(g, 2),
           perf::Table::num(per_call_us, 2)});
    t.print(std::cout);
    report.add("scenario3/subroutine_gcups", g);
  }

  perf::print_banner(std::cout,
                     "Fig 13 / packing: batch search on a length-skewed database");
  {
    // Adversarial length mix for the batch32 kernel: mostly short proteins
    // plus a handful of multi-thousand-residue outliers. Any batch holding
    // an outlier pads its other lanes to the outlier's length; the
    // length-sorted layout confines that cost to the outliers' own batch.
    std::mt19937_64 rng(args.seed + 7);
    std::vector<seq::Sequence> seqs;
    const int n_short = args.quick ? 400 : 1200;
    const int n_long = args.quick ? 3 : 6;
    const uint32_t long_len = args.quick ? 4000 : 6000;
    for (int i = 0; i < n_short; ++i)
      seqs.push_back(seq::generate_sequence(rng(), 40 + static_cast<uint32_t>(rng() % 90)));
    // Scatter the outliers through the database, so only a length-aware
    // layout groups them.
    for (int i = 0; i < n_long; ++i) {
      auto pos = seqs.begin() +
                 static_cast<std::ptrdiff_t>(rng() % (seqs.size() + 1));
      seqs.insert(pos, seq::generate_sequence(rng(), long_len));
    }
    seq::SequenceDatabase skewed(std::move(seqs));
    seq::Sequence query = seq::generate_sequence(args.seed + 8, 512);

    align::ExecContext pooled;
    pooled.pool = &pool;
    const align::SearchResult ref =
        align::engine::search_diagonal(skewed, cfg, query, 10, pooled);
    const align::DatabaseSearch search(skewed, cfg);
    const double efficiency = search.packed_db()->packing_efficiency();
    const bool identical =
        same_topk(search.search(query, 10, &pool), ref);  // also the warm-up
    double gcups = 0;
    for (int r = 0, reps = args.quick ? 3 : 5; r < reps; ++r)
      gcups = std::max(gcups, search.search(query, 10, &pool).gcups());

    perf::Table t({"layout", "efficiency", "GCUPS"});
    t.row({"length-sorted", perf::Table::num(100.0 * efficiency, 1) + "%",
           perf::Table::num(gcups, 2)});
    t.print(std::cout);
    std::cout << "top-k identical to the diagonal engine: "
              << (identical ? "yes" : "NO") << "\n";
    report.add("packing/length-sorted_gcups", gcups);
    report.add("packing/length-sorted_efficiency", efficiency);
    report.add("packing/topk_identical", identical ? 1 : 0);
    if (!identical) {
      std::cerr << "FAIL: batch search disagrees with the diagonal engine on "
                   "the skewed database's top-k\n";
      return 1;
    }
  }

  perf::print_banner(std::cout,
                     "Fig 13 / shard: batch search by shard count");
  {
    // The same batch search split into S database shards, scanned into
    // bounded per-worker top-k heaps and merged at the end. One shard (the
    // DatabaseSearch default, "flat" below) runs on the caller's pool; two
    // get their own pool slices. The shard/topk_identical sentinel checks
    // every shard count against engine::search_diagonal's top-k, an
    // independent engine. On a single-node runner S=2 still exercises the full
    // split/merge machinery (numa stays off); the GCUPS columns show what
    // the shape costs or buys without placement in play.
    seq::Sequence query = seq::generate_sequence(args.seed + 34, 512);
    const int reps = args.quick ? 3 : 5;
    align::ExecContext pooled;
    pooled.pool = &pool;
    const align::SearchResult ref =
        align::engine::search_diagonal(w.db, cfg, query, 10, pooled);
    bool identical = true;
    // Best-of-reps GCUPS after a warm-up search whose top-k must equal ref.
    auto measure = [&](const align::DatabaseSearch& search) {
      identical = same_topk(search.search(query, 10, &pool), ref) && identical;
      double gcups = 0;
      for (int r = 0; r < reps; ++r)
        gcups = std::max(gcups, search.search(query, 10, &pool).gcups());
      return gcups;
    };
    const align::DatabaseSearch flat(w.db, cfg);
    const double flat_gcups = measure(flat);
    align::ShardOptions sopt;
    double shard_gcups[2];
    size_t shard_count[2];
    for (int s = 1; s <= 2; ++s) {
      sopt.shards = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(s), flat.packed_db()->batch_count()));
      const align::DatabaseSearch search(w.db, cfg, sopt);
      shard_count[s - 1] = search.sharded()->shard_count();
      shard_gcups[s - 1] = measure(search);
    }

    perf::Table t({"layout", "shards", "GCUPS", "vs flat"});
    t.row({"flat (default)", "1", perf::Table::num(flat_gcups, 2),
           perf::Table::num(1.0, 2)});
    for (int s = 0; s < 2; ++s)
      t.row({"sharded", std::to_string(shard_count[s]),
             perf::Table::num(shard_gcups[s], 2),
             perf::Table::num(shard_gcups[s] / flat_gcups, 2)});
    t.print(std::cout);
    std::cout << "top-k identical to the diagonal engine for every shard "
                 "count: "
              << (identical ? "yes" : "NO") << "\n";
    report.add("shard/flat_gcups", flat_gcups);
    report.add("shard/s1_gcups", shard_gcups[0]);
    report.add("shard/s2_gcups", shard_gcups[1]);
    report.add("shard/topk_identical", identical ? 1 : 0);
    if (!identical) {
      std::cerr << "FAIL: batch search disagrees with the diagonal engine on "
                   "top-k\n";
      return 1;
    }
  }

  perf::print_banner(std::cout,
                     "Fig 13 / db startup: pre-packed artifact vs in-process packing");
  {
    // The artifact is built once (offline, tools/swve_db_build); every
    // server start thereafter mmaps it. Compare the two startup paths over
    // the same database: re-packing from parsed input is O(residues),
    // MappedDb::open is O(sequence count) — metadata views only, the
    // column bytes fault in lazily.
    const std::string art =
        "/tmp/swve_fig13_" + std::to_string(::getpid()) + ".swdb";
    core::Batch32Db packed(w.db, 32);
    perf::Stopwatch sw_build;
    auto wrote = core::write_swdb(w.db, packed, art);
    const double build_ms = sw_build.seconds() * 1e3;
    if (!wrote.ok()) {
      std::cerr << "FAIL: swdb build: " << wrote.error().message << "\n";
      return 1;
    }

    // What FASTA startup pays after parsing: encode + sort + transpose.
    perf::Stopwatch sw_pack;
    core::Batch32Db repacked(w.db, 32);
    const double pack_ms = sw_pack.seconds() * 1e3;

    auto mapped = core::MappedDb::open(art);
    if (!mapped.ok()) {
      std::cerr << "FAIL: swdb open: " << mapped.error().message << "\n";
      return 1;
    }
    const double load_ms = (*mapped)->load_seconds() * 1e3;

    // Sentinel: the mapped view must return the owned packing's exact hits.
    align::DatabaseSearch owned(w.db, cfg);
    align::DatabaseSearch viewed((*mapped)->db(), (*mapped)->batch_db(), cfg);
    bool identical = true;
    for (const auto& q : w.queries) {
      align::SearchResult a = owned.search(q, 10, &pool);
      align::SearchResult b = viewed.search(q, 10, &pool);
      if (a.hits.size() != b.hits.size()) {
        identical = false;
        continue;
      }
      for (size_t i = 0; i < a.hits.size(); ++i)
        if (a.hits[i].seq_index != b.hits[i].seq_index ||
            a.hits[i].score != b.hits[i].score)
          identical = false;
    }

    perf::Table t({"startup path", "ms", "vs re-pack"});
    t.row({"pack from parsed input (FASTA path)", perf::Table::num(pack_ms, 2),
           "1.00"});
    t.row({"mmap artifact (MappedDb::open)", perf::Table::num(load_ms, 2),
           perf::Table::num(pack_ms > 0 ? load_ms / pack_ms : 0, 3)});
    t.print(std::cout);
    std::cout << "artifact: "
              << perf::Table::num(
                     static_cast<double>(wrote.value().file_bytes) / (1 << 20),
                     2)
              << " MiB, built in " << perf::Table::num(build_ms, 2)
              << " ms (one-time, offline)\n"
              << "top-k identical mapped vs owned: "
              << (identical ? "yes" : "NO") << "\n"
              << "(packed " << repacked.batch_count() << " batches either way; "
              << "efficiency "
              << perf::Table::num(100.0 * packed.packing_efficiency(), 1)
              << "%)\n";
    report.add("db/build_ms", build_ms);
    report.add("db/pack_ms", pack_ms);
    report.add("db/load_ms", load_ms);
    report.add("db/topk_identical", identical ? 1 : 0);
    std::remove(art.c_str());
    if (!identical) {
      std::cerr << "FAIL: mapped artifact disagrees with owned packing on "
                   "top-k\n";
      return 1;
    }
  }

  perf::print_banner(std::cout,
                     "Fig 13 / serving: protocol v1 front door on loopback");
  {
    // The whole section runs with structured logging installed — the
    // production configuration — so serve/hot_qps guards the logging hot
    // path too (the accept/close/drain lines plus the per-record cost a
    // live logger adds). The sink is /dev/null: the ring/format cost is
    // what the serving path pays; the write(2) happens off-thread either
    // way.
    obs::LoggerOptions logopt;
    logopt.fd = -1;
    logopt.path = "/dev/null";
    obs::Logger logger(logopt);
    obs::Logger::install_global(&logger);

    service::ServiceOptions sopt;
    sopt.config = cfg;
    sopt.queue.executors = 2;
    sopt.queue.capacity = 1024;
    sopt.serve.port = 0;  // ephemeral
    // Telemetry knobs stay at their defaults on purpose: the time-series
    // store and SLO engine sample at 1 Hz during this scenario, so the
    // hot-QPS number below carries their (intended: negligible) overhead
    // and the regression gate would catch a sampler that got expensive.
    service::AlignService svc(w.db, sopt);
    // Cold-start is not a request latency: the packing the service just did
    // is reported on its own, so serve/p99_cold_ms below measures cache
    // misses, never the one-time database load.
    const double db_load_ms = svc.db_load_seconds() * 1e3;
    auto started = net::Server::start(svc);
    if (!started.ok()) {
      std::cerr << "FAIL: server start: " << started.error().message << "\n";
      return 1;
    }
    net::Server& server = *started.value();

    auto connect = [&server] {
      auto c = net::Client::connect("127.0.0.1", server.port());
      if (!c.ok()) {
        std::cerr << "FAIL: connect: " << c.error().message << "\n";
        std::exit(1);
      }
      return std::move(c.value());
    };
    auto client = connect();

    // Sentinel: each wire response must match the in-process submission it
    // proxies, hit for hit.
    bool identical = true;
    for (const auto& q : w.queries) {
      service::SearchRequest rq;
      rq.query = q;
      rq.options.top_k = 10;
      const auto wire = client->search(rq, net::kFlagNoCache);
      const auto local_or = service::submit_future(svc, rq).get();
      if (!wire.ok() || !local_or ||
          wire.response->result.hits.size() != local_or->result.hits.size()) {
        identical = false;
        continue;
      }
      const service::SearchResponse& local = *local_or;
      for (size_t i = 0; i < local.result.hits.size(); ++i)
        if (wire.response->result.hits[i].seq_index !=
                local.result.hits[i].seq_index ||
            wire.response->result.hits[i].score != local.result.hits[i].score)
          identical = false;
    }

    // Closed-loop QPS/latency over one connection: cold cycles distinct
    // queries (every request misses the LRU and runs a search), hot repeats
    // one query (every request after the first is a cache hit).
    struct LoopStats {
      double qps = 0;
      double p99_ms = 0;
    };
    auto run_loop = [&client](int n, auto&& query_for) -> LoopStats {
      std::vector<double> lat_ms;
      lat_ms.reserve(static_cast<size_t>(n));
      perf::Stopwatch wall;
      for (int i = 0; i < n; ++i) {
        service::SearchRequest rq;
        rq.query = query_for(i);
        rq.options.top_k = 10;
        perf::Stopwatch one;
        const auto r = client->search(rq);
        if (!r.ok()) {
          std::cerr << "FAIL: serve loop: " << r.error << "\n";
          std::exit(1);
        }
        lat_ms.push_back(one.seconds() * 1e3);
      }
      LoopStats s;
      s.qps = n / wall.seconds();
      std::sort(lat_ms.begin(), lat_ms.end());
      s.p99_ms = lat_ms[static_cast<size_t>(0.99 * (lat_ms.size() - 1))];
      return s;
    };

    const int cold_n = args.quick ? 32 : 128;
    const int hot_n = args.quick ? 200 : 1000;
    std::vector<seq::Sequence> cold_queries;
    for (int i = 0; i < cold_n; ++i)
      cold_queries.push_back(
          seq::generate_sequence(args.seed + 500 + static_cast<uint64_t>(i), 256));
    const seq::Sequence hot_query =
        seq::generate_sequence(args.seed + 499, 256);

    const LoopStats cold = run_loop(
        cold_n, [&](int i) { return cold_queries[static_cast<size_t>(i)]; });
    const LoopStats hot = run_loop(hot_n, [&](int) { return hot_query; });

    // Dedup burst: pause the executors, fire `burst` identical requests from
    // separate connections, and release — singleflight should run one
    // execution and coalesce the rest.
    const int burst = 8;
    const perf::MetricsSnapshot before = server.metrics();
    svc.pause();
    const seq::Sequence burst_query =
        seq::generate_sequence(args.seed + 900, 256);
    std::vector<std::thread> senders;
    std::atomic<int> burst_ok{0};
    for (int i = 0; i < burst; ++i)
      senders.emplace_back([&] {
        auto c = net::Client::connect("127.0.0.1", server.port());
        if (!c.ok()) return;
        service::SearchRequest rq;
        rq.query = burst_query;
        rq.options.top_k = 10;
        if (c.value()->search(rq).ok()) burst_ok.fetch_add(1);
      });
    const auto wait_until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (svc.metrics().coalesced - before.coalesced <
               static_cast<uint64_t>(burst - 1) &&
           std::chrono::steady_clock::now() < wait_until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    svc.resume();
    for (auto& t : senders) t.join();
    const perf::MetricsSnapshot after = server.metrics();
    const double dedup_ratio =
        static_cast<double>(after.coalesced - before.coalesced) / burst;

    perf::Table t({"mode", "requests", "QPS", "p99 ms"});
    t.row({"cold cache (distinct queries)", std::to_string(cold_n),
           perf::Table::num(cold.qps, 0), perf::Table::num(cold.p99_ms, 3)});
    t.row({"hot cache (repeated query)", std::to_string(hot_n),
           perf::Table::num(hot.qps, 0), perf::Table::num(hot.p99_ms, 3)});
    t.print(std::cout);
    std::cout << "db load (one-time startup, source "
              << core::db_source_name(svc.db_source()) << "): "
              << perf::Table::num(db_load_ms, 2)
              << " ms — excluded from the request latencies above\n";
    std::cout << "wire results identical to in-process: "
              << (identical ? "yes" : "NO") << "\n"
              << "dedup burst: " << burst << " identical requests, "
              << burst_ok.load() << " ok, "
              << (after.coalesced - before.coalesced) << " coalesced "
              << "(ratio " << perf::Table::num(dedup_ratio, 2) << ")\n"
              << "result cache hit rate: "
              << perf::Table::num(after.result_cache_hit_rate(), 2) << "\n";
    logger.flush();  // drain the rings so the accounting below is complete
    std::cout << "structured log: " << logger.emitted() << " records, "
              << logger.dropped_overflow() << " dropped\n";

    report.add("serve/db_load_ms", db_load_ms);
    report.add("serve/cold_qps", cold.qps);
    report.add("serve/hot_qps", hot.qps);
    report.add("serve/p99_cold_ms", cold.p99_ms);
    report.add("serve/p99_hot_ms", hot.p99_ms);
    report.add("serve/dedup_ratio", dedup_ratio);
    report.add("serve/topk_identical", identical ? 1 : 0);
    if (!identical || burst_ok.load() != burst) {
      std::cerr << "FAIL: serving front door disagrees with in-process "
                   "results or dropped burst requests\n";
      return 1;
    }
  }

  report.write(args.json_out);
  return 0;
}
