// Scenario 2: a centralized alignment server. Clients submit queries; the
// service accumulates them and scores whole batches against the shared
// database with the inter-sequence batch32 kernel, then re-aligns the top
// hit of each query exactly (with traceback) for the response.
//
// This demo drives service::AlignService — the async front door — exactly as
// a network server embedding the library would: the batch and each exact
// re-alignment (with a per-request traceback override) go through
// service::submit_future, whose futures yield a response or a typed error,
// and the run ends with the service's own metrics snapshot.
//
//   ./example_batch_server_demo [--clients N] [--db-residues N]
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>

#include "swve.hpp"

using namespace swve;

int main(int argc, char** argv) {
  int clients = 16;
  uint64_t db_residues = 1'000'000;
  for (int i = 1; i < argc - 1; ++i) {
    if (!std::strcmp(argv[i], "--clients")) clients = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--db-residues"))
      db_residues = std::strtoull(argv[++i], nullptr, 10);
  }

  // The shared database, packed once at server start-up.
  seq::SyntheticConfig sc;
  sc.seed = 21;
  sc.target_residues = db_residues;
  seq::SequenceDatabase db = seq::SequenceDatabase::synthetic(sc);

  perf::Stopwatch boot;
  service::ServiceOptions so;  // hardware pool threads, default config
  service::AlignService server(db, so);
  std::printf("server up: %zu sequences packed into %d-lane batches in %.3f s\n",
              db.size(), server.batch_lanes(), boot.seconds());

  // "Clients": a mix of query lengths, a few of them homologous to database
  // entries so the demo returns biologically-meaningful hits.
  std::vector<seq::Sequence> queries =
      seq::make_query_ladder(33, clients, 80, 1200);
  for (int k = 0; k < clients; k += 4)
    queries[static_cast<size_t>(k)] =
        seq::mutate(db[static_cast<size_t>(k * 37) % db.size()], 44, 0.2);

  perf::Stopwatch sw;
  service::BatchRequest batch;
  batch.queries = queries;
  batch.options.top_k = 3;
  auto served = service::submit_future(server, std::move(batch)).get();
  double secs = sw.seconds();
  if (!served) {
    std::fprintf(stderr, "batch failed: %s\n", served.error().message.c_str());
    return 1;
  }
  const service::BatchResponse& resp = *served;

  uint64_t cells = 0;
  for (const auto& q : queries) cells += q.length() * db.total_residues();
  std::printf("batch of %d queries served in %.3f s  (%.2f GCUPS aggregate)\n\n",
              clients, secs, perf::gcups(cells, secs));

  // Exact re-alignment of each winner, again through the service (pairwise
  // path, traceback override), futures collected before rendering.
  std::vector<std::future<core::ErrorOr<service::AlignResponse>>> realigns(
      queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (resp.results[qi].hits.empty()) continue;
    service::AlignRequest rq;
    rq.query = queries[qi];
    rq.reference = db[resp.results[qi].hits[0].seq_index];
    rq.options.traceback = true;
    realigns[qi] = service::submit_future(server, std::move(rq));
  }

  perf::Table t({"query", "len", "best target", "score", "cigar (exact realign)",
                 "8-bit rescored"});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& r = resp.results[qi];
    if (r.hits.empty()) {
      t.row({queries[qi].id(), std::to_string(queries[qi].length()), "-", "0", "-",
             std::to_string(r.batch_stats.rescored)});
      continue;
    }
    const align::Hit& top = r.hits[0];
    auto realigned = realigns[qi].get();
    if (!realigned) {
      std::fprintf(stderr, "realign failed: %s\n",
                   realigned.error().message.c_str());
      return 1;
    }
    const core::Alignment& exact = realigned->alignment;
    std::string cig = exact.cigar.to_string();
    if (cig.size() > 26) cig = cig.substr(0, 23) + "...";
    t.row({queries[qi].id(), std::to_string(queries[qi].length()),
           db[top.seq_index].id(), std::to_string(top.score), cig,
           std::to_string(r.batch_stats.rescored)});
  }
  t.print(std::cout);
  std::puts("\n('8-bit rescored' = lanes that saturated the 8-bit batch kernel and");
  std::puts(" were re-scored exactly by the 16/32-bit diagonal ladder)");

  std::fputs(
      obs::render_metrics(server.metrics(), obs::MetricsFormat::Text).c_str(),
      stdout);
  return 0;
}
