// Fig 11: thread scaling of database search, with the frequency
// recalibration of §IV-E.
//
// Paper finding: per-core throughput drops with more cores because the
// operating frequency drops, not because of memory contention; after
// recalibrating by measured frequency, scaling (including hyperthreads) is
// near-ideal — evidence the kernel is CPU bound.
#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "bench_common.hpp"
#include "obs/pmu.hpp"
#include "perf/freq_monitor.hpp"
#include "parallel/topology.hpp"

using namespace swve;
using bench::BenchArgs;
using bench::Workload;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.db_residues *= 2;  // threads need more work per measurement
  Workload w = Workload::make(args);
  bench::print_environment();

  const unsigned hw = simd::cpu_features().hardware_threads;
  std::vector<unsigned> counts;
  for (unsigned t = 1; t <= 2 * hw; t *= 2) counts.push_back(t);
  if (counts.back() != 2 * hw) counts.push_back(2 * hw);

  // Frequency under each concurrency level (the recalibration input).
  perf::print_banner(std::cout, "Fig 11a: effective core frequency vs busy threads");
  perf::FreqScalingReport freq =
      perf::frequency_scaling(static_cast<int>(counts.back()), args.quick ? 25 : 50);
  {
    perf::Table t({"threads", "mean GHz", "min GHz", "vs 1-thread"});
    for (size_t i = 0; i < freq.threads.size(); ++i)
      t.row({std::to_string(freq.threads[i]), perf::Table::num(freq.ghz_mean[i], 2),
             perf::Table::num(freq.ghz_min[i], 2),
             perf::Table::percent(freq.ghz_mean[i] / freq.ghz_mean[0])});
    t.print(std::cout);
  }

  perf::print_banner(std::cout,
                     "Fig 11b: database-search scaling (16-bit diag kernel, all queries)");
  core::AlignConfig cfg;
  cfg.width = core::Width::W16;

  auto run_at = [&](unsigned threads) {
    parallel::ThreadPool pool(threads);
    align::ExecContext ctx;
    ctx.pool = &pool;
    perf::Stopwatch sw;
    uint64_t cells = 0;
    for (const auto& q : w.queries) {
      align::engine::search_diagonal(w.db, cfg, q, 10, ctx);
      cells += q.length() * w.db.total_residues();
    }
    return perf::gcups(cells, sw.seconds());
  };

  const double base = run_at(1);
  perf::Table t({"threads", "GCUPS", "speedup", "efficiency", "freq-recal eff"});
  for (size_t i = 0; i < counts.size(); ++i) {
    unsigned threads = counts[i];
    double g = run_at(threads);
    double speedup = g / base;
    // Ideal speedup is bounded by physical cores; beyond that hyperthreads
    // only fill pipeline slots.
    double ideal = std::min<double>(threads, hw);
    double eff = speedup / ideal;
    // Recalibrate by the frequency the cores actually ran at (paper §IV-E).
    double fr = 1.0;
    for (size_t k = 0; k < freq.threads.size(); ++k)
      if (freq.threads[k] == static_cast<int>(std::min(threads, hw)))
        fr = freq.ghz_mean[k] / freq.ghz_mean[0];
    double recal = speedup / (ideal * fr);
    t.row({std::to_string(threads), perf::Table::num(g, 2),
           perf::Table::num(speedup, 2), perf::Table::percent(eff),
           perf::Table::percent(recal)});
  }
  t.print(std::cout);
  std::cout << "\n(paper: recalibrated efficiency near 100% through physical cores;\n"
               " hyperthreading adds further throughput => compute bound, not memory bound)\n";

  perf::print_banner(std::cout,
                     "Fig 11c: NUMA locality — sharded batch search");
  {
    // The paper's scaling argument stops at one socket; this section
    // extends it across sockets. One shard streams remote columns on a
    // multi-node host; S shards split the database per node and pin each
    // shard's pool and pages there, so the hottest loads stay local.
    // The LLC-miss column is the per-shard PMU delta over the measured
    // searches — locality shows up as fewer misses per gigacell, not just
    // as GCUPS (which frequency noise can hide). On a single-node runner
    // the forced S=2 split still exercises the machinery; expect parity.
    const parallel::Topology topo = parallel::Topology::detect();
    std::cout << "topology: " << topo.nodes.size() << " node(s)"
              << (topo.synthetic ? " (synthetic: no sysfs NUMA info)" : "")
              << ", numa policy "
              << (topo.multi_node() ? "bind" : "off") << "\n\n";

    core::AlignConfig bcfg;  // adaptive width: the production batch path
    const size_t s2 =
        topo.multi_node() ? topo.nodes.size() : static_cast<size_t>(2);
    const int reps = args.quick ? 2 : 4;

    perf::Table st({"shards", "GCUPS", "vs S=1", "LLC miss/Gcell", "busy skew"});
    double base_g = 0;
    const size_t batches =
        core::Batch32Db(w.db, core::batch_lanes_for(simd::resolve_isa(bcfg.isa)))
            .batch_count();
    parallel::ThreadPool pool;  // S=1 runs on it; more shards on their own
    for (const size_t S : {static_cast<size_t>(1), s2}) {
      align::ShardOptions sopt;
      sopt.shards = static_cast<int>(std::min(S, batches));
      sopt.numa = topo.multi_node() ? parallel::NumaPolicy::Bind
                                    : parallel::NumaPolicy::Off;
      align::DatabaseSearch search(w.db, bcfg, sopt);
      const align::ShardedSearch* sh = search.sharded();
      const size_t got = sh->shard_count();
      // The shards read hardware counters only through the context's PMU
      // session (the LLC column).
      align::ExecContext ctx;
      ctx.pool = &pool;
      ctx.trace.pmu = &obs::PmuSession::instance();

      for (const auto& q : w.queries) search.search(q, 10, ctx);  // warm-up
      uint64_t llc0 = 0, cells0 = 0;
      std::vector<double> busy0(got, 0.0);
      for (size_t i = 0; i < got; ++i) {
        const align::ShardStats s = sh->shard_stats(i);
        llc0 += s.llc_misses;
        cells0 += s.cells;
        busy0[i] = s.busy_seconds;
      }
      uint64_t cells = 0;
      perf::Stopwatch sw;
      for (int r = 0; r < reps; ++r)
        for (const auto& q : w.queries) {
          align::SearchResult res = search.search(q, 10, ctx);
          cells += res.stats.cells;
        }
      const double g = perf::gcups(cells, sw.seconds());
      if (base_g == 0) base_g = g;

      uint64_t llc1 = 0, cells1 = 0;
      double busy_min = 1e300, busy_max = 0;
      for (size_t i = 0; i < got; ++i) {
        const align::ShardStats s = sh->shard_stats(i);
        llc1 += s.llc_misses;
        cells1 += s.cells;
        const double b = s.busy_seconds - busy0[i];
        busy_min = std::min(busy_min, b);
        busy_max = std::max(busy_max, b);
      }
      const double skew = busy_min > 0 ? busy_max / busy_min : 0;
      const uint64_t dcells = cells1 - cells0;
      const double miss_per_gcell =
          dcells > 0 ? static_cast<double>(llc1 - llc0) / (static_cast<double>(dcells) / 1e9)
                     : 0;
      st.row({std::to_string(got), perf::Table::num(g, 2),
              perf::Table::num(g / base_g, 2),
              llc1 > llc0 ? perf::Table::num(miss_per_gcell, 0) : "n/a (no PMU)",
              skew > 0 ? perf::Table::num(skew, 2) : "-"});
    }
    st.print(std::cout);
    std::cout << "\n(multi-node: S=nodes with bind should cut LLC miss/Gcell and\n"
                 " hold GCUPS scaling; single-node: S=2 exercises the split/merge\n"
                 " path and should track S=1 — the merge is bit-identical either way)\n";
  }
  return 0;
}
