#include "align/sharded_search.hpp"

#include <algorithm>
#include <latch>
#include <mutex>
#include <optional>

#include "align/batch_scan.hpp"
#include "core/mapped_db.hpp"
#include "obs/pmu.hpp"
#include "perf/metrics.hpp"
#include "perf/timer.hpp"

namespace swve::align {

size_t clamp_shard_count(size_t wanted, size_t batches) noexcept {
  return std::min({wanted, batches,
                   static_cast<size_t>(perf::MetricsSnapshot::kMaxShards)});
}

/// One shard: a contiguous batch range, its pinned pool (null for a single
/// shard, which borrows the caller's), and lifetime counters (relaxed
/// atomics, read by shard_stats()).
struct ShardedSearch::Shard {
  size_t first_batch = 0;
  size_t end_batch = 0;
  uint64_t sequences = 0;
  int node = -1;
  bool bound = false;
  std::unique_ptr<parallel::ThreadPool> pool;
  std::atomic<unsigned> borrowed_threads{0};  // pool size of the last search

  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> cells{0};
  std::atomic<uint64_t> useful_cells{0};
  std::atomic<uint64_t> rescored{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> llc_misses{0};
  std::atomic<uint64_t> cycles{0};
};

ShardedSearch::ShardedSearch(const seq::SequenceDatabase& db,
                             const core::Batch32Db& packed)
    : db_(&db), packed_(&packed) {}

ShardedSearch::~ShardedSearch() = default;

core::ErrorOr<std::unique_ptr<ShardedSearch>> ShardedSearch::create(
    const seq::SequenceDatabase& db, const core::Batch32Db& packed,
    const ShardOptions& opt) {
  using Code = core::ConfigError::Code;
  if (opt.shards < 0)
    return core::ConfigError{Code::Unsupported,
                             "ShardedSearch: shards must be >= 0"};
  const size_t batches = packed.batch_count();
  if (opt.shards > 1 && static_cast<size_t>(opt.shards) > batches)
    return core::ConfigError{
        Code::Unsupported,
        "ShardedSearch: shards (" + std::to_string(opt.shards) +
            ") exceeds packed batch count (" + std::to_string(batches) +
            "); a shard would own no batches"};

  std::unique_ptr<ShardedSearch> s(new ShardedSearch(db, packed));
  s->topo_ = parallel::Topology::detect();
  s->numa_ = opt.numa;
  size_t shards = static_cast<size_t>(opt.shards);
  // Auto degrades, never errors.
  if (shards == 0) shards = clamp_shard_count(s->topo_.node_count(), batches);
  // Shards are contiguous batch ranges of equal padded cells (max_len *
  // lanes, what the kernel walks per query residue), so the length-sorted
  // packing doesn't starve the short-sequence shards. One shard (also auto's
  // answer for an empty database) owns no pool or placement: it runs on the
  // caller's.
  const auto ranges =
      shards <= 1 ? std::vector<std::pair<size_t, size_t>>{{0, batches}}
                  : detail::plan_by_cells(packed, 0, batches, shards);

  unsigned total_threads = opt.total_threads != 0
                               ? opt.total_threads
                               : std::max(1u, s->topo_.total_cpus());
  const unsigned per_shard =
      std::max(1u, total_threads / static_cast<unsigned>(ranges.size()));

  for (size_t i = 0; i < ranges.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->first_batch = ranges[i].first;
    shard->end_batch = ranges[i].second;
    for (size_t b = shard->first_batch; b < shard->end_batch; ++b)
      shard->sequences += packed.batch(b).count;
    if (ranges.size() == 1) {
      s->shards_.push_back(std::move(shard));
      break;
    }
    std::vector<int> cpus;  // empty = unpinned
    if (s->numa_ != parallel::NumaPolicy::Off && !s->topo_.synthetic) {
      const auto& node =
          s->topo_.nodes[i % s->topo_.node_count()];
      shard->node = node.id;
      cpus = node.cpus;
    }
    // Workers pin before they first touch their thread_workspace(), so
    // first-touch puts each worker's scratch on the shard's own node.
    shard->pool =
        std::make_unique<parallel::ThreadPool>(per_shard, std::move(cpus));

    const auto range =
        packed.column_range(shard->first_batch, shard->end_batch);
    if (s->numa_ == parallel::NumaPolicy::Bind && shard->node >= 0)
      shard->bound = parallel::bind_memory_to_node(range.data(), range.size(),
                                                   shard->node);
    if (opt.mapped != nullptr)
      opt.mapped->advise_batch_columns(shard->first_batch, shard->end_batch);
    s->shards_.push_back(std::move(shard));
  }
  if (ranges.size() > 1 && s->numa_ == parallel::NumaPolicy::Interleave &&
      s->topo_.multi_node()) {
    const auto all = packed.column_bytes();
    parallel::interleave_memory(
        all.data(), all.size(),
        static_cast<unsigned>(s->topo_.node_count()));
  }
  return core::ErrorOr<std::unique_ptr<ShardedSearch>>(std::move(s));
}

size_t ShardedSearch::shard_count() const noexcept { return shards_.size(); }

ShardStats ShardedSearch::shard_stats(size_t s) const noexcept {
  ShardStats out;
  if (s >= shards_.size()) return out;
  const Shard& sh = *shards_[s];
  out.first_batch = sh.first_batch;
  out.end_batch = sh.end_batch;
  out.sequences = sh.sequences;
  out.node = sh.node;
  out.threads = sh.pool ? sh.pool->size()
                        : sh.borrowed_threads.load(std::memory_order_relaxed);
  out.bound = sh.bound;
  out.searches = sh.searches.load(std::memory_order_relaxed);
  out.batches = sh.batches.load(std::memory_order_relaxed);
  out.cells = sh.cells.load(std::memory_order_relaxed);
  out.useful_cells = sh.useful_cells.load(std::memory_order_relaxed);
  out.rescored = sh.rescored.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(sh.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  out.llc_misses = sh.llc_misses.load(std::memory_order_relaxed);
  out.cycles = sh.cycles.load(std::memory_order_relaxed);
  out.queue_depth = sh.pool ? sh.pool->pending() : 0;
  return out;
}

namespace {

/// The request's feed for `query`, shared read-only by every rescore and
/// re-alignment of the request; null when the scan has nothing to score.
std::unique_ptr<const core::PreparedQuery> prepare(
    const seq::SequenceDatabase& db, seq::SeqView query) {
  if (db.empty() || query.empty()) return {};
  return std::make_unique<const core::PreparedQuery>(query);
}

}  // namespace

std::vector<SearchResult> ShardedSearch::scan(
    const core::AlignConfig& cfg, std::span<const seq::SeqView> queries,
    size_t top_k, const ExecContext& ctx) const {
  std::vector<std::unique_ptr<const core::PreparedQuery>> preps;
  std::vector<detail::ScanQuery> scan_queries;
  preps.reserve(queries.size());
  scan_queries.reserve(queries.size());
  for (const seq::SeqView q : queries) {
    preps.push_back(prepare(*db_, q));
    scan_queries.push_back({q, preps.back().get()});
  }
  return scan_prepared(cfg, scan_queries, top_k, ctx);
}

SearchResult ShardedSearch::search(const core::AlignConfig& cfg,
                                   seq::SeqView query, size_t top_k,
                                   const ExecContext& ctx) const {
  perf::Stopwatch sw;
  const auto prep = prepare(*db_, query);
  const detail::ScanQuery scan_query{query, prep.get()};
  SearchResult out =
      std::move(scan_prepared(cfg, {&scan_query, 1}, top_k, ctx).front());
  // A truncated scan withholds its partial answer: no re-alignment pass.
  if (out.truncated || out.hits.empty()) return out;

  // Phase 2: exact re-alignment of just the winners for end positions.
  detail::realign_winners(*db_, cfg, query, prep.get(), out);
  out.seconds = sw.seconds();
  return out;
}

std::vector<SearchResult> ShardedSearch::scan_prepared(
    const core::AlignConfig& cfg, std::span<const detail::ScanQuery> queries,
    size_t top_k, const ExecContext& ctx) const {
  perf::Stopwatch sw;
  const size_t nq = queries.size();
  std::vector<SearchResult> out(nq);
  uint64_t live = 0;  // queries with residues to scan
  for (size_t qi = 0; qi < nq; ++qi) {
    out[qi].query_length = queries[qi].seq.length;
    out[qi].db_residues = db_->total_residues();
    live += queries[qi].seq.empty() ? 0 : 1;
  }
  if (db_->empty() || live == 0) return out;

  const seq::SequenceDatabase& db = *db_;
  const core::Batch32Db& bdb = *packed_;
  const size_t nshards = shards_.size();

  // Every shard scans its batch range concurrently, each worker pulling
  // cost-balanced (query, chunk) items of its shard and folding lane scores
  // into bounded per-query heaps; the heaps are merged per query at the
  // end — selection under Hit's strict total order is partition-shape
  // independent, so the answer is the same for every shard count and pool
  // size.
  struct ShardRun {
    parallel::ThreadPool* pool = nullptr;  // null: inline on this thread
    std::optional<detail::BatchScan> scan;
    std::vector<std::vector<std::vector<Hit>>> worker_hits;  // [slot][query]
    std::vector<core::BatchSearchStats> stats;               // [query]
    std::mutex mu;
  };
  std::vector<ShardRun> runs(nshards);
  // Every scan is built before any worker starts, so a lane mismatch throws
  // with nothing running.
  for (size_t si = 0; si < nshards; ++si) {
    Shard& shard = *shards_[si];
    ShardRun& run = runs[si];
    run.pool = shard.pool ? shard.pool.get() : ctx.pool;
    const unsigned workers = run.pool ? run.pool->size() : 1u;
    if (!shard.pool)
      shard.borrowed_threads.store(workers, std::memory_order_relaxed);
    run.scan.emplace(db, bdb, cfg, queries, ctx, shard.first_batch,
                     shard.end_batch, workers);
    run.worker_hits.resize(std::min<size_t>(workers, run.scan->item_count()));
    run.stats.resize(nq);
  }

  // Counters only through the context's session (null: attribution off,
  // no perf_event group opened); wall time feeds busy_ns either way.
  auto read = [pmu = ctx.trace.pmu] {
    return pmu ? pmu->read() : obs::PmuReading{.ns = obs::steady_now_ns()};
  };
  std::latch shards_left(static_cast<std::ptrdiff_t>(nshards));
  auto shard_done = [&shards_left] { shards_left.count_down(); };

  for (size_t si = 0; si < nshards; ++si) {
    Shard& shard = *shards_[si];
    ShardRun& run = runs[si];
    auto scan = [&run, &shard, &read, top_k, nq, si](size_t slot, size_t,
                                                     unsigned) {
      const obs::PmuReading pmu0 = read();
      std::vector<detail::TopK> tops(nq, detail::TopK(top_k));
      const detail::BatchScan::Tally t = run.scan->run(
          si, core::thread_workspace(),
          [&tops](uint32_t qi, uint32_t seq_idx, int score) {
            tops[qi].offer(Hit{seq_idx, score, -1, -1});
          });
      const obs::PmuDelta d = obs::PmuSession::delta(pmu0, read());
      shard.busy_ns.fetch_add(d.wall_ns, std::memory_order_relaxed);
      if (d.hw) {
        shard.llc_misses.fetch_add(d.llc_misses, std::memory_order_relaxed);
        shard.cycles.fetch_add(d.cycles, std::memory_order_relaxed);
      }
      const core::BatchSearchStats all = t.total();
      shard.batches.fetch_add(t.batches, std::memory_order_relaxed);
      shard.cells.fetch_add(all.cells8 + all.rescored_cells,
                            std::memory_order_relaxed);
      shard.useful_cells.fetch_add(all.useful_cells8,
                                   std::memory_order_relaxed);
      shard.rescored.fetch_add(all.rescored, std::memory_order_relaxed);
      std::vector<std::vector<Hit>> hits;
      hits.reserve(nq);
      for (detail::TopK& top : tops) hits.push_back(std::move(top).sorted());
      {
        std::lock_guard<std::mutex> lk(run.mu);
        run.worker_hits[slot] = std::move(hits);
        for (size_t qi = 0; qi < t.stats.size(); ++qi)
          run.stats[qi] += t.stats[qi];
      }
    };
    shard.searches.fetch_add(live, std::memory_order_relaxed);
    const size_t slots = run.worker_hits.size();
    if (run.pool) {
      run.pool->parallel_for_async(slots, std::move(scan), shard_done);
    } else {
      if (slots > 0) scan(0, 1, 0);
      shard_done();
    }
  }
  shards_left.wait();

  bool truncated = false;
  std::vector<detail::TopK> merged(nq, detail::TopK(top_k));
  for (const ShardRun& run : runs) {
    truncated = truncated || run.scan->truncated();
    for (size_t qi = 0; qi < nq; ++qi) out[qi].batch_stats += run.stats[qi];
    for (const auto& worker : run.worker_hits)
      for (size_t qi = 0; qi < worker.size(); ++qi)
        for (const Hit& h : worker[qi]) merged[qi].offer(h);
  }
  const double seconds = sw.seconds();
  for (size_t qi = 0; qi < nq; ++qi) {
    SearchResult& r = out[qi];
    r.seconds = seconds;
    r.truncated = truncated;
    if (truncated) continue;  // partial answers are withheld, not mixed
    r.hits = std::move(merged[qi]).sorted();
    r.stats.cells = r.batch_stats.cells8 + r.batch_stats.rescored_cells;
    r.stats.vector_cells = r.batch_stats.cells8;
  }
  return out;
}

}  // namespace swve::align
