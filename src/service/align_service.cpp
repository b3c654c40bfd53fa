#include "service/align_service.hpp"

#include <utility>

#include "core/dispatch.hpp"
#include "obs/log.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/timer.hpp"

namespace swve::service {

namespace {

using Clock = std::chrono::steady_clock;
using Code = core::ConfigError::Code;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A steady_clock time_point on the obs::steady_now_ns() scale (both are
/// steady_clock nanoseconds since the same epoch); 0 for the null deadline.
uint64_t deadline_to_ns(Clock::time_point deadline) {
  const auto since = deadline.time_since_epoch();
  if (since.count() == 0) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since).count());
}

/// Future shim plumbing: turn a Completion failure back into the legacy
/// ServiceError-throwing future.
template <typename R>
void fulfil_promise(const std::shared_ptr<std::promise<R>>& prom,
                    core::ErrorOr<R> out) {
  if (out.ok())
    prom->set_value(std::move(out).value());
  else
    prom->set_exception(
        std::make_exception_ptr(ServiceError(out.error())));
}

/// Delivery path the kernel will actually use under `cfg` at `isa`.
core::ScoreDelivery effective_delivery(const core::AlignConfig& cfg,
                                       simd::Isa isa) {
  if (cfg.scheme != core::ScoreScheme::Matrix) return cfg.delivery;
  return cfg.delivery == core::ScoreDelivery::Auto
             ? core::resolved_delivery(isa)
             : cfg.delivery;
}

uint16_t dp_width_bits(core::Width w) {
  switch (w) {
    case core::Width::W8: return 8;
    case core::Width::W16: return 16;
    case core::Width::W32: return 32;
    case core::Width::Adaptive: return 0;
  }
  return 0;
}

}  // namespace

AlignService::AlignService(ServiceOptions options)
    : AlignService(InitTag{}, std::move(options)) {
  start_telemetry();
}

AlignService::AlignService(InitTag, ServiceOptions options)
    : opt_(options), pool_(options.pool_threads),
      paused_(options.queue.start_paused) {
  // Pre-group behavior: zero executors/capacity were clamped, not
  // rejected, so keep clamping before the structural validation.
  if (opt_.queue.executors == 0) opt_.queue.executors = 1;
  if (opt_.queue.capacity == 0) opt_.queue.capacity = 1;
  if (auto st = opt_.try_validate(); !st)
    throw std::invalid_argument(st.error().message);
  if (!opt_.cache.query_cache_bypass && opt_.cache.query_cache_capacity > 0)
    query_cache_ = std::make_unique<align::QueryStateCache>(
        opt_.cache.query_cache_capacity);
  inflight_ = std::make_unique<obs::InFlightTable>(opt_.queue.executors);
  if (opt_.obs.slow_request_slo_s > 0) {
    obs::WatchdogOptions wo;
    wo.slo_s = opt_.obs.slow_request_slo_s;
    wo.period_s = opt_.obs.watchdog_period_s;
    watchdog_ = std::make_unique<obs::Watchdog>(
        *inflight_, wo, opt_.obs.trace_sink, &metrics_,
        [this] { return queue_depth(); });
  }
  executors_.reserve(opt_.queue.executors);
  for (unsigned e = 0; e < opt_.queue.executors; ++e)
    executors_.emplace_back([this, e] { executor_loop(e); });
}

void AlignService::start_telemetry() {
  // Telemetry history: the store and SLO engine ride the sampler tick.
  // An explicit obs.sampler_period_s wins as the cadence; otherwise the
  // serve.telemetry_cadence_s default turns the sampler on.
  const double cadence = opt_.obs.sampler_period_s > 0
                             ? opt_.obs.sampler_period_s
                             : opt_.serve.telemetry_cadence_s;
  if (opt_.serve.telemetry_cadence_s > 0) {
    obs::TimeSeriesOptions to;
    to.cadence_s = cadence;
    to.capacity = std::max<size_t>(
        1, static_cast<size_t>(opt_.serve.telemetry_retention_s / cadence));
    timeseries_ = std::make_unique<obs::TimeSeriesStore>(to);
    if (opt_.obs.slo.enabled())
      slo_ = std::make_unique<obs::SloEngine>(opt_.obs.slo, timeseries_.get());
  }
  if (cadence > 0) {
    obs::SamplerOptions so;
    so.period_s = cadence;
    so.freq_probe_ms = opt_.obs.sampler_freq_probe_ms;
    so.on_sample = [this](double t_s, const perf::MetricsSnapshot& snap) {
      if (timeseries_) timeseries_->push(snap, t_s, queue_depth());
      if (slo_) slo_->evaluate(t_s);
    };
    sampler_ = std::make_unique<obs::Sampler>(so, [this] { return metrics(); });
  }
}

AlignService::AlignService(const seq::SequenceDatabase& db,
                           ServiceOptions options)
    : AlignService(InitTag{}, std::move(options)) {
  db_ = &db;
  // Pack once, up front, before any request can arrive (executors are
  // already running but the queue is still empty while we're here only if
  // the caller hasn't submitted yet — which it can't: it has no handle).
  perf::Stopwatch sw;
  bdb_ = std::make_unique<core::Batch32Db>(
      db, core::batch_lanes_for(simd::resolve_isa(opt_.config.isa)),
      opt_.cache.batch_packing);
  packed_ = bdb_.get();
  db_source_ = core::DbSource::Built;
  db_load_seconds_ = sw.seconds();
  // db_epoch_ stays 0: fingerprinting the content here would be an O(n)
  // walk on every construction; callers that need it (net::Server) compute
  // it once themselves.
  init_sharding();
  start_telemetry();
}

void AlignService::init_sharding() {
  if (opt_.search.shards == 1 || packed_ == nullptr) return;
  align::ShardOptions so;
  so.shards = opt_.search.shards;
  so.numa = opt_.search.numa;
  so.total_threads = opt_.pool_threads;
  so.mapped = mapped_;
  auto sh = align::ShardedSearch::create(*db_, *packed_, so);
  if (!sh.ok()) throw std::invalid_argument(sh.error().message);
  sharded_ = std::move(sh).value();
  // Auto on a single-node host resolves to one shard: keep the flat pool
  // (identical results, one less indirection) and report unsharded.
  if (opt_.search.shards == 0 && sharded_->shard_count() <= 1)
    sharded_.reset();
}

AlignService::AlignService(const core::MappedDb& mapped, ServiceOptions options)
    : AlignService(InitTag{}, std::move(options)) {
  db_ = &mapped.db();
  packed_ = &mapped.batch_db();
  mapped_ = &mapped;
  db_source_ = mapped.source();
  db_epoch_ = mapped.epoch();
  db_load_seconds_ = mapped.load_seconds();
  init_sharding();
  start_telemetry();
}

AlignService::~AlignService() {
  sampler_.reset();   // stop the sampler before tearing down what it reads
  watchdog_.reset();  // likewise the watchdog (it scans the in-flight table)
  std::array<std::deque<Task>, kQosTiers> leftover;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    for (int t = 0; t < kQosTiers; ++t) leftover[t].swap(queues_[t]);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& t : executors_) t.join();
  for (auto& tier : leftover)
    for (auto& t : tier) t.run(/*aborted=*/true);
}

perf::MetricsSnapshot AlignService::metrics() const {
  perf::MetricsSnapshot s = metrics_.snapshot();
  if (opt_.obs.pmu_attribution)
    s.pmu_unavailable = obs::PmuSession::instance().available() ? 0 : 1;
  if (obs::TraceSink* sink = opt_.obs.trace_sink; sink != nullptr) {
    s.trace_recorded = sink->recorded();
    s.trace_dropped_wrap = sink->wrap_dropped();
    s.trace_dropped_torn = sink->torn_skipped();
    s.trace_dropped_overflow = sink->overflow_dropped();
  }
  if (obs::Logger* logger = obs::Logger::global(); logger != nullptr) {
    s.log_records = logger->emitted();
    s.log_dropped_overflow = logger->dropped_overflow();
    s.log_dropped_threads = logger->dropped_threads();
    s.log_suppressed = logger->suppressed();
  }
  const parallel::PoolStats ps = pool_.stats();
  s.pool_threads = ps.threads;
  s.pool_jobs = ps.jobs;
  s.pool_busy_seconds = ps.busy_seconds;
  if (query_cache_) {
    const align::QueryCacheStats qs = query_cache_->stats();
    s.query_cache_hits = qs.hits;
    s.query_cache_misses = qs.misses;
    s.query_cache_evictions = qs.evictions;
    s.workspace_reuses = qs.ws_reuses;
    s.workspace_creates = qs.ws_creates;
    s.query_cache_entries = qs.entries;
  }
  if (sharded_) {
    const size_t n = std::min<size_t>(sharded_->shard_count(),
                                      perf::MetricsSnapshot::kMaxShards);
    s.shard_count = static_cast<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) {
      const align::ShardStats st = sharded_->shard_stats(i);
      auto& out = s.shards[i];
      out.searches = st.searches;
      out.batches = st.batches;
      out.cells = st.cells;
      out.useful_cells = st.useful_cells;
      out.busy_seconds = st.busy_seconds;
      out.llc_misses = st.llc_misses;
      out.cycles = st.cycles;
      out.queue_depth = st.queue_depth;
      out.sequences = st.sequences;
      out.node = st.node;
      out.threads = st.threads;
      out.bound = st.bound ? 1 : 0;
    }
  }
  if (db_ != nullptr) {
    s.db_source = static_cast<uint64_t>(db_source_);
    s.db_load_seconds = db_load_seconds_;
    s.db_epoch = db_epoch_;
    if (mapped_ != nullptr) {
      s.db_map_bytes = mapped_->mapped_bytes();
      s.db_resident_bytes = mapped_->resident_bytes();
    }
  }
  return s;
}

std::string AlignService::dump_metrics(obs::MetricsFormat format) const {
  return obs::render_metrics(metrics(), format);
}

std::vector<obs::Sample> AlignService::samples() const {
  return sampler_ ? sampler_->samples() : std::vector<obs::Sample>{};
}

double AlignService::model_ghz() {
  double g = model_ghz_.load(std::memory_order_relaxed);
  if (g == 0) {
    g = perf::measure_frequency(10.0).ghz;
    model_ghz_.store(g, std::memory_order_relaxed);
  }
  return g;
}

std::optional<perf::TopDownResult> AlignService::maybe_topdown(
    const std::function<void()>& work, uint64_t est_cells) {
  if (opt_.obs.topdown_every_n == 0 ||
      topdown_seq_.fetch_add(1, std::memory_order_relaxed) %
              opt_.obs.topdown_every_n !=
          0) {
    work();
    return std::nullopt;
  }
  perf::ModelInputs model;
  // ~1 retired instruction per DP cell and one byte of DP state touched per
  // 8 cells — order-of-magnitude estimates for the analytical fallback; the
  // hardware-counter path ignores them.
  model.instructions = est_cells > 0 ? est_cells : 1;
  model.mem_bytes = est_cells / 8 + 1;
  model.ghz = model_ghz();
  return perf::topdown_analyze(work, model);
}

size_t AlignService::queued_locked() const {
  size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

AlignService::Task AlignService::pop_locked() {
  for (auto& q : queues_) {
    if (!q.empty()) {
      Task t = std::move(q.front());
      q.pop_front();
      return t;
    }
  }
  return {};  // unreachable under the documented precondition
}

size_t AlignService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_locked();
}

void AlignService::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void AlignService::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void AlignService::executor_loop(unsigned index) {
  for (;;) {
    Task t;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(
          lk, [&] { return stop_ || (!paused_ && queued_locked() > 0); });
      if (stop_) return;
      t = pop_locked();
    }
    space_cv_.notify_one();
    // Occupy this executor's in-flight slot for the run — the watchdog's
    // and flight recorder's view of "what is executing right now".
    obs::InFlightTable::Guard guard(*inflight_, index, t.id, t.scenario,
                                    t.deadline_ns);
    if (opt_.before_execute_hook) opt_.before_execute_hook();
    t.run(/*aborted=*/false);
  }
}

obs::TraceContext AlignService::trace_context(uint64_t trace_id) noexcept {
  obs::TraceContext t;
  t.sink = opt_.obs.trace_sink;
  t.trace_id = trace_id;
  if (opt_.obs.pmu_attribution) {
    t.pmu = &obs::PmuSession::instance();
    t.registry = &metrics_;
  }
  return t;
}

uint64_t AlignService::next_request_id() noexcept {
  return opt_.obs.trace_sink != nullptr
             ? opt_.obs.trace_sink->next_trace_id()
             : request_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool AlignService::enqueue(
    Task task, const std::function<void(core::ConfigError)>& reject) {
  std::unique_lock<std::mutex> lk(mu_);
  if (opt_.queue.overflow == QueueOptions::Overflow::Block) {
    space_cv_.wait(lk, [&] {
      return stop_ || queued_locked() < opt_.queue.capacity;
    });
  }
  if (stop_) {
    lk.unlock();
    metrics_.on_aborted();
    obs::log_warn("service.reject",
                  {{"reason", "shutting_down"}, {"request_id", task.id}});
    reject(core::ConfigError{Code::ShuttingDown,
                             "AlignService: shutting down"});
    return false;
  }
  if (queued_locked() >= opt_.queue.capacity) {
    lk.unlock();
    metrics_.on_rejected_queue_full();
    obs::log_warn("service.reject",
                  {{"reason", "queue_full"},
                   {"request_id", task.id},
                   {"capacity", opt_.queue.capacity}});
    reject(core::ConfigError{
        Code::QueueFull, "AlignService: submission queue at capacity (" +
                             std::to_string(opt_.queue.capacity) + ")"});
    return false;
  }
  queues_[static_cast<size_t>(task.tier)].push_back(std::move(task));
  metrics_.on_submitted();
  lk.unlock();
  work_cv_.notify_one();
  return true;
}

core::ErrorOr<core::AlignConfig> AlignService::effective_config(
    const RequestOptions& options) const {
  core::AlignConfig cfg = options.config ? *options.config : opt_.config;
  if (auto st = cfg.try_validate(); !st) return st.error();
  return cfg;
}

std::optional<core::ConfigError> AlignService::batch_lanes_error(
    const RequestOptions& options) const {
  if (packed_ == nullptr) return std::nullopt;
  const simd::Isa isa = simd::resolve_isa(
      (options.config ? *options.config : opt_.config).isa);
  if (core::batch_lanes_fit(packed_->lanes(), isa)) return std::nullopt;
  return core::ConfigError{
      Code::Unsupported,
      "AlignService: database packed " + std::to_string(packed_->lanes()) +
          " lanes wide; isa " + simd::isa_name(isa) + " drives " +
          std::to_string(core::batch_lanes_for(isa))};
}

RequestTrace AlignService::make_trace(Scenario scenario,
                                      const core::AlignConfig& cfg,
                                      double queue_wait_s, double kernel_s,
                                      uint64_t cells, uint64_t retries) const {
  RequestTrace tr;
  tr.scenario = scenario;
  tr.queue_wait_s = queue_wait_s;
  tr.kernel_s = kernel_s;
  tr.cells = cells;
  tr.saturation_retries = retries;
  tr.isa = simd::resolve_isa(cfg.isa);
  tr.delivery = effective_delivery(cfg, tr.isa);
  return tr;
}

void AlignService::submit_async(AlignRequest request, AlignCompletion done) {
  auto cb = std::make_shared<AlignCompletion>(std::move(done));
  auto rq = std::make_shared<AlignRequest>(std::move(request));
  metrics_.on_query_length(rq->query.length());
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline =
      rq->options.deadline ? submitted + *rq->options.deadline
                           : Clock::time_point{};
  obs::TraceSink* const sink = opt_.obs.trace_sink;
  // A caller-propagated trace id (wire tracing) wins over a local one so
  // client and server spans share a single id end to end.
  const uint64_t trace_id =
      rq->options.trace_id != 0 ? rq->options.trace_id : next_request_id();
  const uint64_t t_sub_ns = sink ? sink->now_ns() : 0;

  Task task;
  task.run = [this, cb, rq, submitted, deadline, sink, trace_id,
              t_sub_ns](bool aborted) {
    if (aborted) {
      (*cb)(core::ConfigError{Code::ShuttingDown,
                              "AlignService: shut down before run"});
      return;
    }
    const obs::TraceContext tctx = trace_context(trace_id);
    if (sink) sink->record_span("queue_wait", trace_id, t_sub_ns, sink->now_ns());
    const double qwait = seconds_since(submitted);
    metrics_.on_queue_wait(qwait);
    if (deadline.time_since_epoch().count() != 0 && Clock::now() >= deadline) {
      metrics_.on_deadline_expired();
      obs::log_warn("service.deadline_expired",
                    {{"trace_id", trace_id},
                     {"where", "queue"},
                     {"queue_wait_s", qwait}});
      (*cb)(core::ConfigError{Code::DeadlineExceeded,
                              "AlignService: deadline expired in queue"});
      return;
    }
    auto cfg_or = effective_config(rq->options);
    if (!cfg_or) {
      metrics_.on_invalid_request();
      obs::log_warn("service.invalid_request",
                    {{"trace_id", trace_id},
                     {"message", cfg_or.error().message}});
      (*cb)(cfg_or.error());
      return;
    }
    core::AlignConfig cfg = *cfg_or;
    if (rq->options.traceback) cfg.traceback = *rq->options.traceback;

    obs::Span dispatch(tctx, "dispatch.pairwise");
    const uint64_t est_cells = static_cast<uint64_t>(rq->query.length()) *
                               rq->reference.length();
    perf::Stopwatch sw;
    core::Alignment a;
    std::optional<perf::TopDownResult> td;
    try {
      td = maybe_topdown(
          [&] {
            thread_local core::Workspace ws;  // one per executor thread
            std::shared_ptr<const core::PreparedQuery> prep;
            if (query_cache_) prep = query_cache_->prepared(rq->query, cfg);
            obs::Span chunk(tctx, "chunk.pairwise");
            chunk.set_kernel(perf::KernelVariant::Diagonal);
            a = core::diag_align(rq->query, rq->reference, cfg, ws,
                                 prep.get());
            chunk.set_isa(a.isa_used);
            chunk.set_width_bits(dp_width_bits(a.width_used));
            chunk.add_cells(a.stats.cells);
          },
          est_cells);
    } catch (const std::exception& e) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::Internal, e.what()});
      return;
    }
    const double kernel_s = sw.seconds();
    const uint64_t retries =
        static_cast<uint64_t>(a.saturated_8) + static_cast<uint64_t>(a.saturated_16);
    RequestTrace tr = make_trace(Scenario::Pairwise, cfg, qwait, kernel_s,
                                 a.stats.cells, retries);
    tr.exec_sequence = exec_sequence_.fetch_add(1, std::memory_order_relaxed);
    tr.isa = a.isa_used;
    tr.width_used = a.width_used;
    tr.trace_id = sink != nullptr ? trace_id : 0;
    tr.topdown = std::move(td);
    metrics_.on_completed(perf::MetricsRegistry::Scenario::Pairwise, kernel_s,
                          a.stats.cells);
    metrics_.on_tier_completed(static_cast<unsigned>(rq->options.tier),
                               perf::MetricsRegistry::Scenario::Pairwise,
                               qwait + kernel_s);
    metrics_.on_kernel_completed(a.isa_used, perf::KernelVariant::Diagonal,
                                 a.stats.cells);
    dispatch.end();
    (*cb)(AlignResponse{std::move(a), tr});
  };
  task.id = trace_id;
  task.scenario = obs::Scenario::Pairwise;
  task.deadline_ns = deadline_to_ns(deadline);
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

std::future<AlignResponse> AlignService::submit(AlignRequest request) {
  auto prom = std::make_shared<std::promise<AlignResponse>>();
  std::future<AlignResponse> fut = prom->get_future();
  submit_async(std::move(request), [prom](core::ErrorOr<AlignResponse> out) {
    fulfil_promise(prom, std::move(out));
  });
  return fut;
}

void AlignService::submit_async(SearchRequest request, SearchCompletion done) {
  if (request.mode == align::SearchMode::Batch) {
    if (auto err = batch_lanes_error(request.options)) {
      metrics_.on_invalid_request();
      done(std::move(*err));
      return;
    }
  }
  auto cb = std::make_shared<SearchCompletion>(std::move(done));
  auto rq = std::make_shared<SearchRequest>(std::move(request));
  metrics_.on_query_length(rq->query.length());
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline =
      rq->options.deadline ? submitted + *rq->options.deadline
                           : Clock::time_point{};
  obs::TraceSink* const sink = opt_.obs.trace_sink;
  // A caller-propagated trace id (wire tracing) wins over a local one so
  // client and server spans share a single id end to end.
  const uint64_t trace_id =
      rq->options.trace_id != 0 ? rq->options.trace_id : next_request_id();
  const uint64_t t_sub_ns = sink ? sink->now_ns() : 0;

  Task task;
  task.run = [this, cb, rq, submitted, deadline, sink, trace_id,
              t_sub_ns](bool aborted) {
    if (aborted) {
      (*cb)(core::ConfigError{Code::ShuttingDown,
                              "AlignService: shut down before run"});
      return;
    }
    const obs::TraceContext tctx = trace_context(trace_id);
    if (sink) sink->record_span("queue_wait", trace_id, t_sub_ns, sink->now_ns());
    const double qwait = seconds_since(submitted);
    metrics_.on_queue_wait(qwait);
    if (deadline.time_since_epoch().count() != 0 && Clock::now() >= deadline) {
      metrics_.on_deadline_expired();
      obs::log_warn("service.deadline_expired",
                    {{"trace_id", trace_id},
                     {"where", "queue"},
                     {"queue_wait_s", qwait}});
      (*cb)(core::ConfigError{Code::DeadlineExceeded,
                              "AlignService: deadline expired in queue"});
      return;
    }
    if (!db_) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::NoDatabase,
                              "AlignService: no database attached"});
      return;
    }
    auto cfg_or = effective_config(rq->options);
    if (!cfg_or) {
      metrics_.on_invalid_request();
      obs::log_warn("service.invalid_request",
                    {{"trace_id", trace_id},
                     {"message", cfg_or.error().message}});
      (*cb)(cfg_or.error());
      return;
    }
    core::AlignConfig cfg = *cfg_or;
    cfg.traceback = false;  // scoring pass, like DatabaseSearch
    if (rq->mode == align::SearchMode::Batch && cfg.band >= 0) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::Unsupported,
                              "AlignService: Batch search cannot band"});
      return;
    }
    const size_t top_k = rq->options.top_k.value_or(opt_.default_top_k);

    align::ExecContext ctx;
    ctx.pool = &pool_;
    ctx.query_cache = query_cache_.get();
    ctx.deadline = deadline;
    ctx.trace = tctx;
    obs::Span dispatch(tctx, "dispatch.search");
    const uint64_t est_cells =
        static_cast<uint64_t>(rq->query.length()) * db_->total_residues();
    align::SearchResult res;
    std::optional<perf::TopDownResult> td;
    {
      std::lock_guard<std::mutex> pool_lk(pool_mu_);
      td = maybe_topdown(
          [&] {
            // Batch searches route through the sharded engine when one was
            // built (search.shards != 1) — per-NUMA-node pools, bounded
            // per-shard heaps, bit-identical merged top-k.
            if (rq->mode == align::SearchMode::Batch)
              res = sharded_ != nullptr
                        ? sharded_->search(cfg, rq->query, top_k, ctx)
                        : align::engine::search_batch(*db_, *packed_, cfg,
                                                      rq->query, top_k, ctx);
            else
              res = align::engine::search_diagonal(*db_, cfg, rq->query,
                                                   top_k, ctx);
          },
          est_cells);
    }
    if (res.truncated) {
      metrics_.on_deadline_expired();
      obs::log_warn("service.deadline_expired",
                    {{"trace_id", trace_id}, {"where", "mid_search"}});
      (*cb)(core::ConfigError{Code::DeadlineExceeded,
                              "AlignService: deadline expired mid-search"});
      return;
    }
    RequestTrace tr = make_trace(Scenario::Search, cfg, qwait, res.seconds,
                                 res.stats.cells, 0);
    tr.exec_sequence = exec_sequence_.fetch_add(1, std::memory_order_relaxed);
    tr.trace_id = sink != nullptr ? trace_id : 0;
    tr.topdown = std::move(td);
    metrics_.on_completed(perf::MetricsRegistry::Scenario::Search, res.seconds,
                          res.stats.cells);
    metrics_.on_tier_completed(static_cast<unsigned>(rq->options.tier),
                               perf::MetricsRegistry::Scenario::Search,
                               qwait + res.seconds);
    if (res.batch_stats.cells8 > 0)
      metrics_.on_batch_packing(res.batch_stats.cells8,
                                res.batch_stats.useful_cells8);
    metrics_.on_kernel_completed(tr.isa,
                                 rq->mode == align::SearchMode::Batch
                                     ? perf::KernelVariant::Batch32
                                     : perf::KernelVariant::Diagonal,
                                 res.stats.cells);
    dispatch.end();
    (*cb)(SearchResponse{std::move(res), tr});
  };
  task.id = trace_id;
  task.scenario = obs::Scenario::Search;
  task.deadline_ns = deadline_to_ns(deadline);
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

std::future<SearchResponse> AlignService::submit_search(SearchRequest request) {
  auto prom = std::make_shared<std::promise<SearchResponse>>();
  std::future<SearchResponse> fut = prom->get_future();
  submit_async(std::move(request), [prom](core::ErrorOr<SearchResponse> out) {
    fulfil_promise(prom, std::move(out));
  });
  return fut;
}

void AlignService::submit_async(BatchRequest request, BatchCompletion done) {
  if (auto err = batch_lanes_error(request.options)) {
    metrics_.on_invalid_request();
    done(std::move(*err));
    return;
  }
  auto cb = std::make_shared<BatchCompletion>(std::move(done));
  auto rq = std::make_shared<BatchRequest>(std::move(request));
  for (const auto& q : rq->queries) metrics_.on_query_length(q.length());
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline =
      rq->options.deadline ? submitted + *rq->options.deadline
                           : Clock::time_point{};
  obs::TraceSink* const sink = opt_.obs.trace_sink;
  // A caller-propagated trace id (wire tracing) wins over a local one so
  // client and server spans share a single id end to end.
  const uint64_t trace_id =
      rq->options.trace_id != 0 ? rq->options.trace_id : next_request_id();
  const uint64_t t_sub_ns = sink ? sink->now_ns() : 0;

  Task task;
  task.run = [this, cb, rq, submitted, deadline, sink, trace_id,
              t_sub_ns](bool aborted) {
    if (aborted) {
      (*cb)(core::ConfigError{Code::ShuttingDown,
                              "AlignService: shut down before run"});
      return;
    }
    const obs::TraceContext tctx = trace_context(trace_id);
    if (sink) sink->record_span("queue_wait", trace_id, t_sub_ns, sink->now_ns());
    const double qwait = seconds_since(submitted);
    metrics_.on_queue_wait(qwait);
    if (deadline.time_since_epoch().count() != 0 && Clock::now() >= deadline) {
      metrics_.on_deadline_expired();
      obs::log_warn("service.deadline_expired",
                    {{"trace_id", trace_id},
                     {"where", "queue"},
                     {"queue_wait_s", qwait}});
      (*cb)(core::ConfigError{Code::DeadlineExceeded,
                              "AlignService: deadline expired in queue"});
      return;
    }
    if (!db_) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::NoDatabase,
                              "AlignService: no database attached"});
      return;
    }
    if (rq->queries.empty()) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::EmptyRequest,
                              "AlignService: batch with no queries"});
      return;
    }
    auto cfg_or = effective_config(rq->options);
    if (!cfg_or) {
      metrics_.on_invalid_request();
      obs::log_warn("service.invalid_request",
                    {{"trace_id", trace_id},
                     {"message", cfg_or.error().message}});
      (*cb)(cfg_or.error());
      return;
    }
    core::AlignConfig cfg = *cfg_or;
    cfg.traceback = false;
    if (cfg.band >= 0) {
      metrics_.on_invalid_request();
      (*cb)(core::ConfigError{Code::Unsupported,
                              "AlignService: batch cannot band"});
      return;
    }
    const size_t top_k = rq->options.top_k.value_or(opt_.default_top_k);

    align::ExecContext ctx;
    ctx.pool = &pool_;
    ctx.query_cache = query_cache_.get();
    ctx.deadline = deadline;
    ctx.trace = tctx;
    obs::Span dispatch(tctx, "dispatch.batch");
    uint64_t est_cells = 0;
    for (const auto& q : rq->queries)
      est_cells += static_cast<uint64_t>(q.length()) * db_->total_residues();
    perf::Stopwatch sw;
    std::vector<align::BatchQueryResult> results;
    std::optional<perf::TopDownResult> td;
    {
      std::lock_guard<std::mutex> pool_lk(pool_mu_);
      td = maybe_topdown(
          [&] {
            results = align::engine::batch_run(*db_, *packed_, cfg, rq->queries,
                                               top_k, ctx);
          },
          est_cells);
    }
    const double kernel_s = sw.seconds();
    uint64_t cells = 0, retries = 0;
    uint64_t cells8 = 0, useful8 = 0;
    bool truncated = false;
    for (const auto& r : results) {
      cells += r.result.stats.cells;
      retries += r.batch_stats.rescored;
      cells8 += r.batch_stats.cells8;
      useful8 += r.batch_stats.useful_cells8;
      truncated = truncated || r.result.truncated;
    }
    if (truncated) {
      metrics_.on_deadline_expired();
      obs::log_warn("service.deadline_expired",
                    {{"trace_id", trace_id}, {"where", "mid_batch"}});
      (*cb)(core::ConfigError{Code::DeadlineExceeded,
                              "AlignService: deadline expired mid-batch"});
      return;
    }
    RequestTrace tr = make_trace(Scenario::Batch, cfg, qwait, kernel_s, cells,
                                 retries);
    tr.exec_sequence = exec_sequence_.fetch_add(1, std::memory_order_relaxed);
    tr.trace_id = sink != nullptr ? trace_id : 0;
    tr.topdown = std::move(td);
    metrics_.on_completed(perf::MetricsRegistry::Scenario::Batch, kernel_s,
                          cells);
    metrics_.on_tier_completed(static_cast<unsigned>(rq->options.tier),
                               perf::MetricsRegistry::Scenario::Batch,
                               qwait + kernel_s);
    if (cells8 > 0) metrics_.on_batch_packing(cells8, useful8);
    metrics_.on_kernel_completed(tr.isa, perf::KernelVariant::Batch32, cells);
    dispatch.end();
    (*cb)(BatchResponse{std::move(results), tr});
  };
  task.id = trace_id;
  task.scenario = obs::Scenario::Batch;
  task.deadline_ns = deadline_to_ns(deadline);
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

std::future<BatchResponse> AlignService::submit_batch(BatchRequest request) {
  auto prom = std::make_shared<std::promise<BatchResponse>>();
  std::future<BatchResponse> fut = prom->get_future();
  submit_async(std::move(request), [prom](core::ErrorOr<BatchResponse> out) {
    fulfil_promise(prom, std::move(out));
  });
  return fut;
}

}  // namespace swve::service
