#include "service/align_service.hpp"

#include <algorithm>
#include <utility>

#include "core/dispatch.hpp"
#include "obs/log.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/timer.hpp"

namespace swve::service {

namespace {

using Clock = std::chrono::steady_clock;
using Code = core::ConfigError::Code;

/// Letters in the largest alphabet among `seqs` (0 when empty).
template <typename Seqs>
int alphabet_codes(const Seqs& seqs) {
  int codes = 0;
  for (const seq::Sequence& s : seqs)
    codes = std::max(codes, s.alphabet().size());
  return codes;
}

/// Seconds between two obs::steady_now_ns() readings.
double seconds_between(uint64_t t0_ns, uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

/// An obs::steady_now_ns() value as a steady_clock time_point (both are
/// steady_clock nanoseconds since the same epoch); 0 stays the null point.
Clock::time_point steady_time_point(uint64_t ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns)));
}

/// A steady_now_ns() value on a sink's trace time base.
uint64_t sink_ns(const obs::TraceSink& sink, uint64_t steady_ns) {
  return steady_ns > sink.epoch_steady_ns() ? steady_ns - sink.epoch_steady_ns()
                                            : 0;
}

core::ConfigError shut_down_before_run() {
  return core::ConfigError{Code::ShuttingDown,
                           "AlignService: shut down before run"};
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
  inflight_ = std::make_unique<obs::InFlightTable>(
      opt_.queue.executors + std::max(1u, std::thread::hardware_concurrency()));
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_admission_locked();  // start_paused: nothing runs inline yet
  }
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
  // Telemetry history: the sampler tick probes the core frequency, then
  // feeds the store and the SLO engine. The probe spins for the sampler's
  // default 5 ms per tick.
  const double cadence = opt_.serve.telemetry_cadence_s;
  if (cadence <= 0) return;
  obs::TimeSeriesOptions to;
  to.cadence_s = cadence;
  to.capacity = std::max<size_t>(
      1, static_cast<size_t>(opt_.serve.telemetry_retention_s / cadence));
  timeseries_ = std::make_unique<obs::TimeSeriesStore>(to);
  if (opt_.obs.slo.enabled())
    slo_ = std::make_unique<obs::SloEngine>(opt_.obs.slo, timeseries_.get());
  obs::SamplerOptions so;
  so.period_s = cadence;
  so.on_sample = [this](const obs::SamplerTick& tick,
                        const perf::MetricsSnapshot& snap) {
    timeseries_->push(snap, tick.t_s, queue_depth(), tick.probe_ghz,
                      tick.cpufreq_ghz);
    if (slo_) slo_->evaluate(tick.t_s);
  };
  sampler_ = std::make_unique<obs::Sampler>(so, [this] { return metrics(); });
}

AlignService::AlignService(const seq::SequenceDatabase& db,
                           ServiceOptions options)
    : AlignService(InitTag{}, std::move(options)) {
  db_ = &db;
  db_alphabet_codes_ = alphabet_codes(db.sequences());
  // Pack once, up front, before any request can arrive (executors are
  // already running but the queue is still empty while we're here only if
  // the caller hasn't submitted yet — which it can't: it has no handle).
  perf::Stopwatch sw;
  bdb_ = std::make_unique<core::Batch32Db>(
      db, core::batch_lanes_for(simd::resolve_isa(opt_.config.isa)));
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
  align::ShardOptions so;
  so.shards = opt_.search.shards;
  so.numa = opt_.search.numa;
  so.total_threads = opt_.pool_threads;
  so.mapped = mapped_;
  auto sh = align::ShardedSearch::create(*db_, *packed_, so);
  if (!sh.ok()) throw std::invalid_argument(sh.error().message);
  sharded_ = std::move(sh).value();
}

AlignService::AlignService(const core::MappedDb& mapped, ServiceOptions options)
    : AlignService(InitTag{}, std::move(options)) {
  db_ = &mapped.db();
  db_alphabet_codes_ = alphabet_codes(db_->sequences());
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
    publish_admission_locked();
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
    if (mapped_ != nullptr) {
      s.db_map_bytes = mapped_->mapped_bytes();
      s.db_resident_bytes = mapped_->resident_bytes();
    }
  }
  const perf::ProcessMemory mem = perf::read_process_memory();
  s.process_resident_bytes = mem.resident_bytes;
  s.process_peak_resident_bytes = mem.peak_resident_bytes;
  return s;
}

std::string AlignService::dump_metrics(obs::MetricsFormat format) const {
  return obs::render_metrics(metrics(), format);
}

double AlignService::model_ghz() {
  double g = model_ghz_.load(std::memory_order_relaxed);
  if (g == 0) {
    g = perf::measure_frequency(10.0).ghz;
    model_ghz_.store(g, std::memory_order_relaxed);
  }
  return g;
}

template <typename Work>
std::optional<perf::TopDownResult> AlignService::maybe_topdown(
    Work&& work, uint64_t est_cells) {
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
  return perf::topdown_analyze(std::function<void()>(work), model);
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
  publish_admission_locked();
}

void AlignService::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
    publish_admission_locked();
  }
  work_cv_.notify_all();
}

void AlignService::publish_admission_locked() {
  const uint64_t busy = std::min<uint64_t>(busy_, (uint64_t{1} << 30) - 1);
  const uint64_t queued = std::min<uint64_t>(queued_locked(), ~uint32_t{0});
  admission_.value.store(uint64_t{stop_} | uint64_t{paused_} << 1 |
                             busy << 2 | queued << 32,
                         std::memory_order_release);
}

void AlignService::executor_loop(unsigned index) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk,
                  [&] { return stop_ || (!paused_ && queued_locked() > 0); });
    if (stop_) return;
    {
      Task t = pop_locked();
      ++busy_;
      publish_admission_locked();
      lk.unlock();
      space_cv_.notify_one();
      // Occupy this executor's in-flight slot for the run: the watchdog's
      // and flight recorder's view of "what is executing right now".
      obs::InFlightTable::Guard slot(*inflight_, index, t.id, t.scenario,
                                     t.deadline_ns);
      if (opt_.before_execute_hook) opt_.before_execute_hook();
      t.run(/*aborted=*/false);
    }  // the task and its captures die outside the lock
    lk.lock();
    --busy_;
    publish_admission_locked();
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
             : request_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
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
  publish_admission_locked();
  metrics_.on_submitted();
  lk.unlock();
  work_cv_.notify_one();
  return true;
}

core::ErrorOr<core::AlignConfig> AlignService::effective_config(
    const RequestOptions& options, int residue_codes) const {
  core::AlignConfig cfg = options.config ? *options.config : opt_.config;
  if (auto st = cfg.try_validate(); !st) return st.error();
  if (cfg.scheme == core::ScoreScheme::Matrix &&
      residue_codes > cfg.matrix->dim())
    return core::ConfigError{
        Code::Unsupported,
        "AlignService: matrix " + cfg.matrix->name() + " scores " +
            std::to_string(cfg.matrix->dim()) +
            " residue codes; the request's residues use " +
            std::to_string(residue_codes)};
  return cfg;
}

RequestTrace AlignService::make_trace(Scenario scenario,
                                      const core::AlignConfig& cfg,
                                      simd::Isa isa, core::Width width,
                                      double queue_wait_s, double kernel_s,
                                      uint64_t cells, uint64_t retries) const {
  RequestTrace tr;
  tr.scenario = scenario;
  tr.queue_wait_s = queue_wait_s;
  tr.kernel_s = kernel_s;
  tr.cells = cells;
  tr.saturation_retries = retries;
  tr.isa = isa;
  tr.delivery = core::delivery_for(cfg, isa, width);
  return tr;
}

AlignService::Stamp AlignService::stamp(const RequestOptions& options) noexcept {
  Stamp st;
  // A caller-propagated trace id (wire tracing) wins over a local one so
  // client and server spans share a single id end to end.
  st.trace_id = options.trace_id != 0 ? options.trace_id : next_request_id();
  st.submit_ns = obs::steady_now_ns();
  if (options.deadline)
    st.deadline_ns =
        st.submit_ns +
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                *options.deadline)
                .count());
  return st;
}

core::ErrorOr<double> AlignService::begin_run(const Stamp& st,
                                              uint64_t now_ns) {
  if (obs::TraceSink* sink = opt_.obs.trace_sink; sink != nullptr)
    sink->record_span("queue_wait", st.trace_id, sink_ns(*sink, st.submit_ns),
                      sink_ns(*sink, now_ns));
  const double qwait = seconds_between(st.submit_ns, now_ns);
  metrics_.on_queue_wait(qwait);
  if (st.deadline_ns != 0 && now_ns >= st.deadline_ns) {
    metrics_.on_deadline_expired();
    obs::log_warn("service.deadline_expired", {{"trace_id", st.trace_id},
                                               {"where", "queue"},
                                               {"queue_wait_s", qwait}});
    return core::ConfigError{Code::DeadlineExceeded,
                             "AlignService: deadline expired in queue"};
  }
  return qwait;
}

std::optional<core::ConfigError> AlignService::traceback_cap_error(
    const AlignRequest& request) const {
  const core::AlignConfig& cfg =
      request.options.config ? *request.options.config : opt_.config;
  const uint64_t cells =
      static_cast<uint64_t>(request.query.length()) * request.reference.length();
  if (!request.options.traceback.value_or(cfg.traceback) ||
      cells <= cfg.max_traceback_cells)
    return std::nullopt;
  // An invalid config fails with its own error, from the request body.
  if (!effective_config(request.options,
                        std::max(request.query.alphabet().size(),
                                 request.reference.alphabet().size())))
    return std::nullopt;
  return core::ConfigError{
      Code::Unsupported,
      "AlignService: traceback over " + std::to_string(cells) +
          " cells exceeds max_traceback_cells (" +
          std::to_string(cfg.max_traceback_cells) + ")"};
}

void AlignService::submit_async(AlignRequest request, AlignCompletion done) {
  if (auto err = traceback_cap_error(request)) {
    metrics_.on_invalid_request();
    obs::log_warn("service.invalid_request",
                  {{"trace_id", request.options.trace_id},
                   {"message", err->message}});
    done(std::move(*err));
    return;
  }
  metrics_.on_query_length(request.query.length());
  const Stamp st = stamp(request.options);
  const uint64_t cells =
      static_cast<uint64_t>(request.query.length()) * request.reference.length();
  if (cells <= kInlineMaxCells && admits_inline()) {
    // Caller-runs: the request and `done` stay where they are, and the
    // in-flight entry starts at the submit instant.
    obs::InFlightTable::Guard slot =
        inflight_->claim(opt_.queue.executors, st.trace_id,
                         obs::Scenario::Pairwise, st.deadline_ns, st.submit_ns);
    if (slot) {
      metrics_.on_submitted();
      metrics_.on_inline_run();
      if (opt_.before_execute_hook) opt_.before_execute_hook();
      run_pairwise(request, done, st);
      return;
    }
  }
  auto cb = std::make_shared<AlignCompletion>(std::move(done));
  auto rq = std::make_shared<AlignRequest>(std::move(request));
  Task task;
  task.run = [this, cb, rq, st](bool aborted) {
    if (aborted) {
      (*cb)(shut_down_before_run());
      return;
    }
    run_pairwise(*rq, *cb, st);
  };
  task.id = st.trace_id;
  task.scenario = obs::Scenario::Pairwise;
  task.deadline_ns = st.deadline_ns;
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

void AlignService::run_pairwise(const AlignRequest& rq,
                                const AlignCompletion& done, const Stamp& st) {
  // Past the submit stamp, three clock reads: t_exec ends the queue wait and
  // starts the dispatch span and kernel_s, chunk.pairwise takes its own
  // just before the kernel, and t_end ends the kernel, both spans, kernel_s
  // and the request's window second.
  const uint64_t t_exec = obs::steady_now_ns();
  core::ErrorOr<double> qwait = begin_run(st, t_exec);
  if (!qwait) {
    done(qwait.error());
    return;
  }
  auto cfg_or = effective_config(
      rq.options,
      std::max(rq.query.alphabet().size(), rq.reference.alphabet().size()));
  if (!cfg_or) {
    metrics_.on_invalid_request();
    obs::log_warn("service.invalid_request",
                  {{"trace_id", st.trace_id},
                   {"message", cfg_or.error().message}});
    done(cfg_or.error());
    return;
  }
  core::AlignConfig cfg = *cfg_or;
  if (rq.options.traceback) cfg.traceback = *rq.options.traceback;

  const obs::TraceContext tctx = trace_context(st.trace_id);
  obs::Span dispatch(tctx, "dispatch.pairwise", t_exec);
  core::Alignment a;
  uint64_t t_end = 0;
  std::optional<perf::TopDownResult> td;
  try {
    td = maybe_topdown(
        [&] {
          // The executor's or inline caller's own workspace; the kernel
          // builds the pair's query feed there.
          obs::Span chunk(tctx, "chunk.pairwise");
          a = core::pair_align(rq.query, rq.reference, cfg,
                               core::thread_workspace());
          t_end = obs::steady_now_ns();
          chunk.set_kernel(align::kernel_variant(a.sweep));
          chunk.set_isa(a.isa_used);
          chunk.set_width_bits(dp_width_bits(a.width_used));
          chunk.add_cells(a.stats.cells);
          chunk.end(t_end);
        },
        static_cast<uint64_t>(rq.query.length()) * rq.reference.length());
  } catch (const std::exception& e) {
    metrics_.on_invalid_request();
    done(core::ConfigError{Code::Internal, e.what()});
    return;
  }
  const double kernel_s = seconds_between(t_exec, t_end);
  const uint64_t retries = static_cast<uint64_t>(a.saturated_8) +
                           static_cast<uint64_t>(a.saturated_16);
  RequestTrace tr = make_trace(Scenario::Pairwise, cfg, a.isa_used,
                               a.width_used, *qwait, kernel_s, a.stats.cells,
                               retries);
  tr.exec_sequence =
      exec_sequence_.value.fetch_add(1, std::memory_order_relaxed);
  tr.width_used = a.width_used;
  tr.trace_id = opt_.obs.trace_sink != nullptr ? st.trace_id : 0;
  tr.topdown = std::move(td);
  metrics_.on_completed(perf::MetricsRegistry::Scenario::Pairwise, kernel_s,
                        a.stats.cells, t_end);
  metrics_.on_tier_completed(static_cast<unsigned>(rq.options.tier),
                             perf::MetricsRegistry::Scenario::Pairwise,
                             *qwait + kernel_s);
  metrics_.on_kernel_completed(a.isa_used, align::kernel_variant(a.sweep),
                               a.stats.cells);
  dispatch.end(t_end);
  done(AlignResponse{std::move(a), std::move(tr)});
}

core::ErrorOr<AlignService::DbRun> AlignService::run_database(
    Scenario scenario, std::span<const seq::Sequence> queries,
    const RequestOptions& options, const Stamp& st) {
  const bool batch = scenario == Scenario::Batch;
  const uint64_t t_exec = obs::steady_now_ns();
  const core::ErrorOr<double> qwait = begin_run(st, t_exec);
  if (!qwait) return qwait.error();
  if (!db_) {
    metrics_.on_invalid_request();
    return core::ConfigError{Code::NoDatabase,
                             "AlignService: no database attached"};
  }
  if (queries.empty()) {
    metrics_.on_invalid_request();
    return core::ConfigError{Code::EmptyRequest,
                             "AlignService: batch with no queries"};
  }
  auto cfg_or = effective_config(
      options, std::max(alphabet_codes(queries), db_alphabet_codes_));
  if (!cfg_or) {
    metrics_.on_invalid_request();
    obs::log_warn("service.invalid_request",
                  {{"trace_id", st.trace_id},
                   {"message", cfg_or.error().message}});
    return cfg_or.error();
  }
  core::AlignConfig cfg = *cfg_or;
  cfg.traceback = false;  // scoring pass, like DatabaseSearch
  if (batch && cfg.band >= 0) {
    metrics_.on_invalid_request();
    return core::ConfigError{Code::Unsupported,
                             "AlignService: batch cannot band"};
  }
  const size_t top_k = options.top_k.value_or(opt_.default_top_k);

  const obs::TraceContext tctx = trace_context(st.trace_id);
  align::ExecContext ctx;
  ctx.pool = &pool_;
  ctx.deadline = steady_time_point(st.deadline_ns);
  ctx.trace = tctx;
  obs::Span dispatch(tctx, batch ? "dispatch.batch" : "dispatch.search",
                     t_exec);
  uint64_t est_cells = 0;
  for (const seq::Sequence& q : queries)
    est_cells += static_cast<uint64_t>(q.length()) * db_->total_residues();
  DbRun run;
  std::optional<perf::TopDownResult> td;
  {
    std::lock_guard<std::mutex> pool_lk(pool_mu_);
    td = maybe_topdown(
        [&] {
          if (batch) {
            const std::vector<seq::SeqView> views(queries.begin(),
                                                  queries.end());
            run.results = sharded_->scan(cfg, views, top_k, ctx);
          } else {
            run.results.push_back(align::search_database(
                *db_, sharded_.get(), cfg, queries.front(), top_k, ctx));
          }
        },
        est_cells);
  }
  double kernel_s = 0;
  uint64_t cells = 0;
  bool truncated = false;
  core::BatchSearchStats scanned{};
  for (const align::SearchResult& r : run.results) {
    kernel_s = std::max(kernel_s, r.seconds);
    cells += r.stats.cells;
    truncated = truncated || r.truncated;
    scanned += r.batch_stats;
  }
  if (truncated) {
    metrics_.on_deadline_expired();
    obs::log_warn("service.deadline_expired",
                  {{"trace_id", st.trace_id},
                   {"where", batch ? "mid_batch" : "mid_search"}});
    return core::ConfigError{Code::DeadlineExceeded,
                             batch ? "AlignService: deadline expired mid-batch"
                                   : "AlignService: deadline expired mid-search"};
  }
  run.trace = make_trace(scenario, cfg, simd::resolve_isa(cfg.isa), cfg.width,
                         *qwait, kernel_s, cells, scanned.rescored);
  run.trace.exec_sequence =
      exec_sequence_.value.fetch_add(1, std::memory_order_relaxed);
  run.trace.trace_id = opt_.obs.trace_sink != nullptr ? st.trace_id : 0;
  run.trace.topdown = std::move(td);
  const auto metrics_scenario = batch ? perf::MetricsRegistry::Scenario::Batch
                                      : perf::MetricsRegistry::Scenario::Search;
  metrics_.on_completed(metrics_scenario, kernel_s, cells);
  metrics_.on_tier_completed(static_cast<unsigned>(options.tier),
                             metrics_scenario, *qwait + kernel_s);
  if (scanned.cells8 > 0)
    metrics_.on_batch_packing(scanned.cells8, scanned.useful_cells8);
  // A search whose scan counted 8-bit batch cells took the batch scan.
  if (batch || scanned.cells8 > 0) {
    metrics_.on_kernel_completed(run.trace.isa, perf::KernelVariant::Batch32,
                                 cells);
  } else {
    // pair_align picks the sweep per pair: each sweep's cells count under
    // its own target (a search that computed none counts under diagonal).
    const uint64_t column = run.results.front().stats.column_cells;
    if (column > 0)
      metrics_.on_kernel_completed(
          run.trace.isa, align::kernel_variant(core::Sweep::Column), column);
    if (column < cells || cells == 0)
      metrics_.on_kernel_completed(run.trace.isa,
                                   align::kernel_variant(core::Sweep::Diagonal),
                                   cells - column);
  }
  dispatch.end();
  return run;
}

void AlignService::submit_async(SearchRequest request, SearchCompletion done) {
  auto cb = std::make_shared<SearchCompletion>(std::move(done));
  auto rq = std::make_shared<SearchRequest>(std::move(request));
  metrics_.on_query_length(rq->query.length());
  const Stamp st = stamp(rq->options);

  Task task;
  task.run = [this, cb, rq, st](bool aborted) {
    if (aborted) {
      (*cb)(shut_down_before_run());
      return;
    }
    auto run =
        run_database(Scenario::Search, {&rq->query, 1}, rq->options, st);
    if (!run) {
      (*cb)(run.error());
      return;
    }
    (*cb)(SearchResponse{std::move(run->results.front()),
                         std::move(run->trace)});
  };
  task.id = st.trace_id;
  task.scenario = obs::Scenario::Search;
  task.deadline_ns = st.deadline_ns;
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

void AlignService::submit_async(BatchRequest request, BatchCompletion done) {
  // A batch has no engine but the batch scan: an ISA that cannot drive the
  // packed lanes fails before queueing.
  const simd::Isa isa = simd::resolve_isa(
      (request.options.config ? *request.options.config : opt_.config).isa);
  if (packed_ != nullptr && !core::batch_lanes_fit(packed_->lanes(), isa)) {
    metrics_.on_invalid_request();
    done(core::ConfigError{
        Code::Unsupported,
        "AlignService: database packed " + std::to_string(packed_->lanes()) +
            " lanes wide; isa " + simd::isa_name(isa) + " drives " +
            std::to_string(core::batch_lanes_for(isa))});
    return;
  }
  auto cb = std::make_shared<BatchCompletion>(std::move(done));
  auto rq = std::make_shared<BatchRequest>(std::move(request));
  for (const auto& q : rq->queries) metrics_.on_query_length(q.length());
  const Stamp st = stamp(rq->options);

  Task task;
  task.run = [this, cb, rq, st](bool aborted) {
    if (aborted) {
      (*cb)(shut_down_before_run());
      return;
    }
    auto run = run_database(Scenario::Batch, rq->queries, rq->options, st);
    if (!run) {
      (*cb)(run.error());
      return;
    }
    (*cb)(BatchResponse{std::move(run->results), std::move(run->trace)});
  };
  task.id = st.trace_id;
  task.scenario = obs::Scenario::Batch;
  task.deadline_ns = st.deadline_ns;
  task.tier = rq->options.tier;
  enqueue(std::move(task), [&cb](core::ConfigError e) { (*cb)(std::move(e)); });
}

}  // namespace swve::service
