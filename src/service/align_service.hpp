// AlignService — the async, metrics-instrumented front door over all three
// usage scenarios.
//
// One service owns:
//   - a parallel::ThreadPool for intra-request fan-out (search/batch),
//   - a bounded submission queue with backpressure (reject or block),
//   - executor threads that drain the queue FIFO (a small pairwise request
//     submitted while nothing is queued or executing runs on the submitting
//     thread instead: caller-runs),
//   - a perf::MetricsRegistry (request counters, queue-wait and kernel-time
//     histograms, aggregate GCUPS).
//
// Every scenario goes through one non-throwing call, submit_async, with a
// completion that receives core::ErrorOr<Response>:
//   submit_async(AlignRequest,  AlignCompletion)   (scenario 3, pairwise)
//   submit_async(SearchRequest, SearchCompletion)  (scenario 1)
//   submit_async(BatchRequest,  BatchCompletion)   (scenario 2)
// Blocking callers wrap it with submit_future() below, whose future yields
// the same ErrorOr.
//
// Requests route to the same code the synchronous facades use
// (align::search_database / align::ShardedSearch / core::pair_align), so
// results are bit-identical to direct DatabaseSearch / ShardedSearch /
// Aligner calls. A search takes search_database's rule: the batch scan
// when its config is unbanded and its ISA drives the packed lanes, the
// diagonal engine otherwise. A batch is one ShardedSearch::scan of all
// its queries, and one shard of either scan fans out over the service's
// pool. Failures — invalid config, queue full, deadline
// expiry, shutdown — arrive as a typed core::ConfigError in the ErrorOr
// (to_status() maps it to the wire); nothing is thrown on a worker thread.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "core/batch32.hpp"
#include "core/mapped_db.hpp"
#include "obs/exporters.hpp"
#include "obs/inflight.hpp"
#include "obs/pmu.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/metrics.hpp"
#include "seq/database.hpp"
#include "service/request.hpp"

namespace swve::service {

/// Submission-queue behavior (executors, capacity, backpressure).
struct QueueOptions {
  /// Executor threads draining the submission queue. 1 gives strict FIFO
  /// completion; more lets queued requests overlap. Small pairwise requests
  /// submitted while nothing is queued or executing need no executor: they
  /// run on their submitting threads, so they overlap at any value.
  unsigned executors = 1;
  /// Bounded submission queue capacity (pending, not yet executing),
  /// summed across QoS tiers.
  size_t capacity = 256;
  /// What submit_async does when the queue is full.
  enum class Overflow {
    Reject,  ///< fail the request immediately with QueueFull
    Block,   ///< block the submitter until space frees (backpressure)
  };
  Overflow overflow = Overflow::Reject;
  /// Start with executors paused (tests use this to fill the queue
  /// deterministically); call resume() to begin draining.
  bool start_paused = false;
};

/// Scenario-1 batch execution (align::ShardedSearch): how the packed
/// database is split across NUMA nodes and how shard memory is placed.
struct SearchOptions {
  /// Database shards for the batch scan. 1 (default) = one shard on the
  /// service's pool; 0 = auto (one shard per NUMA node — one shard on
  /// single-node hosts; at most perf::MetricsSnapshot::kMaxShards); N >= 2
  /// forces N shards, each on its own slice of pool_threads, and
  /// N > kMaxShards is rejected by try_validate. Requesting two or more
  /// shards than the packed database has batches fails construction with a
  /// typed config error.
  /// Results are bit-identical for every value.
  int shards = 1;
  /// Thread pinning + memory placement across shards (no effect when
  /// shards resolve to 1):
  ///   Off        — shard, but let the scheduler and first-touch decide;
  ///   Interleave — pin shard threads, page-interleave shared columns;
  ///   Bind       — pin shard threads, mbind each shard's columns local.
  parallel::NumaPolicy numa = parallel::NumaPolicy::Off;
};

/// Observability attachments (tracing, PMU, watchdog, top-down, SLO).
struct ObsOptions {
  /// Optional trace sink: when set, every request records queue-wait,
  /// dispatch, and kernel-chunk spans into it (Chrome trace JSON via
  /// obs::TraceSink::chrome_trace_json). Not owned; must outlive the
  /// service. Null = tracing compiled down to null checks.
  obs::TraceSink* trace_sink = nullptr;
  /// Attach a perf::topdown_analyze breakdown to one in N completed
  /// requests (RequestTrace::topdown); 0 disables sampling.
  uint32_t topdown_every_n = 0;
  /// Span-scoped hardware-counter attribution: kernel-chunk spans carry
  /// perf_event deltas (cycles/IPC/stalls/misses, effective GHz) and
  /// aggregate per ISA×kernel×width into the metrics. Degrades to a
  /// wall-clock-only fallback (pmu_unavailable gauge = 1) where perf_event
  /// is denied or absent; results are bit-identical either way.
  bool pmu_attribution = true;
  /// Latency SLO for the watchdog: a request executing longer than this
  /// produces one structured slow-request record (span tree + queue state)
  /// while it is still running. 0 disables the watchdog thread.
  double slow_request_slo_s = 0;
  /// Watchdog scan period.
  double watchdog_period_s = 0.05;
  /// Burn-rate SLO alerting over the telemetry history: objectives,
  /// fast/slow windows, thresholds, hysteresis (obs::SloOptions). The
  /// engine runs on the sampler tick and needs the history ring, so it is
  /// active only when serve.telemetry_cadence_s > 0 and at least one
  /// objective is set (the availability objective defaults on).
  obs::SloOptions slo;
};

/// Serving knobs. net::Server consumes the network ones (port through
/// tracez_capacity); the service itself reads telemetry_cadence_s and
/// telemetry_retention_s, which size the telemetry history. Grouped here so
/// one validated ServiceOptions configures the whole serving stack.
struct ServeOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (tests/benches read
  /// it back via net::Server::port()).
  uint16_t port = 0;
  /// Bind address (default loopback; "0.0.0.0" to serve externally).
  std::string bind = "127.0.0.1";
  /// listen(2) backlog.
  int backlog = 128;
  /// Hard per-frame payload limit; a length prefix beyond this is answered
  /// with FrameTooLarge and the connection is closed.
  size_t max_frame_bytes = 16u << 20;
  /// Concurrent connections beyond which accept() immediately closes.
  size_t max_connections = 1024;
  /// Entries in the serialized-response LRU keyed by (scenario, query
  /// bytes, config, top-k, db epoch). 0 disables the result cache.
  size_t result_cache_capacity = 512;
  /// Coalesce identical in-flight requests onto one service execution
  /// (singleflight); every waiter gets a bit-identical response.
  bool singleflight = true;
  /// Answer "GET /metrics" (plus /healthz) on the same port with the
  /// Prometheus exposition — no separate scrape sidecar needed.
  bool http_metrics = true;
  /// Graceful-drain budget on stop/SIGTERM: in-flight and queued requests
  /// get this long to finish and flush before connections are dropped.
  double drain_timeout_s = 10.0;
  /// Telemetry history cadence: every this many seconds the sampler tick
  /// probes the core frequency and folds a MetricsSnapshot diff into the
  /// obs::TimeSeriesStore (the /varz feed), then re-evaluates the SLO
  /// engine. 0 disables the sampler thread, history, /varz, and SLO
  /// alerting.
  double telemetry_cadence_s = 1.0;
  /// Seconds of history retained; the ring holds retention / cadence
  /// points (~1 KiB each).
  double telemetry_retention_s = 600.0;
  /// Sampled traced requests retained for /tracez.
  size_t tracez_capacity = 32;
};

struct ServiceOptions {
  /// Threads in the owned pool used for intra-request fan-out (0 =
  /// hardware concurrency). Determinism: results match direct driver calls
  /// made with a pool of the same size.
  unsigned pool_threads = 0;
  /// Service-default alignment config (per-request override via
  /// RequestOptions::config).
  core::AlignConfig config;
  /// Service-default hits per query for search/batch.
  size_t default_top_k = 10;

  QueueOptions queue;
  SearchOptions search;
  ObsOptions obs;
  ServeOptions serve;

  /// Test hook: runs on the thread executing each request (an executor, or
  /// the submitter for an inline run) right before it executes, its
  /// in-flight slot already occupied. Lets tests stall an engine
  /// deterministically to exercise the watchdog.
  std::function<void()> before_execute_hook;

  /// One validation seam for the whole stack: the alignment config plus
  /// structural sanity of every group (so a server refuses to start on a
  /// config the first request would only have failed at runtime).
  core::ErrorOr<void> try_validate() const {
    if (auto st = config.try_validate(); !st) return st.error();
    using Code = core::ConfigError::Code;
    if (queue.executors == 0)
      return core::ConfigError{Code::Unsupported,
                               "ServiceOptions: queue.executors must be >= 1"};
    if (queue.capacity == 0)
      return core::ConfigError{Code::Unsupported,
                               "ServiceOptions: queue.capacity must be >= 1"};
    if (search.shards < 0)
      return core::ConfigError{Code::Unsupported,
                               "ServiceOptions: search.shards must be >= 0 "
                               "(0 = auto, 1 = one shard)"};
    if (search.shards > perf::MetricsSnapshot::kMaxShards)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: search.shards exceeds the " +
              std::to_string(perf::MetricsSnapshot::kMaxShards) +
              " shards the metrics exporters report"};
    if (serve.max_frame_bytes < 64)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: serve.max_frame_bytes too small for any frame"};
    if (serve.bind.empty())
      return core::ConfigError{Code::Unsupported,
                               "ServiceOptions: serve.bind must not be empty"};
    if (serve.drain_timeout_s < 0)
      return core::ConfigError{
          Code::Unsupported, "ServiceOptions: serve.drain_timeout_s < 0"};
    if (serve.tracez_capacity == 0 || serve.tracez_capacity > 65536)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: serve.tracez_capacity must be in [1, 65536]"};
    if (serve.telemetry_cadence_s < 0)
      return core::ConfigError{
          Code::Unsupported, "ServiceOptions: serve.telemetry_cadence_s < 0"};
    if (serve.telemetry_cadence_s > 0 &&
        serve.telemetry_retention_s < serve.telemetry_cadence_s)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: serve.telemetry_retention_s must cover at least "
          "one cadence period"};
    if (obs.slo.latency_target_s < 0)
      return core::ConfigError{
          Code::Unsupported, "ServiceOptions: obs.slo.latency_target_s < 0"};
    if (obs.slo.latency_objective < 0 || obs.slo.latency_objective >= 1 ||
        obs.slo.availability_objective < 0 ||
        obs.slo.availability_objective >= 1)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: SLO objectives must be in [0, 1)"};
    if (obs.slo.fast_window_s <= 0 ||
        obs.slo.slow_window_s < obs.slo.fast_window_s)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: SLO windows need 0 < fast_window_s <= "
          "slow_window_s"};
    if (obs.slo.warning_burn <= 0 ||
        obs.slo.firing_burn < obs.slo.warning_burn)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: SLO burn thresholds need 0 < warning_burn <= "
          "firing_burn"};
    if (obs.slo.enter_evals < 1 || obs.slo.exit_evals < 1)
      return core::ConfigError{
          Code::Unsupported,
          "ServiceOptions: SLO hysteresis eval counts must be >= 1"};
    return {};
  }
};

class AlignService {
 public:
  /// Pairwise-only service (no database; search/batch submissions fail
  /// their future with Code::NoDatabase).
  explicit AlignService(ServiceOptions options = {});

  /// Full service over a shared database. The database is packed for the
  /// batch32 kernel once, up front, for options.config's resolved ISA
  /// (core::batch_lanes_for); it must outlive the service.
  AlignService(const seq::SequenceDatabase& db, ServiceOptions options = {});

  /// Full service over an opened swve db artifact: the sequence database
  /// and the packed batch database are both served straight out of the
  /// mapping — nothing is re-packed, so construction cost is independent
  /// of database size. `mapped` must outlive the service.
  AlignService(const core::MappedDb& mapped, ServiceOptions options = {});

  /// Fails every pending request with Code::ShuttingDown, then joins.
  ~AlignService();
  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  // Non-throwing submission: exactly one `done` invocation per call, with
  // the response or a core::ConfigError (map to the wire with to_status()).
  // Immediate rejections (queue full under Overflow::Reject, shutdown, and
  // Code::Unsupported for a batch request whose ISA cannot drive the
  // packed lanes — core::batch_lanes_fit) run `done`
  // inline on the submitting thread. Small pairwise requests may run `done`
  // on the submitting thread before submit_async returns: a pair of at most
  // kInlineMaxCells cells runs there, through the same execution path,
  // when the service is neither stopping nor paused, no request is queued
  // in any tier, no executor is running one, and an in-flight slot is free.
  // It therefore never overtakes an earlier request. That admission check
  // reads one atomic word and takes no lock, and the inline run uses the
  // request and `done` in place on the caller's stack, allocating nothing
  // of its own. A caller must not hold a lock across submit_async that
  // `done` also takes. This is the primary API — the network front door
  // hangs its completion pump on it.
  void submit_async(AlignRequest request, AlignCompletion done);
  void submit_async(SearchRequest request, SearchCompletion done);
  void submit_async(BatchRequest request, BatchCompletion done);

  /// Largest pairwise request (|query| × |reference| cells, about 75 µs of
  /// kernel time) that may run on its submitting thread. It bounds how long
  /// a caller, net::Server's loop thread among them, is held, and the
  /// workspace an inline caller thread keeps.
  static constexpr uint64_t kInlineMaxCells = uint64_t{1} << 16;

  /// Point-in-time metrics (request counts, latency histograms, GCUPS,
  /// per-target counters, pool utilization).
  perf::MetricsSnapshot metrics() const;

  /// metrics() rendered in the given exposition format (human text,
  /// Prometheus 0.0.4, or JSON).
  std::string dump_metrics(obs::MetricsFormat format) const;

  /// Delta-encoded telemetry history (the /varz feed, including the
  /// sampler's frequency probe), or null when serve.telemetry_cadence_s == 0.
  const obs::TimeSeriesStore* timeseries() const noexcept {
    return timeseries_.get();
  }
  /// The burn-rate SLO engine, or null when telemetry is off or no
  /// objective is configured.
  const obs::SloEngine* slo() const noexcept { return slo_.get(); }
  /// Last SLO evaluation (default-constructed Ok status without an engine).
  obs::SloStatus slo_status() const {
    return slo_ ? slo_->status() : obs::SloStatus{};
  }

  /// Pending (queued, not yet executing) requests.
  size_t queue_depth() const;

  /// Pause/resume the executors (in-flight requests finish; queued ones
  /// wait). Used by tests and for drain-style maintenance.
  void pause();
  void resume();

  unsigned pool_threads() const noexcept { return pool_.size(); }
  const ServiceOptions& options() const noexcept { return opt_; }
  bool has_database() const noexcept { return db_ != nullptr; }
  /// The shared database (null for a pairwise-only service); the network
  /// layer fingerprints it into cache keys (net::database_epoch).
  const seq::SequenceDatabase* database() const noexcept { return db_; }
  /// Lanes of the packed batch database (0 without a database).
  int batch_lanes() const noexcept { return packed_ ? packed_->lanes() : 0; }
  /// The packed batch database (null without one); exposes packing
  /// efficiency. Owned or a view into the mapped artifact.
  const core::Batch32Db* packed_db() const noexcept { return packed_; }

  /// Where the database bytes live: Built (packed in-process) or Mmap.
  core::DbSource db_source() const noexcept { return db_source_; }
  /// The artifact's content fingerprint; 0 when the service was built from
  /// an in-memory database (the network layer then computes it itself).
  uint64_t db_epoch() const noexcept { return db_epoch_; }
  /// Database startup time: artifact open or in-process pack, to ready.
  double db_load_seconds() const noexcept { return db_load_seconds_; }
  /// Mapped artifact size in bytes (0 for a built database).
  size_t db_map_bytes() const noexcept {
    return mapped_ ? mapped_->mapped_bytes() : 0;
  }
  /// The backing artifact, when started from one.
  const core::MappedDb* mapped_db() const noexcept { return mapped_; }
  /// The batch search engine, or null without a database. Per-shard stats
  /// for /statusz and the exporters come from here.
  const align::ShardedSearch* sharded() const noexcept {
    return sharded_.get();
  }

  /// The service's metrics registry — wiring point for the flight recorder
  /// and anything else that wants raw counters rather than snapshots.
  perf::MetricsRegistry* registry() noexcept { return &metrics_; }
  /// In-flight request table (always present): one fixed slot per executor
  /// plus hardware_concurrency() slots that inline runs claim.
  const obs::InFlightTable* inflight() const noexcept {
    return inflight_.get();
  }
  /// The SLO watchdog, or null when slow_request_slo_s == 0.
  const obs::Watchdog* watchdog() const noexcept { return watchdog_.get(); }
  /// SLO breaches detected so far (0 without a watchdog).
  uint64_t slow_requests() const noexcept {
    return watchdog_ ? watchdog_->detected() : 0;
  }

 private:
  // Delegation target for the public constructors: everything except the
  // sampler/telemetry threads, which each public constructor starts via
  // start_telemetry() only once its database fields are fully initialized
  // (the sampler thread reads them through metrics()).
  struct InitTag {};
  AlignService(InitTag, ServiceOptions options);
  void start_telemetry();
  /// Build the batch search engine (db ctors, after packed_ is set); throws
  /// std::invalid_argument on a typed config error (shards > batches).
  void init_sharding();

  /// A queued request. Only queued requests build one: an inline pairwise
  /// run needs no Task.
  struct Task {
    /// Runs the request (aborted=true: fail the completion without running).
    std::function<void(bool aborted)> run;
    uint64_t id = 0;                               ///< request trace id
    obs::Scenario scenario = obs::Scenario::Pairwise;
    uint64_t deadline_ns = 0;  ///< absolute, steady_now_ns() scale; 0=none
    QosTier tier = QosTier::Standard;
  };

  /// Resolve per-request options against service defaults; returns the
  /// effective validated config or a ConfigError. `residue_codes` is the
  /// largest alphabet among the residues the request scores (its sequences
  /// and, for search and batch, the database): a Matrix-scheme config whose
  /// matrix has fewer rows (a DNA matrix against protein) is
  /// Code::Unsupported.
  core::ErrorOr<core::AlignConfig> effective_config(
      const RequestOptions& options, int residue_codes) const;

  /// Code::Unsupported when a pairwise request with a valid config asks
  /// for a traceback over more than its max_traceback_cells cells (the
  /// kernels refuse it); nullopt otherwise, config errors included (the
  /// request body reports those).
  std::optional<core::ConfigError> traceback_cap_error(
      const AlignRequest& request) const;

  /// Enqueue under the capacity policy (into the task's QoS tier). On
  /// rejection, fulfils `reject` with the QueueFull/ShuttingDown error and
  /// returns false.
  bool enqueue(Task task,
               const std::function<void(core::ConfigError)>& reject);

  /// Pending tasks summed across tiers. Caller holds mu_.
  size_t queued_locked() const;
  /// Pop the highest-priority pending task. Caller holds mu_ and has
  /// checked queued_locked() > 0.
  Task pop_locked();

  void executor_loop(unsigned index);

  /// Store the admission word from stop_, paused_, busy_ and the queued
  /// count. Caller holds mu_; every change to those four publishes.
  void publish_admission_locked();

  /// Caller-runs admission, lock-free: true when the service is neither
  /// stopping nor paused, nothing is queued in any tier and no executor is
  /// busy, as of the last publish_admission_locked().
  bool admits_inline() const noexcept {
    return admission_.value.load(std::memory_order_acquire) == 0;
  }

  /// What every request carries from submit to execution: its id and, on
  /// the obs::steady_now_ns() scale, when it was submitted and its absolute
  /// deadline (0 = none).
  struct Stamp {
    uint64_t trace_id = 0;
    uint64_t submit_ns = 0;
    uint64_t deadline_ns = 0;
  };
  Stamp stamp(const RequestOptions& options) noexcept;

  /// The start of every request body at `now_ns`: ends the queue_wait
  /// span, records the wait and checks the deadline. Returns the wait in
  /// seconds, or the DeadlineExceeded error to fail the request with.
  core::ErrorOr<double> begin_run(const Stamp& st, uint64_t now_ns);

  /// The pairwise request body. An inline run calls it on the submitting
  /// thread's stack; a queued one from its Task.
  void run_pairwise(const AlignRequest& rq, const AlignCompletion& done,
                    const Stamp& st);

  /// What a database request body returns on success.
  struct DbRun {
    std::vector<align::SearchResult> results;  ///< one per query
    RequestTrace trace;
  };
  /// The body of search and batch requests (`scenario`): `queries` against
  /// the attached database. A batch scans them all in one
  /// ShardedSearch::scan; a search runs align::search_database, which picks
  /// its engine from the config and the packed lanes. Returns the results
  /// and the trace, or the error to fail the request with.
  core::ErrorOr<DbRun> run_database(Scenario scenario,
                                    std::span<const seq::Sequence> queries,
                                    const RequestOptions& options,
                                    const Stamp& st);

  /// The TraceContext requests thread through the engines: sink + trace id,
  /// plus the PMU session and registry when attribution is on.
  obs::TraceContext trace_context(uint64_t trace_id) noexcept;

  /// Allocate a request id: from the sink when tracing (so spans correlate)
  /// or from the service's own counter (so the watchdog and in-flight table
  /// still get unique ids).
  uint64_t next_request_id() noexcept;

  /// Fill the common trace fields once execution finished; `isa` and
  /// `width` are what ran (the delivery follows from them).
  RequestTrace make_trace(Scenario scenario, const core::AlignConfig& cfg,
                          simd::Isa isa, core::Width width,
                          double queue_wait_s, double kernel_s,
                          uint64_t cells, uint64_t retries) const;

  /// Run `work`, wrapping it in perf::topdown_analyze for one in
  /// topdown_every_n calls (est_cells feeds the analytical-model fallback).
  /// The work runs exactly once either way.
  template <typename Work>
  std::optional<perf::TopDownResult> maybe_topdown(Work&& work,
                                                   uint64_t est_cells);

  /// Effective frequency for the top-down analytical model, measured once
  /// (~10 ms) on first use and cached.
  double model_ghz();

  ServiceOptions opt_;
  const seq::SequenceDatabase* db_ = nullptr;
  int db_alphabet_codes_ = 0;  // largest alphabet among db_'s sequences
  std::unique_ptr<core::Batch32Db> bdb_;       // owned packing (Built path)
  const core::Batch32Db* packed_ = nullptr;    // always the one to search
  const core::MappedDb* mapped_ = nullptr;     // artifact path only
  core::DbSource db_source_ = core::DbSource::Built;
  uint64_t db_epoch_ = 0;
  double db_load_seconds_ = 0;
  std::unique_ptr<align::ShardedSearch> sharded_;  // with a database

  parallel::ThreadPool pool_;
  std::mutex pool_mu_;  ///< one fan-out request on the pool at a time

  /// An atomic counter alone on its cache line.
  struct alignas(64) LineAtomic {
    std::atomic<uint64_t> value{0};
  };

  alignas(64) mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< executors: queue non-empty/stop
  std::condition_variable space_cv_;  ///< blocking submitters: space freed
  std::array<std::deque<Task>, kQosTiers> queues_;  ///< one FIFO per tier
  bool stop_ = false;
  bool paused_ = false;
  unsigned busy_ = 0;  ///< executors running a request
  /// stop_ | paused_ << 1 | busy_ << 2 | queued << 32 (each clamped to its
  /// bits): zero exactly when a small pair may run inline. Stored only
  /// under mu_, read without it.
  LineAtomic admission_;
  LineAtomic exec_sequence_;  ///< stamped on every request when it runs

  std::vector<std::thread> executors_;
  perf::MetricsRegistry metrics_;

  // Telemetry history + SLO engine, fed from the sampler tick. Declared
  // before sampler_ so even default member destruction tears the sampler
  // (the only writer) down first; the destructor also resets it explicitly.
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::Sampler> sampler_;  ///< history tick (optional)
  std::atomic<uint64_t> topdown_seq_{0};   ///< one-in-N request sampling
  std::atomic<double> model_ghz_{0};       ///< cached frequency estimate

  std::unique_ptr<obs::InFlightTable> inflight_;  ///< slot per runner
  std::unique_ptr<obs::Watchdog> watchdog_;       ///< SLO scanner (optional)
  LineAtomic request_ids_;  ///< id source when not tracing
};

namespace detail {
template <typename Request> struct ResponseOf;
template <> struct ResponseOf<AlignRequest> { using type = AlignResponse; };
template <> struct ResponseOf<SearchRequest> { using type = SearchResponse; };
template <> struct ResponseOf<BatchRequest> { using type = BatchResponse; };
}  // namespace detail

/// Blocking convenience over submit_async for callers that wait on each
/// request: the future yields the response or the typed error, and get()
/// never throws a service failure.
template <typename Request,
          typename Result =
              core::ErrorOr<typename detail::ResponseOf<Request>::type>>
std::future<Result> submit_future(AlignService& service, Request request) {
  auto prom = std::make_shared<std::promise<Result>>();
  std::future<Result> fut = prom->get_future();
  service.submit_async(std::move(request),
                       [prom](Result out) { prom->set_value(std::move(out)); });
  return fut;
}

}  // namespace swve::service
