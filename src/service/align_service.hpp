// AlignService — the async, metrics-instrumented front door over all three
// usage scenarios.
//
// One service owns:
//   - a parallel::ThreadPool for intra-request fan-out (search/batch),
//   - a bounded submission queue with backpressure (reject or block),
//   - executor threads that drain the queue FIFO,
//   - a perf::MetricsRegistry (request counters, queue-wait and kernel-time
//     histograms, aggregate GCUPS).
//
// Every scenario goes through one request/future API:
//   submit(AlignRequest)   -> std::future<AlignResponse>    (pairwise)
//   submit_search(Search)  -> std::future<SearchResponse>   (scenario 1)
//   submit_batch(Batch)    -> std::future<BatchResponse>    (scenario 2)
//
// Requests route to the same stateless engines the synchronous facades use
// (engine::search_diagonal / search_batch / batch_run / core::diag_align),
// so results are bit-identical to direct DatabaseSearch / BatchServer /
// Aligner calls at the same pool size. Failures — invalid config, queue
// full, deadline expiry, shutdown — fail the future with a ServiceError
// instead of throwing on a worker thread.
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
#include <thread>
#include <vector>

#include "align/batch_server.hpp"
#include "align/db_search.hpp"
#include "align/query_cache.hpp"
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
  /// completion; more lets small pairwise requests overlap.
  unsigned executors = 1;
  /// Bounded submission queue capacity (pending, not yet executing),
  /// summed across QoS tiers.
  size_t capacity = 256;
  /// What submit() does when the queue is full.
  enum class Overflow {
    Reject,  ///< fail the request immediately with QueueFull
    Block,   ///< block the submitter until space frees (backpressure)
  };
  Overflow overflow = Overflow::Reject;
  /// Start with executors paused (tests use this to fill the queue
  /// deterministically); call resume() to begin draining.
  bool start_paused = false;
};

/// Caching layers under the service (batch packing, query-state LRU).
struct CacheOptions {
  /// How the shared database is packed for the batch32 kernel. Every policy
  /// returns identical hits/scores; LengthSorted (default) minimizes the
  /// padding the 8-bit kernel burns on mixed-length batches.
  core::PackingPolicy batch_packing = core::PackingPolicy::LengthSorted;
  /// Distinct (query, config, ISA) entries the query-state cache holds;
  /// back-to-back requests for a cached query skip rebuilding its kernel
  /// feed arrays, and engine workspaces come from a reusable pool.
  size_t query_cache_capacity = 32;
  /// Disable the query-state cache entirely (every request builds its own
  /// state, the pre-cache behavior). For A/B measurement and debugging.
  bool query_cache_bypass = false;
};

/// Scenario-1 sharded execution (align::ShardedSearch): how the packed
/// database is split across NUMA nodes and how shard memory is placed.
struct SearchOptions {
  /// Database shards for batch-mode search. 1 (default) = unsharded flat
  /// pool; 0 = auto (one shard per NUMA node — unsharded on single-node
  /// hosts; at most perf::MetricsSnapshot::kMaxShards); N >= 2 forces N
  /// shards, N > kMaxShards is rejected by try_validate. Requesting more
  /// shards than the packed database has batches fails construction with a
  /// typed config error.
  /// Results are bit-identical for every value.
  int shards = 1;
  /// Thread pinning + memory placement across shards (no effect when
  /// shards resolve to 1; forced Off by SWVE_NUMA=off):
  ///   Off        — shard, but let the scheduler and first-touch decide;
  ///   Interleave — pin shard threads, page-interleave shared columns;
  ///   Bind       — pin shard threads, mbind each shard's columns local.
  parallel::NumaPolicy numa = parallel::NumaPolicy::Off;
};

/// Observability attachments (tracing, sampler, PMU, watchdog, top-down).
struct ObsOptions {
  /// Optional trace sink: when set, every request records queue-wait,
  /// dispatch, and kernel-chunk spans into it (Chrome trace JSON via
  /// obs::TraceSink::chrome_trace_json). Not owned; must outlive the
  /// service. Null = tracing compiled down to null checks.
  obs::TraceSink* trace_sink = nullptr;
  /// Period of the background live-profiling sampler (effective frequency +
  /// metrics time series); 0 disables it.
  double sampler_period_s = 0;
  /// Spin-probe duration per frequency sample (see obs::SamplerOptions).
  double sampler_freq_probe_ms = 5.0;
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

/// Network front-door knobs, consumed by net::Server (the in-process
/// service ignores this group). Grouped here so one validated ServiceOptions
/// configures the whole serving stack.
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
  /// folds a MetricsSnapshot diff into the obs::TimeSeriesStore (the /varz
  /// feed) and re-evaluates the SLO engine. Rides the existing sampler
  /// thread; when obs.sampler_period_s is also set, that period wins and
  /// this acts as an enable switch. 0 disables history, /varz, and SLO
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

  // The option groups. New code addresses these directly
  // (opt.queue.capacity = ...); the flat references below keep the
  // pre-group spellings compiling unchanged.
  QueueOptions queue;
  CacheOptions cache;
  SearchOptions search;
  ObsOptions obs;
  ServeOptions serve;

  /// Test hook: runs on the executor thread right before each request
  /// executes (its in-flight slot already occupied). Lets tests stall an
  /// engine deterministically to exercise the watchdog.
  std::function<void()> before_execute_hook;

  using Overflow = QueueOptions::Overflow;  // pre-group spelling

  // Deprecated flat aliases (pre-group field names). Each is a reference
  // into its group, so reads and writes through either spelling see the
  // same storage. Prefer the grouped names in new code.
  unsigned& executors = queue.executors;
  size_t& queue_capacity = queue.capacity;
  Overflow& overflow = queue.overflow;
  bool& start_paused = queue.start_paused;
  core::PackingPolicy& batch_packing = cache.batch_packing;
  size_t& query_cache_capacity = cache.query_cache_capacity;
  bool& query_cache_bypass = cache.query_cache_bypass;
  // (swve::obs:: spelled out — the `obs` group member shadows the namespace
  // inside this class scope.)
  swve::obs::TraceSink*& trace_sink = obs.trace_sink;
  double& sampler_period_s = obs.sampler_period_s;
  double& sampler_freq_probe_ms = obs.sampler_freq_probe_ms;
  uint32_t& topdown_every_n = obs.topdown_every_n;
  bool& pmu_attribution = obs.pmu_attribution;
  double& slow_request_slo_s = obs.slow_request_slo_s;
  double& watchdog_period_s = obs.watchdog_period_s;

  // The alias references must always bind to this object's own groups, so
  // copies/moves copy the groups and let the references re-default (a
  // compiler-generated copy would bind them into the source object).
  ServiceOptions() = default;
  ServiceOptions(const ServiceOptions& o) { assign(o); }
  ServiceOptions(ServiceOptions&& o) noexcept { assign(o); }
  ServiceOptions& operator=(const ServiceOptions& o) {
    if (this != &o) assign(o);
    return *this;
  }
  ServiceOptions& operator=(ServiceOptions&& o) noexcept {
    if (this != &o) assign(o);
    return *this;
  }

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
                               "(0 = auto, 1 = unsharded)"};
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

 private:
  void assign(const ServiceOptions& o) {
    pool_threads = o.pool_threads;
    config = o.config;
    default_top_k = o.default_top_k;
    queue = o.queue;
    cache = o.cache;
    search = o.search;
    obs = o.obs;
    serve = o.serve;
    before_execute_hook = o.before_execute_hook;
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
  /// of database size. `mapped` must outlive the service. The cache
  /// packing-policy option is ignored (the artifact fixes the policy).
  AlignService(const core::MappedDb& mapped, ServiceOptions options = {});

  /// Fails every pending request with Code::ShuttingDown, then joins.
  ~AlignService();
  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  // Non-throwing submission: exactly one `done` invocation per call, with
  // the response or a core::ConfigError (map to the wire with to_status()).
  // Immediate rejections (queue full under Overflow::Reject, shutdown, and
  // Code::Unsupported for a Batch-mode search or batch request whose ISA
  // cannot drive the packed lanes — core::batch_lanes_fit) run `done`
  // inline on the submitting thread. This is the primary API — the
  // network front door hangs its completion pump on it.
  void submit_async(AlignRequest request, AlignCompletion done);
  void submit_async(SearchRequest request, SearchCompletion done);
  void submit_async(BatchRequest request, BatchCompletion done);

  // Deprecated future-based shims over submit_async: failures surface as a
  // ServiceError thrown from future::get() instead of an ErrorOr. Kept for
  // existing embedders; no new functionality lands here.
  std::future<AlignResponse> submit(AlignRequest request);
  std::future<SearchResponse> submit_search(SearchRequest request);
  std::future<BatchResponse> submit_batch(BatchRequest request);

  /// Point-in-time metrics (request counts, latency histograms, GCUPS,
  /// per-target counters, pool utilization).
  perf::MetricsSnapshot metrics() const;

  /// metrics() rendered in the given exposition format (human text,
  /// Prometheus 0.0.4, or JSON).
  std::string dump_metrics(obs::MetricsFormat format) const;

  /// Time series collected by the background sampler, oldest first (empty
  /// when sampler_period_s == 0).
  std::vector<obs::Sample> samples() const;
  /// The live sampler, or null when disabled.
  const obs::Sampler* sampler() const noexcept { return sampler_.get(); }

  /// Delta-encoded telemetry history (the /varz feed), or null when
  /// serve.telemetry_cadence_s == 0.
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
  /// The packed batch database (null without one); exposes packing policy
  /// and efficiency. Owned or a view into the mapped artifact.
  const core::Batch32Db* packed_db() const noexcept { return packed_; }

  /// Where the database bytes live: Built (packed in-process), Mmap, Shm.
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
  /// The query-state cache (null when bypassed).
  const align::QueryStateCache* query_cache() const noexcept {
    return query_cache_.get();
  }
  /// The sharded search engine, or null when search.shards resolved to 1
  /// (the unsharded flat-pool path). Per-shard stats for /statusz and the
  /// exporters come from here.
  const align::ShardedSearch* sharded() const noexcept {
    return sharded_.get();
  }

  /// The service's metrics registry — wiring point for the flight recorder
  /// and anything else that wants raw counters rather than snapshots.
  perf::MetricsRegistry* registry() noexcept { return &metrics_; }
  /// Per-executor in-flight request table (always present).
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
  /// Build the sharded engine when search.shards != 1 (db ctors, after
  /// packed_ is set). Throws std::invalid_argument on a typed config error
  /// (shards > batches), matching constructor-time validation behavior.
  void init_sharding();

  struct Task {
    /// Runs the request (aborted=true: fail the completion without running).
    std::function<void(bool aborted)> run;
    uint64_t id = 0;                               ///< request trace id
    obs::Scenario scenario = obs::Scenario::Pairwise;
    uint64_t deadline_ns = 0;  ///< absolute, steady_now_ns() scale; 0=none
    QosTier tier = QosTier::Standard;
  };

  /// Resolve per-request options against service defaults; returns the
  /// effective validated config or a ConfigError.
  core::ErrorOr<core::AlignConfig> effective_config(
      const RequestOptions& options) const;

  /// Code::Unsupported when the request's ISA cannot drive the packed
  /// batch lanes (core::batch_lanes_fit); nullopt when it can or when there
  /// is no packed database.
  std::optional<core::ConfigError> batch_lanes_error(
      const RequestOptions& options) const;

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

  /// The TraceContext requests thread through the engines: sink + trace id,
  /// plus the PMU session and registry when attribution is on.
  obs::TraceContext trace_context(uint64_t trace_id) noexcept;

  /// Allocate a request id: from the sink when tracing (so spans correlate)
  /// or from the service's own counter (so the watchdog and in-flight table
  /// still get unique ids).
  uint64_t next_request_id() noexcept;

  /// Fill the common trace fields once execution finished.
  RequestTrace make_trace(Scenario scenario, const core::AlignConfig& cfg,
                          double queue_wait_s, double kernel_s,
                          uint64_t cells, uint64_t retries) const;

  /// Run `work`, wrapping it in perf::topdown_analyze for one in
  /// topdown_every_n calls (est_cells feeds the analytical-model fallback).
  /// The work runs exactly once either way.
  std::optional<perf::TopDownResult> maybe_topdown(
      const std::function<void()>& work, uint64_t est_cells);

  /// Effective frequency for the top-down analytical model, measured once
  /// (~10 ms) on first use and cached.
  double model_ghz();

  ServiceOptions opt_;
  const seq::SequenceDatabase* db_ = nullptr;
  std::unique_ptr<core::Batch32Db> bdb_;       // owned packing (Built path)
  const core::Batch32Db* packed_ = nullptr;    // always the one to search
  const core::MappedDb* mapped_ = nullptr;     // artifact path only
  core::DbSource db_source_ = core::DbSource::Built;
  uint64_t db_epoch_ = 0;
  double db_load_seconds_ = 0;
  std::unique_ptr<align::QueryStateCache> query_cache_;
  std::unique_ptr<align::ShardedSearch> sharded_;  // search.shards != 1

  parallel::ThreadPool pool_;
  std::mutex pool_mu_;  ///< one fan-out request on the pool at a time

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< executors: queue non-empty/stop
  std::condition_variable space_cv_;  ///< blocking submitters: space freed
  std::array<std::deque<Task>, kQosTiers> queues_;  ///< one FIFO per tier
  bool stop_ = false;
  bool paused_ = false;

  std::vector<std::thread> executors_;
  perf::MetricsRegistry metrics_;
  std::atomic<uint64_t> exec_sequence_{0};

  // Telemetry history + SLO engine, fed from the sampler tick. Declared
  // before sampler_ so even default member destruction tears the sampler
  // (the only writer) down first; the destructor also resets it explicitly.
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::Sampler> sampler_;  ///< live profiler (optional)
  std::atomic<uint64_t> topdown_seq_{0};   ///< one-in-N request sampling
  std::atomic<double> model_ghz_{0};       ///< cached frequency estimate

  std::unique_ptr<obs::InFlightTable> inflight_;  ///< slot per executor
  std::unique_ptr<obs::Watchdog> watchdog_;       ///< SLO scanner (optional)
  std::atomic<uint64_t> request_ids_{0};  ///< id source when not tracing
};

}  // namespace swve::service
