// The network front door: a single-threaded epoll TCP server speaking
// protocol v1 (net/protocol.hpp) over an AlignService.
//
// Architecture — one event-loop thread, zero locks on the hot path except
// the completion queue:
//
//   client ──frame──▶ epoll loop ──decode──▶ result cache ──hit──▶ reply
//                        │                        │miss
//                        │                   singleflight ──joined──▶ wait
//                        │                        │started
//                        │              AlignService::submit_async
//                        │                        │ (executor thread)
//                        ▼                        ▼
//                   wake eventfd ◀── completion queue ◀── serialize
//
// Executor threads never touch sockets: a completion serializes the
// response, pushes it onto a mutex-guarded queue, and writes the wake
// eventfd; the loop drains the queue, inserts Ok responses into the LRU,
// and fans the bytes out to every singleflight waiter. Requests with the
// JSON debug flag bypass the cache and singleflight (their payloads are
// not byte-stable) and are answered directly.
//
// The same port also answers plain HTTP GETs ("/metrics", "/healthz") —
// the first bytes of a connection pick the protocol — so a Prometheus
// scrape needs no sidecar.
//
// Graceful drain: shutdown() (or a SIGTERM routed through
// obs::FlightRecorderOptions::notify_fd = term_fd()) stops accepting,
// fails new requests with ShuttingDown, lets in-flight executions finish
// and flush for up to ServeOptions::drain_timeout_s, then closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "net/coalesce.hpp"
#include "net/protocol.hpp"
#include "service/align_service.hpp"

namespace swve::net {

class Server {
 public:
  /// Bind + listen per `service.options().serve` and start the event-loop
  /// thread. The service (and its database) must outlive the server.
  /// Fails (never throws) on socket/bind/listen errors.
  static core::ErrorOr<std::unique_ptr<Server>> start(
      service::AlignService& service);

  /// Drains and joins (bounded by drain_timeout_s).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves ephemeral port 0 to the real one).
  uint16_t port() const noexcept { return port_; }
  /// Database identity stamped into every cache key.
  uint64_t db_epoch() const noexcept { return db_epoch_; }

  /// Begin a graceful drain (idempotent, non-blocking): stop accepting,
  /// reject new work with ShuttingDown, finish in-flight requests.
  void shutdown();
  /// Block until the event loop has exited.
  void join();
  bool running() const noexcept {
    return loop_done_.load(std::memory_order_acquire) == false;
  }

  /// Eventfd that triggers the same drain as shutdown() when written —
  /// hand this to obs::FlightRecorderOptions::notify_fd (with
  /// exit_on_term = false there) so SIGTERM drains instead of _exit()ing.
  int term_fd() const noexcept { return term_fd_; }

  /// The service's metrics — what /metrics serves. The server's own gauges
  /// (active connections, result-cache entries) live in the service's
  /// registry, so the telemetry sampler's snapshots carry them too.
  perf::MetricsSnapshot metrics() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string in;      ///< unparsed received bytes
    std::string out;     ///< unsent response bytes
    size_t out_off = 0;  ///< sent prefix of `out`
    bool http = false;   ///< first bytes chose HTTP, not protocol v1
    bool close_after_write = false;
    // Per-connection introspection (served by /connz; loop-thread only).
    std::string peer;       ///< "a.b.c.d:port" at accept time
    uint64_t frames_rx = 0;
    uint64_t frames_tx = 0;
    uint64_t bytes_rx = 0;
    uint64_t bytes_tx = 0;
    uint8_t last_tier = 1;  ///< tier byte of the most recent request frame
    size_t inflight = 0;    ///< requests submitted/joined, not yet answered
    double opened_s = 0;    ///< steady-clock seconds at accept
  };

  /// A serialized response ready for delivery, produced on an executor
  /// thread (or inline for rejections) and consumed by the event loop.
  struct Completion {
    bool flight = false;    ///< deliver via singleflight waiters
    bool cacheable = false; ///< binary payload; publish Ok into the LRU
    uint64_t key = 0;       ///< cache key (0 for JSON-mode requests)
    std::string identity;   ///< canonical request bytes (empty for JSON mode)
    uint64_t conn_id = 0;   ///< direct delivery: the one addressee
    uint64_t request_id = 0;
    uint8_t req_flags = 0;  ///< request flags to echo (json bit)
    uint8_t req_tier = 1;   ///< request tier byte to echo
    // Wire tracing: the request's trace context plus the server-side
    // timing breakdown, filled in the completion callback and appended as
    // a ServerTiming trailer at send time (never stored in the cache).
    bool traced = false;
    bool sampled = false;
    uint64_t trace_id = 0;
    uint32_t queue_us = 0;
    uint32_t exec_us = 0;
    uint32_t serialize_us = 0;
    CachedResponse response;
  };

  /// The completion queue, shared (via shared_ptr) between the event loop
  /// and the executor-side completion callbacks. Callbacks hold the sink,
  /// NOT the Server: a completion that outlives the server — a request
  /// still executing when the drain deadline passes and ~Server runs, or
  /// ~AlignService flushing leftover tasks — lands on a closed sink
  /// (wake_fd < 0) and is dropped, instead of touching freed memory.
  struct CompletionSink {
    std::mutex mu;
    std::vector<Completion> items;  ///< guarded by mu
    int wake_fd = -1;               ///< guarded by mu; -1 once closed
  };

  Server(service::AlignService& service, uint64_t db_epoch);

  void loop();
  void accept_connections();
  void handle_readable(uint64_t conn_id);
  void process_buffer(uint64_t conn_id);
  void process_frame(Connection& c, const FrameHeader& h,
                     std::string_view payload);
  void process_http(Connection& c);
  void drain_completions();
  void deliver(const Completion& done);
  void publish(uint64_t key, const Completion& done);
  /// `trailer` (a ServerTiming block for traced waiters) is sent after the
  /// payload and included in payload_len, but never cached with it.
  void send_frame(Connection& c, const FrameHeader& h,
                  std::string_view payload, std::string_view trailer = {});
  void send_error(Connection& c, const FrameHeader& req,
                  service::ServiceStatus status, std::string_view message);
  void flush(Connection& c);
  void close_connection(uint64_t conn_id);
  /// Push onto the sink and wake its event loop; drops the completion if
  /// the sink is already closed. Static on purpose — runs on executor
  /// threads, possibly after the Server is gone.
  static void push_completion(const std::shared_ptr<CompletionSink>& sink,
                              Completion done);
  Connection* find_connection(uint64_t conn_id);

  /// Decode result -> cache lookup -> singleflight join -> submit; one
  /// shape for all three scenarios (instantiated in the .cpp only).
  /// `trace` is the request's stripped WireTraceContext (trace_id 0 when
  /// the frame was untraced); `t_rx_ns` is the sink-clock frame receipt
  /// time for the server.frame span.
  template <typename Request>
  void handle_request(Connection& c, const FrameHeader& h,
                      std::optional<Request> decoded,
                      const WireTraceContext& trace, uint64_t t_rx_ns);
  /// `flight` = deliver through the singleflight waiter list; `identity` =
  /// canonical request bytes for cache publication (empty for JSON mode).
  template <typename Request>
  void submit_request(Connection& c, const FrameHeader& h, Request rq,
                      bool flight, std::string identity,
                      const WireTraceContext& trace, uint64_t t_rx_ns);

  // Introspection endpoint bodies (loop thread; see docs/serving.md).
  /// The metrics document (Prometheus or JSON) with the SLO alert state,
  /// as /metrics, the MetricsRequest frame and /statusz serve it.
  std::string render_metrics_body(bool json) const;
  std::string render_statusz() const;
  std::string render_tracez() const;
  std::string render_connz() const;

  /// One finished traced+sampled request, kept in a bounded ring for
  /// /tracez; its span tree is pulled from the trace sink at scrape time.
  struct TracezEntry {
    uint64_t trace_id = 0;
    MsgType type = MsgType::ErrorResponse;
    uint8_t tier = 1;
    uint8_t status = 0;
    uint32_t queue_us = 0;
    uint32_t exec_us = 0;
    uint8_t source = 0;  ///< 0 = executed, 1 = cache hit, 2 = coalesced
  };
  void record_tracez(const TracezEntry& entry);

  service::AlignService& service_;
  service::ServeOptions opts_;
  obs::TraceSink* trace_sink_ = nullptr;  ///< = service obs.trace_sink
  uint64_t db_epoch_ = 0;
  uint16_t port_ = 0;
  double started_s_ = 0;  ///< steady-clock seconds at construction

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< completion queue signal
  int term_fd_ = -1;  ///< drain signal (shutdown() / flight recorder)

  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 16;  ///< ids below are epoll sentinels

  ResultCache cache_;
  Singleflight flights_;
  size_t outstanding_ = 0;  ///< submitted executions not yet delivered

  std::deque<TracezEntry> tracez_;  ///< newest at the back; loop thread only
                                    ///< (bounded by opts_.tracez_capacity)

  std::shared_ptr<CompletionSink> sink_ = std::make_shared<CompletionSink>();

  bool draining_ = false;
  double drain_deadline_s_ = 0;  ///< steady-clock seconds; 0 = unset

  std::thread thread_;
  std::atomic<bool> loop_done_{false};
};

}  // namespace swve::net
