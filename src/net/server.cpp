#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/json.hpp"
#include "obs/exporters.hpp"
#include "obs/log.hpp"
#include "perf/timer.hpp"

namespace swve::net {
namespace {

using Code = core::ConfigError::Code;
using service::ServiceStatus;

// epoll user-data sentinels; connection ids start at 16.
constexpr uint64_t kListenId = 1;
constexpr uint64_t kWakeId = 2;
constexpr uint64_t kTermId = 3;

constexpr int kMaxEvents = 64;
constexpr size_t kReadChunk = 64 * 1024;

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::ConfigError sys_error(const char* what) {
  return core::ConfigError{
      Code::Internal,
      std::string("net: ") + what + " failed: " + std::strerror(errno)};
}

/// Drain an eventfd so level-triggered epoll stops reporting it readable.
void drain_eventfd(int fd) {
  uint64_t n = 0;
  while (::read(fd, &n, sizeof n) == static_cast<ssize_t>(sizeof n)) {
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Scenario-specific glue the request template dispatches on: the response
/// codecs and the response MsgType.
template <typename Request>
struct WireTraits;

template <>
struct WireTraits<service::AlignRequest> {
  using Response = service::AlignResponse;
  static constexpr MsgType kResponse = MsgType::AlignResponse;
  static void encode(std::string& out, const Response& r) {
    encode_align_response(out, r);
  }
  static std::string json(const Response& r) { return align_response_json(r); }
};

template <>
struct WireTraits<service::SearchRequest> {
  using Response = service::SearchResponse;
  static constexpr MsgType kResponse = MsgType::SearchResponse;
  static void encode(std::string& out, const Response& r) {
    encode_search_response(out, r);
  }
  static std::string json(const Response& r) { return search_response_json(r); }
};

template <>
struct WireTraits<service::BatchRequest> {
  using Response = service::BatchResponse;
  static constexpr MsgType kResponse = MsgType::BatchResponse;
  static void encode(std::string& out, const Response& r) {
    encode_batch_response(out, r);
  }
  static std::string json(const Response& r) { return batch_response_json(r); }
};

/// Minimal HTTP response; the server always closes after writing one.
/// `extra_headers` (e.g. "Allow: GET\r\n") is inserted verbatim.
std::string http_response(int code, const char* reason,
                          const char* content_type, std::string_view body,
                          std::string_view extra_headers = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n";
  out.append(extra_headers);
  out += "Connection: close\r\n\r\n";
  out.append(body);
  return out;
}

/// HTTP request-line method if the buffer starts with one we recognize
/// (the token + the mandatory space), else nullptr. Used for protocol
/// sniffing: any HTTP method selects the HTTP path, so a POST gets a
/// clean 405 instead of falling into binary protocol-error handling.
const char* sniff_http_method(std::string_view in) {
  static constexpr const char* kMethods[] = {
      "GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS ", "PATCH "};
  for (const char* m : kMethods) {
    const size_t n = std::strlen(m);
    if (in.size() >= n && in.compare(0, n, m) == 0) return m;
    // An incomplete prefix of a method keeps the decision pending.
    if (in.size() < n && std::memcmp(in.data(), m, in.size()) == 0)
      return nullptr;
  }
  return nullptr;
}
}  // namespace

core::ErrorOr<std::unique_ptr<Server>> Server::start(
    service::AlignService& service) {
  if (auto st = service.options().try_validate(); !st) return st.error();
  // The event loop is the submitter: with Overflow::Block a full queue
  // would park the loop thread on the queue's condition variable, stalling
  // every connection, /healthz, and the SIGTERM drain path. Serving
  // requires Reject semantics (clients see QueueFull and retry).
  if (service.options().queue.overflow ==
      service::QueueOptions::Overflow::Block)
    return core::ConfigError{
        Code::Unsupported,
        "net: serving requires queue.overflow = Reject; Overflow::Block "
        "would stall the event loop when the submission queue fills"};
  const service::ServeOptions& opts = service.options().serve;

  // Prefer the epoch the service already knows (an artifact stores its
  // fingerprint in the header — free); only a legacy FASTA/synthetic
  // startup pays the O(database) hash here.
  uint64_t epoch = service.db_epoch();
  if (epoch == 0 && service.database() != nullptr)
    epoch = database_epoch(*service.database());
  std::unique_ptr<Server> s(new Server(service, epoch));

  s->listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s->listen_fd_ < 0) return sys_error("socket");
  const int one = 1;
  ::setsockopt(s->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.bind.c_str(), &addr.sin_addr) != 1)
    return core::ConfigError{
        Code::Unsupported,
        "net: serve.bind is not an IPv4 address: " + opts.bind};
  if (::bind(s->listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return sys_error("bind");
  if (::listen(s->listen_fd_, opts.backlog) != 0) return sys_error("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(s->listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) != 0)
    return sys_error("getsockname");
  s->port_ = ntohs(bound.sin_port);

  s->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (s->epoll_fd_ < 0) return sys_error("epoll_create1");
  s->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  s->term_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (s->wake_fd_ < 0 || s->term_fd_ < 0) return sys_error("eventfd");
  s->sink_->wake_fd = s->wake_fd_;  // no completions can exist yet

  const auto add = [&s](int fd, uint64_t id) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    return ::epoll_ctl(s->epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  };
  if (add(s->listen_fd_, kListenId) != 0 || add(s->wake_fd_, kWakeId) != 0 ||
      add(s->term_fd_, kTermId) != 0)
    return sys_error("epoll_ctl");

  s->thread_ = std::thread([srv = s.get()] { srv->loop(); });
  return s;
}

Server::Server(service::AlignService& service, uint64_t db_epoch)
    : service_(service),
      opts_(service.options().serve),
      trace_sink_(service.options().obs.trace_sink),
      db_epoch_(db_epoch),
      started_s_(steady_s()),
      cache_(opts_.result_cache_capacity) {}

Server::~Server() {
  shutdown();
  join();
  {
    // Close the sink BEFORE closing wake_fd_: executions still running
    // past the drain deadline (and ~AlignService flushing leftovers later)
    // hold the sink via shared_ptr and must see it closed rather than
    // write a dead fd or touch this object.
    std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->wake_fd = -1;
    sink_->items.clear();
  }
  close_fd(epoll_fd_);
  close_fd(listen_fd_);
  close_fd(wake_fd_);
  close_fd(term_fd_);
}

void Server::shutdown() {
  if (term_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(term_fd_, &one, sizeof one);
  }
}

void Server::join() {
  if (thread_.joinable()) thread_.join();
}

perf::MetricsSnapshot Server::metrics() const {
  perf::MetricsSnapshot snap = service_.metrics();
  snap.server_active_connections =
      active_connections_.load(std::memory_order_relaxed);
  snap.result_cache_entries = cache_entries_.load(std::memory_order_relaxed);
  return snap;
}

// ------------------------------------------------------------------ the loop

void Server::loop() {
  epoll_event events[kMaxEvents];
  while (true) {
    // Drain-exit: every submitted execution delivered and every response
    // byte flushed, or the drain budget is spent.
    if (draining_) {
      bool flushed = outstanding_ == 0;
      if (flushed)
        for (const auto& [id, c] : conns_)
          if (c.out.size() > c.out_off) {
            flushed = false;
            break;
          }
      if (flushed || steady_s() >= drain_deadline_s_) break;
    }

    int timeout_ms = -1;
    if (draining_) {
      const double left = drain_deadline_s_ - steady_s();
      timeout_ms = left > 0 ? static_cast<int>(left * 1000) + 1 : 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone; nothing sane left to do
    }

    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        accept_connections();
      } else if (id == kWakeId) {
        drain_eventfd(wake_fd_);
        drain_completions();
      } else if (id == kTermId) {
        drain_eventfd(term_fd_);
        if (!draining_) {
          draining_ = true;
          drain_deadline_s_ = steady_s() + opts_.drain_timeout_s;
          obs::log_info("server.drain",
                        {{"outstanding", static_cast<uint64_t>(outstanding_)},
                         {"connections", static_cast<uint64_t>(conns_.size())},
                         {"timeout_s", opts_.drain_timeout_s}});
          // Close the listener outright (not just EPOLL_CTL_DEL): an open
          // listening socket still completes handshakes into the backlog,
          // so new clients would connect and hang instead of being refused.
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          close_fd(listen_fd_);
        }
      } else {
        Connection* c = find_connection(id);
        if (c == nullptr) continue;  // closed earlier in this batch
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_connection(id);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) handle_readable(id);
        c = find_connection(id);  // may have closed while reading
        if (c != nullptr && (events[i].events & EPOLLOUT) != 0) flush(*c);
      }
    }
  }

  // Loop exit (drain complete, drain timeout, or epoll failure): drop
  // whatever is left.
  for (auto& [id, c] : conns_) close_fd(c.fd);
  conns_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  loop_done_.store(true, std::memory_order_release);
}

void Server::accept_connections() {
  while (true) {
    sockaddr_in peer{};
    socklen_t plen = sizeof peer;
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &plen, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (conns_.size() >= opts_.max_connections || draining_) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Connection c;
    c.fd = fd;
    c.id = id;
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof ip);
    c.peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    c.opened_s = steady_s();
    obs::log_info("server.accept", {{"conn", id}, {"peer", c.peer}});
    conns_.emplace(id, std::move(c));
    active_connections_.store(conns_.size(), std::memory_order_relaxed);
    service_.registry()->on_connection_accepted();
  }
}

void Server::handle_readable(uint64_t conn_id) {
  Connection* c = find_connection(conn_id);
  if (c == nullptr) return;
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::read(c->fd, buf, sizeof buf);
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn_id);  // EOF or hard error
    return;
  }
  process_buffer(conn_id);
}

void Server::process_buffer(uint64_t conn_id) {
  // Sending a response can close the connection (hard send error), which
  // invalidates any Connection reference — so each iteration re-resolves
  // the id and copies the frame out of the buffer before acting on it.
  while (true) {
    Connection* c = find_connection(conn_id);
    if (c == nullptr) return;

    // Protocol selection on the connection's first bytes: protocol v1
    // frames start with the "SWV1" magic, an HTTP request with a method
    // token. Any recognized method — not just GET — routes to the HTTP
    // path, so a POST gets a clean 405 rather than a binary BadVersion.
    // A short buffer that is still a method prefix simply waits: the
    // binary branch below needs kHeaderSize bytes before it decides.
    if (!c->http && sniff_http_method(c->in) != nullptr) c->http = true;
    if (c->http) {
      process_http(*c);
      return;
    }

    if (c->in.size() < kHeaderSize) return;
    const auto h =
        decode_header(reinterpret_cast<const uint8_t*>(c->in.data()));
    if (!h) {
      service_.registry()->on_protocol_error();
      obs::log_warn("server.protocol_error",
                    {{"conn", c->id}, {"reason", "bad_magic"}});
      c->in.clear();
      c->close_after_write = true;  // cannot resync a corrupt stream
      send_error(*c, FrameHeader{}, ServiceStatus::BadVersion,
                 "bad magic; expected protocol v1 (SWV1)");
      return;
    }
    if (h->payload_len > opts_.max_frame_bytes) {
      service_.registry()->on_protocol_error();
      obs::log_warn("server.protocol_error",
                    {{"conn", c->id},
                     {"reason", "frame_too_large"},
                     {"payload_len", h->payload_len}});
      const std::string msg =
          "payload length " + std::to_string(h->payload_len) +
          " exceeds serve.max_frame_bytes " +
          std::to_string(opts_.max_frame_bytes);
      c->in.clear();
      c->close_after_write = true;  // would have to read it to skip it
      send_error(*c, *h, ServiceStatus::FrameTooLarge, msg);
      return;
    }
    if (c->in.size() < kHeaderSize + h->payload_len) return;  // partial

    const std::string payload =
        c->in.substr(kHeaderSize, h->payload_len);
    c->in.erase(0, kHeaderSize + h->payload_len);
    service_.registry()->on_frame_rx(kHeaderSize + payload.size());
    c->frames_rx += 1;
    c->bytes_rx += kHeaderSize + payload.size();
    process_frame(*c, *h, payload);
  }
}

void Server::process_frame(Connection& c, const FrameHeader& h,
                           std::string_view payload) {
  if (!known_request_type(static_cast<uint8_t>(h.type))) {
    service_.registry()->on_protocol_error();
    obs::log_warn("server.protocol_error",
                  {{"conn", c.id},
                   {"reason", "unknown_type"},
                   {"type", static_cast<unsigned>(h.type)}});
    send_error(c, h, ServiceStatus::UnknownType,
               "unknown message type " +
                   std::to_string(static_cast<unsigned>(h.type)));
    return;
  }
  c.last_tier = h.tier;

  // Frame receipt time on the sink clock: the start of the server.frame
  // span recorded for traced requests.
  const uint64_t t_rx_ns = trace_sink_ ? trace_sink_->now_ns() : 0;
  WireTraceContext trace;
  if ((h.flags & kFlagTraced) != 0) {
    auto ctx = decode_trace_context(payload);  // strips the 9-byte prefix
    if (!ctx) {
      service_.registry()->on_protocol_error();
      obs::log_warn("server.protocol_error",
                    {{"conn", c.id}, {"reason", "bad_trace_context"}});
      send_error(c, h, ServiceStatus::BadFrame,
                 "traced flag without a valid trace context");
      return;
    }
    trace = *ctx;
  }

  const bool json = (h.flags & kFlagJson) != 0;
  switch (h.type) {
    case MsgType::Ping: {
      FrameHeader r;
      r.type = MsgType::Pong;
      r.flags = h.flags & kFlagJson;
      r.tier = h.tier;
      r.request_id = h.request_id;
      send_frame(c, r, json ? "{}" : "");
      return;
    }
    case MsgType::MetricsRequest: {
      const std::string body = render_metrics_body(json);
      FrameHeader r;
      r.type = MsgType::MetricsResponse;
      r.flags = h.flags & kFlagJson;
      r.tier = h.tier;
      r.request_id = h.request_id;
      send_frame(c, r, body);
      return;
    }
    case MsgType::AlignRequest:
      handle_request(c, h,
                     json ? decode_align_request_json(payload)
                          : decode_align_request(payload),
                     trace, t_rx_ns);
      return;
    case MsgType::SearchRequest:
      handle_request(c, h,
                     json ? decode_search_request_json(payload)
                          : decode_search_request(payload),
                     trace, t_rx_ns);
      return;
    case MsgType::BatchRequest:
      handle_request(c, h,
                     json ? decode_batch_request_json(payload)
                          : decode_batch_request(payload),
                     trace, t_rx_ns);
      return;
    default:
      return;  // unreachable; known_request_type gated above
  }
}

template <typename Request>
void Server::handle_request(Connection& c, const FrameHeader& h,
                            std::optional<Request> decoded,
                            const WireTraceContext& trace, uint64_t t_rx_ns) {
  if (!decoded) {
    service_.registry()->on_protocol_error();
    obs::log_warn("server.protocol_error",
                  {{"conn", c.id}, {"reason", "bad_payload"}});
    send_error(c, h, ServiceStatus::BadFrame, "undecodable request payload");
    return;
  }
  if (draining_) {
    send_error(c, h, ServiceStatus::ShuttingDown, "server is draining");
    return;
  }
  decoded->options.tier = service::qos_tier_from_wire(h.tier);
  // The propagated trace id becomes the service-side span id: one id
  // threads client -> frame -> queue_wait -> dispatch -> kernel spans.
  decoded->options.trace_id = trace.trace_id;
  const bool traced = trace.trace_id != 0;

  const bool json = (h.flags & kFlagJson) != 0;
  if (json) {
    // JSON debug mode bypasses the cache and singleflight: its payloads
    // are a different (non-canonical) serialization of the same result.
    submit_request(c, h, std::move(*decoded), /*flight=*/false,
                   /*identity=*/std::string(), trace, t_rx_ns);
    return;
  }

  std::string identity = cache_identity(*decoded, db_epoch_);
  const uint64_t key = cache_key(identity);
  if (cache_.capacity() > 0 && (h.flags & kFlagNoCache) == 0) {
    if (const CachedResponse* hit = cache_.get(key, identity)) {
      service_.registry()->on_result_cache_hit();
      FrameHeader r;
      r.type = hit->type;
      r.flags = kFlagFromCache;
      r.tier = h.tier;
      r.status = hit->status;
      r.request_id = h.request_id;
      std::string trailer;
      if (traced) {
        // A cache hit never executed: the timing breakdown is all zeros,
        // provenance says "served from cache".
        r.flags |= kFlagTraced;
        encode_server_timing(
            trailer, ServerTiming{trace.trace_id, 0, 0, 0, /*source=*/1});
        if (trace_sink_)
          trace_sink_->record_span("server.frame", trace.trace_id, t_rx_ns,
                                   trace_sink_->now_ns());
        if (trace.sampled)
          record_tracez(TracezEntry{trace.trace_id, hit->type, h.tier,
                                    hit->status, 0, 0, /*source=*/1});
      }
      send_frame(c, r, hit->payload, trailer);
      return;
    }
    service_.registry()->on_result_cache_miss();
  }
  bool flight = false;
  if (opts_.singleflight) {
    switch (flights_.join(key, identity,
                          FlightWaiter{c.id, h.request_id, /*json=*/false,
                                       /*initiator=*/false, traced,
                                       trace.sampled, trace.trace_id})) {
      case Singleflight::Join::Joined:
        service_.registry()->on_coalesced();
        ++c.inflight;
        // The joiner's own server-side work ends here (receipt -> join);
        // the execution spans live under the INITIATOR's trace id. Its
        // timing trailer arrives with the shared completion.
        if (traced && trace_sink_)
          trace_sink_->record_span("server.frame", trace.trace_id, t_rx_ns,
                                   trace_sink_->now_ns());
        return;  // the in-flight twin's completion answers this waiter too
      case Singleflight::Join::Started:
        flight = true;
        break;
      case Singleflight::Join::Mismatch:
        // Key collision with a different in-flight request: execute
        // independently and deliver directly; never share its response.
        break;
    }
  }
  submit_request(c, h, std::move(*decoded), flight, std::move(identity),
                 trace, t_rx_ns);
}

template <typename Request>
void Server::submit_request(Connection& c, const FrameHeader& h, Request rq,
                            bool flight, std::string identity,
                            const WireTraceContext& trace, uint64_t t_rx_ns) {
  using Traits = WireTraits<Request>;
  const bool json = (h.flags & kFlagJson) != 0;
  Completion done;
  done.flight = flight;
  done.cacheable = !json;
  done.key = json ? 0 : cache_key(identity);
  done.identity = std::move(identity);
  done.conn_id = c.id;
  done.request_id = h.request_id;
  done.req_flags = h.flags;
  done.req_tier = h.tier;
  done.traced = trace.trace_id != 0;
  done.sampled = trace.sampled;
  done.trace_id = trace.trace_id;
  ++outstanding_;
  ++c.inflight;
  if (done.traced && trace_sink_)
    trace_sink_->record_span("server.frame", trace.trace_id, t_rx_ns,
                             trace_sink_->now_ns());

  // The completion runs on an executor thread, or inline on this loop
  // thread for immediate rejections and for small pairwise requests the
  // service runs itself (AlignService::kInlineMaxCells bounds that stall).
  // Either way it serializes where it runs and delivers through the sink
  // on the next loop pass. The callback captures the completion sink,
  // never `this` — it may fire after the drain deadline has passed and the
  // Server is destroyed.
  service_.submit_async(
      std::move(rq),
      [sink = sink_,
       done](core::ErrorOr<typename Traits::Response> out) mutable {
        const bool as_json = (done.req_flags & kFlagJson) != 0;
        done.response.tier = done.req_tier;
        const auto to_us = [](double s) {
          return s <= 0 ? 0u
                        : static_cast<uint32_t>(std::min(s * 1e6, 4.0e9));
        };
        if (out.ok()) {
          done.response.type = Traits::kResponse;
          done.response.status = service::wire_status(ServiceStatus::Ok);
          done.queue_us = to_us(out.value().trace.queue_wait_s);
          done.exec_us = to_us(out.value().trace.kernel_s);
          perf::Stopwatch sw;
          if (as_json)
            done.response.payload = Traits::json(out.value());
          else
            Traits::encode(done.response.payload, out.value());
          done.serialize_us = to_us(sw.seconds());
        } else {
          const ServiceStatus st = service::to_status(out.error().code);
          done.response.type = MsgType::ErrorResponse;
          done.response.status = service::wire_status(st);
          done.response.payload =
              error_payload(st, out.error().message, as_json);
        }
        push_completion(sink, std::move(done));
      });
}

void Server::push_completion(const std::shared_ptr<CompletionSink>& sink,
                             Completion done) {
  // The write stays under the lock so ~Server cannot close the eventfd
  // between the open-check and the write.
  std::lock_guard<std::mutex> lock(sink->mu);
  if (sink->wake_fd < 0) return;  // server gone; drop the late completion
  sink->items.push_back(std::move(done));
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(sink->wake_fd, &one, sizeof one);
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(sink_->mu);
    batch.swap(sink_->items);
  }
  for (const Completion& done : batch) {
    deliver(done);
    --outstanding_;
  }
}

void Server::deliver(const Completion& done) {
  const bool ok = done.response.status == service::wire_status(ServiceStatus::Ok);
  if (done.cacheable && ok) publish(done.key, done);
  const bool json = (done.req_flags & kFlagJson) != 0;

  if (!done.flight) {
    // Direct delivery (JSON mode, singleflight disabled, or a key-collision
    // Mismatch executed outside the flight).
    if (Connection* c = find_connection(done.conn_id)) {
      if (c->inflight > 0) --c->inflight;
      FrameHeader r;
      r.type = done.response.type;
      r.flags = done.req_flags & kFlagJson;
      r.tier = done.response.tier;
      r.status = done.response.status;
      r.request_id = done.request_id;
      std::string trailer;
      if (done.traced && !json) {
        r.flags |= kFlagTraced;
        encode_server_timing(trailer,
                             ServerTiming{done.trace_id, done.queue_us,
                                          done.exec_us, done.serialize_us,
                                          /*source=*/0});
      }
      if (done.traced && done.sampled)
        record_tracez(TracezEntry{done.trace_id, done.response.type,
                                  done.response.tier, done.response.status,
                                  done.queue_us, done.exec_us, /*source=*/0});
      send_frame(*c, r, done.response.payload, trailer);
    }
    return;
  }

  // Flight delivery: fan the one serialized response out to every waiter.
  // Joiners are flagged kFlagCoalesced; the payload bytes are identical.
  // Traced waiters each get their own trailer — the initiator's timing
  // breakdown with the waiter's own trace id echoed, and provenance 2
  // ("coalesced") for joiners, whose execution spans live under the
  // initiator's trace id.
  const std::vector<FlightWaiter> waiters = flights_.complete(done.key);
  for (const FlightWaiter& w : waiters) {
    Connection* c = find_connection(w.conn_id);
    if (c == nullptr) continue;  // waiter disconnected mid-flight
    if (c->inflight > 0) --c->inflight;
    FrameHeader r;
    r.type = done.response.type;
    r.flags = w.initiator ? 0 : kFlagCoalesced;
    r.tier = done.response.tier;
    r.status = done.response.status;
    r.request_id = w.request_id;
    std::string trailer;
    if (w.traced) {
      r.flags |= kFlagTraced;
      encode_server_timing(
          trailer, ServerTiming{w.trace_id, done.queue_us, done.exec_us,
                                done.serialize_us,
                                static_cast<uint8_t>(w.initiator ? 0 : 2)});
    }
    if (w.traced && w.sampled)
      record_tracez(TracezEntry{w.trace_id, done.response.type,
                                done.response.tier, done.response.status,
                                done.queue_us, done.exec_us,
                                static_cast<uint8_t>(w.initiator ? 0 : 2)});
    send_frame(*c, r, done.response.payload, trailer);
  }
}

void Server::publish(uint64_t key, const Completion& done) {
  if (cache_.capacity() == 0) return;
  const size_t evicted = cache_.put(key, done.identity, done.response);
  for (size_t i = 0; i < evicted; ++i)
    service_.registry()->on_result_cache_eviction();
  cache_entries_.store(cache_.entries(), std::memory_order_relaxed);
}

// --------------------------------------------------------------------- HTTP

/// /varz?series=qps,cache&window=60 — pulls the two recognized parameters
/// out of the query string and validates every comma-separated series
/// token. Returns false (with the offending token in `bad`) on an unknown
/// name, so the caller can answer 400 instead of silently serving nothing.
static bool parse_varz_query(std::string_view query, std::string* series,
                             double* window_s, std::string* bad) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view kv = query.substr(pos, amp - pos);
    const size_t eq = kv.find('=');
    const std::string_view key =
        kv.substr(0, eq == std::string_view::npos ? kv.size() : eq);
    const std::string_view val =
        eq == std::string_view::npos ? std::string_view{} : kv.substr(eq + 1);
    if (key == "series") {
      *series = std::string(val);
    } else if (key == "window") {
      *window_s = std::strtod(std::string(val).c_str(), nullptr);
      if (*window_s < 0) *window_s = 0;
    }
    pos = amp + 1;
  }
  const std::string_view s = *series;
  size_t p = 0;
  while (p < s.size()) {
    size_t comma = s.find(',', p);
    if (comma == std::string_view::npos) comma = s.size();
    std::string_view tok = s.substr(p, comma - p);
    while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
    while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
    if (!tok.empty() && !obs::TimeSeriesStore::is_series_name(tok)) {
      *bad = std::string(tok);
      return false;
    }
    p = comma + 1;
  }
  return true;
}

void Server::process_http(Connection& c) {
  const size_t end = c.in.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (c.in.size() > 8192) close_connection(c.id);  // absurd request line
    return;
  }
  const std::string_view head(c.in.data(), end);
  const char* method = sniff_http_method(head);
  if (method == nullptr) {  // cannot happen via sniffing, but be explicit
    close_connection(c.id);
    return;
  }
  if (std::string_view(method) != "GET ") {
    // The endpoints are all read-only; anything else is a clean 405, not a
    // fall-through into binary protocol-error handling.
    c.in.erase(0, end + 4);
    c.out.append(http_response(405, "Method Not Allowed", "text/plain",
                               "method not allowed\n", "Allow: GET\r\n"));
    c.close_after_write = true;
    flush(c);
    return;
  }
  const size_t path_begin = std::strlen(method);
  const size_t path_end = head.find(' ', path_begin);
  const std::string_view target =
      path_end == std::string_view::npos
          ? head.substr(path_begin)
          : head.substr(path_begin, path_end - path_begin);
  std::string_view path = target;
  std::string_view query;
  if (const size_t q = target.find('?'); q != std::string_view::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }

  std::string reply;
  if (path == "/metrics" && opts_.http_metrics) {
    service_.registry()->on_http_scrape();
    const bool json = query.find("format=json") != std::string_view::npos;
    reply = http_response(200, "OK",
                          json ? "application/json"
                               : "text/plain; version=0.0.4",
                          render_metrics_body(json));
  } else if (path == "/healthz") {
    reply = draining_ ? http_response(503, "Service Unavailable",
                                      "text/plain", "draining\n")
                      : http_response(200, "OK", "text/plain", "ok\n");
  } else if (path == "/statusz" && opts_.http_metrics) {
    reply = http_response(200, "OK", "application/json", render_statusz());
  } else if (path == "/varz" && opts_.http_metrics) {
    if (const obs::TimeSeriesStore* ts = service_.timeseries()) {
      std::string series, bad;
      double window_s = 0;
      if (parse_varz_query(query, &series, &window_s, &bad)) {
        reply = http_response(200, "OK", "application/json",
                              ts->json(series, window_s));
      } else {
        reply = http_response(400, "Bad Request", "text/plain",
                              "unknown series: " + bad + "\n");
      }
    } else {
      reply = http_response(
          503, "Service Unavailable", "text/plain",
          "telemetry history disabled (serve.telemetry_cadence_s = 0)\n");
    }
  } else if (path == "/tracez" && opts_.http_metrics) {
    reply = http_response(200, "OK", "application/json", render_tracez());
  } else if (path == "/connz" && opts_.http_metrics) {
    reply = http_response(200, "OK", "application/json", render_connz());
  } else {
    reply = http_response(404, "Not Found", "text/plain", "not found\n");
  }
  c.in.erase(0, end + 4);
  c.out.append(reply);
  c.close_after_write = true;
  flush(c);
}

// u64 identities (db epoch, trace ids) must survive the JSON round trip
// bit-exactly; net::Json numbers are doubles, so they travel as decimal
// strings.
static std::string u64_string(uint64_t v) { return std::to_string(v); }

std::string Server::render_metrics_body(bool json) const {
  obs::SloStatus slo_status;
  const obs::SloEngine* slo = service_.slo();
  if (slo != nullptr) slo_status = slo->status();
  return obs::render_metrics(
      metrics(), json ? obs::MetricsFormat::Json : obs::MetricsFormat::Prometheus,
      slo != nullptr ? &slo_status : nullptr);
}

std::string Server::render_statusz() const {
  const obs::BuildInfo build = obs::build_info();
  const service::ServiceOptions& sopt = service_.options();
  JsonObject out;
  out["build"] = JsonObject{{"version", build.version},
                            {"compiler", build.compiler},
                            {"isas", build.isas}};
  out["uptime_s"] = steady_s() - started_s_;
  out["db_epoch"] = u64_string(db_epoch_);
  out["port"] = static_cast<double>(port_);
  out["draining"] = draining_;
  out["options"] = JsonObject{
      {"serve",
       JsonObject{{"bind", opts_.bind},
                  {"max_connections", static_cast<uint64_t>(opts_.max_connections)},
                  {"max_frame_bytes", static_cast<uint64_t>(opts_.max_frame_bytes)},
                  {"result_cache_capacity",
                   static_cast<uint64_t>(opts_.result_cache_capacity)},
                  {"singleflight", opts_.singleflight},
                  {"http_metrics", opts_.http_metrics},
                  {"drain_timeout_s", opts_.drain_timeout_s},
                  {"tracez_capacity",
                   static_cast<uint64_t>(opts_.tracez_capacity)},
                  {"telemetry_cadence_s", opts_.telemetry_cadence_s},
                  {"telemetry_retention_s", opts_.telemetry_retention_s}}},
      {"queue", JsonObject{{"executors", static_cast<uint64_t>(sopt.queue.executors)},
                           {"capacity", static_cast<uint64_t>(sopt.queue.capacity)}}}};
  out["cache"] =
      JsonObject{{"capacity", static_cast<uint64_t>(cache_.capacity())}};
  out["coalesce"] = JsonObject{
      {"inflight", static_cast<uint64_t>(flights_.inflight())}};
  if (const obs::TimeSeriesStore* ts = service_.timeseries())
    out["telemetry"] =
        JsonObject{{"samples", static_cast<uint64_t>(ts->size())},
                   {"cadence_s", opts_.telemetry_cadence_s},
                   {"retention_s", opts_.telemetry_retention_s}};
  if (const obs::SloEngine* slo = service_.slo())
    if (auto s = Json::parse(slo->json())) out["slo"] = *s;
  // The metrics document goes in verbatim (a round trip through Json
  // would reprint every double at 17 digits).
  std::string doc = Json(std::move(out)).dump();
  std::string metrics = render_metrics_body(true);
  metrics.pop_back();  // its trailing newline
  doc.pop_back();      // the closing brace
  return doc + ",\"metrics\":" + metrics + "}";
}

std::string Server::render_tracez() const {
  JsonObject out;
  // Newest-first: the request you just made is the first entry you read.
  JsonArray entries;
  const std::vector<obs::TraceEvent> events =
      trace_sink_ ? trace_sink_->snapshot_events()
                  : std::vector<obs::TraceEvent>{};
  for (auto it = tracez_.rbegin(); it != tracez_.rend(); ++it) {
    JsonObject e;
    e["trace_id"] = u64_string(it->trace_id);
    e["type"] = static_cast<double>(static_cast<uint8_t>(it->type));
    e["tier"] = perf::qos_tier_label(it->tier);
    e["status"] = static_cast<double>(it->status);
    e["queue_us"] = static_cast<uint64_t>(it->queue_us);
    e["exec_us"] = static_cast<uint64_t>(it->exec_us);
    e["source"] = it->source == 0   ? "executed"
                  : it->source == 1 ? "cache"
                                    : "coalesced";
    JsonArray spans;
    for (const obs::TraceEvent& ev : events) {
      if (ev.trace_id != it->trace_id || ev.name == nullptr) continue;
      spans.push_back(JsonObject{{"name", ev.name},
                                 {"ts_ns", u64_string(ev.ts_ns)},
                                 {"dur_ns", u64_string(ev.dur_ns)}});
    }
    e["spans"] = std::move(spans);
    entries.push_back(std::move(e));
  }
  out["entries"] = std::move(entries);
  out["capacity"] = static_cast<uint64_t>(opts_.tracez_capacity);
  // SLO breaches ride along: the watchdog's records are the "slow" half of
  // the story /tracez tells (sampled half above).
  if (const obs::Watchdog* wd = service_.watchdog()) {
    if (auto slow = Json::parse(wd->json())) out["slow"] = *slow;
    out["slow_detected"] = wd->detected();
  }
  return Json(std::move(out)).dump();
}

std::string Server::render_connz() const {
  const double now_s = steady_s();
  JsonArray conns;
  for (const auto& [id, c] : conns_) {
    conns.push_back(JsonObject{
        {"id", u64_string(id)},
        {"peer", c.peer},
        {"protocol", c.http ? "http" : "swv1"},
        {"tier", perf::qos_tier_label(c.last_tier)},
        {"frames_rx", c.frames_rx},
        {"frames_tx", c.frames_tx},
        {"bytes_rx", c.bytes_rx},
        {"bytes_tx", c.bytes_tx},
        {"inflight", static_cast<uint64_t>(c.inflight)},
        {"age_s", now_s - c.opened_s}});
  }
  JsonObject out;
  out["connections"] = std::move(conns);
  out["active"] = static_cast<uint64_t>(conns_.size());
  out["draining"] = draining_;
  return Json(std::move(out)).dump();
}

// ------------------------------------------------------------------ plumbing

void Server::send_frame(Connection& c, const FrameHeader& h,
                        std::string_view payload, std::string_view trailer) {
  FrameHeader out = h;
  out.payload_len = static_cast<uint32_t>(payload.size() + trailer.size());
  encode_header(c.out, out);
  c.out.append(payload);
  c.out.append(trailer);
  const size_t wire = kHeaderSize + payload.size() + trailer.size();
  service_.registry()->on_frame_tx(wire);
  c.frames_tx += 1;
  c.bytes_tx += wire;
  flush(c);
}

void Server::record_tracez(const TracezEntry& entry) {
  tracez_.push_back(entry);
  while (tracez_.size() > opts_.tracez_capacity) tracez_.pop_front();
}

void Server::send_error(Connection& c, const FrameHeader& req,
                        ServiceStatus status, std::string_view message) {
  const bool json = (req.flags & kFlagJson) != 0;
  FrameHeader r;
  r.type = MsgType::ErrorResponse;
  r.flags = req.flags & kFlagJson;
  r.tier = req.tier;
  r.status = service::wire_status(status);
  r.request_id = req.request_id;
  send_frame(c, r, error_payload(status, message, json));
}

void Server::flush(Connection& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.u64 = c.id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(c.id);  // peer gone
    return;
  }
  // Fully flushed: compact and drop EPOLLOUT interest.
  c.out.clear();
  c.out_off = 0;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  if (c.close_after_write) close_connection(c.id);
}

void Server::close_connection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  obs::log_info("server.close", {{"conn", conn_id},
                                 {"frames_rx", it->second.frames_rx},
                                 {"bytes_rx", it->second.bytes_rx},
                                 {"bytes_tx", it->second.bytes_tx}});
  flights_.drop_connection(conn_id);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  close_fd(it->second.fd);
  conns_.erase(it);
  active_connections_.store(conns_.size(), std::memory_order_relaxed);
}

Server::Connection* Server::find_connection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : &it->second;
}

}  // namespace swve::net
