// End-to-end tests of net::Server + net::Client over a real loopback
// socket: wire results bit-identical to in-process AlignService calls,
// result-cache hits (kFlagFromCache), singleflight coalescing under a
// paused service (kFlagCoalesced), protocol-error statuses, partial-frame
// reassembly, oversized-frame rejection, deadline mapping, the HTTP
// /metrics endpoint, graceful drain, and the one search rule (every
// unbanded search takes the batch scan, whatever its mode byte).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/json.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::net {
namespace {

using service::AlignRequest;
using service::SearchRequest;
using service::ServiceStatus;
using std::chrono::milliseconds;

seq::SequenceDatabase make_db(uint64_t residues = 60'000, uint64_t seed = 15) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 400;
  return seq::SequenceDatabase::synthetic(cfg);
}

/// A service + server on an ephemeral loopback port, torn down in order.
struct Loopback {
  explicit Loopback(service::ServiceOptions opt = {}, uint64_t residues = 60'000)
      : db(make_db(residues)) {
    opt.serve.port = 0;  // ephemeral
    svc = std::make_unique<service::AlignService>(db, opt);
    auto started = Server::start(*svc);
    if (!started.ok()) {
      ADD_FAILURE() << started.error().message;
      return;
    }
    server = std::move(started.value());
  }

  std::unique_ptr<Client> client(double timeout_s = 20.0) {
    auto c = Client::connect("127.0.0.1", server->port(), timeout_s);
    EXPECT_TRUE(c.ok());
    return std::move(c.value());
  }

  seq::SequenceDatabase db;
  std::unique_ptr<service::AlignService> svc;
  std::unique_ptr<Server> server;
};

SearchRequest search_request(uint64_t seed = 31, uint32_t len = 150) {
  SearchRequest rq;
  rq.query = seq::generate_sequence(seed, len);
  rq.options.top_k = 5;
  return rq;
}

TEST(NetServer, SearchOverWireMatchesInProcess) {
  Loopback lb;
  const SearchRequest rq = search_request();

  const auto wire = lb.client()->search(rq);
  ASSERT_TRUE(wire.ok()) << wire.error;

  auto fut = service::submit_future(*lb.svc, rq);
  const auto local = fut.get().value();

  // The tentpole sentinel: hits decoded off the wire are bit-identical to
  // the in-process response.
  ASSERT_EQ(wire.response->result.hits.size(), local.result.hits.size());
  for (size_t i = 0; i < local.result.hits.size(); ++i) {
    EXPECT_EQ(wire.response->result.hits[i].seq_index,
              local.result.hits[i].seq_index);
    EXPECT_EQ(wire.response->result.hits[i].score, local.result.hits[i].score);
    EXPECT_EQ(wire.response->result.hits[i].end_query,
              local.result.hits[i].end_query);
    EXPECT_EQ(wire.response->result.hits[i].end_ref,
              local.result.hits[i].end_ref);
  }
}

/// A search response's bytes with the measured durations zeroed: what two
/// executions of one request must agree on.
std::string canonical_bytes(service::SearchResponse resp) {
  resp.result.seconds = 0;
  resp.trace.queue_wait_s = 0;
  resp.trace.kernel_s = 0;
  std::string bytes;
  encode_search_response(bytes, resp);
  return bytes;
}

/// The JSON form of the same: a search_response_json document with its
/// trace durations (and the GCUPS derived from them) zeroed.
std::string canonical_json(std::string_view doc) {
  const auto parsed = Json::parse(doc);
  if (!parsed || !parsed->is_object()) return "unparsable: " + std::string(doc);
  JsonObject o = parsed->as_object();
  JsonObject trace = o["trace"].as_object();
  for (const char* key : {"queue_wait_s", "kernel_s", "gcups"}) trace[key] = 0;
  o["trace"] = Json(std::move(trace));
  return Json(std::move(o)).dump();
}

TEST(NetServer, EverySearchModeServesTheBatchScan) {
  // The search-mode byte picks nothing: a default-mode, a Batch-mode and a
  // JSON request without "mode" all run the batch scan and answer the
  // same bytes, and one mode's reply serves the other from the cache. A
  // banded request (the batch kernel cannot band) runs the diagonal engine.
  obs::TraceSink sink;
  service::ServiceOptions opt;
  opt.obs.trace_sink = &sink;
  Loopback lb(opt);
  auto c = lb.client();
  c->enable_tracing(true);
  const SearchRequest plain = search_request(41, 180);
  SearchRequest batch = plain;
  batch.mode = align::SearchMode::Batch;

  c->set_trace_id(101);
  const auto first = c->search(plain);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.from_cache());
  c->set_trace_id(102);
  const auto fresh = c->search(batch, kFlagNoCache);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_FALSE(fresh.from_cache());
  c->set_trace_id(103);
  const auto cached = c->search(batch);
  ASSERT_TRUE(cached.ok()) << cached.error;
  EXPECT_TRUE(cached.from_cache());  // the default-mode reply, replayed
  const std::string want = canonical_bytes(*first.response);
  EXPECT_EQ(canonical_bytes(*fresh.response), want);
  EXPECT_EQ(canonical_bytes(*cached.response), want);
  EXPECT_GT(first.response->result.batch_stats.cells8, 0u);

  FrameHeader h;
  h.type = MsgType::SearchRequest;
  h.flags = kFlagJson;
  h.request_id = 104;
  const std::string json_rq = R"({"query":")" +
                              plain.query.to_string() + R"(","top_k":5})";
  const auto json = c->roundtrip_raw(encode_frame(h, json_rq));
  ASSERT_TRUE(json.has_value());
  ASSERT_EQ(json->first.type, MsgType::SearchResponse) << json->second;
  EXPECT_EQ(canonical_json(json->second),
            canonical_json(search_response_json(*first.response)));

  // Both executed binary requests ran the batch scan and nothing else.
  auto spans = [&](uint64_t trace_id, const std::string& name) {
    size_t n = 0;
    for (const obs::TraceEvent& e : sink.snapshot_events())
      n += e.trace_id == trace_id && name == e.name ? 1 : 0;
    return n;
  };
  for (uint64_t id : {101u, 102u}) {
    EXPECT_GE(spans(id, "chunk.search_batch"), 1u) << id;
    EXPECT_EQ(spans(id, "chunk.search_diagonal"), 0u) << id;
  }
  const perf::MetricsSnapshot m = lb.svc->metrics();
  uint64_t batch32 = 0, all = 0;
  for (const auto& isa : m.target_requests) {
    batch32 += isa[static_cast<size_t>(perf::KernelVariant::Batch32)];
    for (const uint64_t n : isa) all += n;
  }
  EXPECT_EQ(batch32, 3u);  // the default, the uncached Batch and the JSON
  EXPECT_EQ(all, 3u);

  // A banded request, in Batch mode too, takes the diagonal engine.
  SearchRequest banded = batch;
  core::AlignConfig cfg;
  cfg.band = 24;
  banded.options.config = cfg;
  c->set_trace_id(105);
  const auto narrow = c->search(banded);
  ASSERT_TRUE(narrow.ok()) << narrow.error;
  const align::SearchResult diagonal = align::engine::search_diagonal(
      lb.db, cfg, plain.query, 5, align::ExecContext{});
  ASSERT_FALSE(diagonal.hits.empty());
  ASSERT_EQ(narrow.response->result.hits.size(), diagonal.hits.size());
  for (size_t k = 0; k < diagonal.hits.size(); ++k) {
    const align::Hit& got = narrow.response->result.hits[k];
    EXPECT_EQ(got.seq_index, diagonal.hits[k].seq_index) << k;
    EXPECT_EQ(got.score, diagonal.hits[k].score) << k;
    EXPECT_EQ(got.end_query, diagonal.hits[k].end_query) << k;
    EXPECT_EQ(got.end_ref, diagonal.hits[k].end_ref) << k;
  }
  EXPECT_GE(spans(105, "chunk.search_diagonal"), 1u);
  EXPECT_EQ(spans(105, "chunk.search_batch"), 0u);

  // A batch request still cannot band.
  service::BatchRequest banded_batch;
  banded_batch.queries = {plain.query};
  banded_batch.options.config = cfg;
  const auto refused = c->batch(banded_batch);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status, ServiceStatus::Unsupported) << refused.error;
}

TEST(NetServer, AlignWithTracebackMatchesInProcess) {
  Loopback lb;
  AlignRequest rq;
  rq.query = seq::generate_sequence(7, 90);
  rq.reference = seq::generate_sequence(8, 130);
  rq.options.traceback = true;

  const auto wire = lb.client()->align(rq);
  ASSERT_TRUE(wire.ok()) << wire.error;
  auto fut = service::submit_future(*lb.svc, rq);
  const auto local = fut.get().value();

  EXPECT_EQ(wire.response->alignment.score, local.alignment.score);
  EXPECT_EQ(wire.response->alignment.end_query, local.alignment.end_query);
  EXPECT_EQ(wire.response->alignment.end_ref, local.alignment.end_ref);
  EXPECT_EQ(wire.response->alignment.begin_query, local.alignment.begin_query);
  EXPECT_EQ(wire.response->alignment.begin_ref, local.alignment.begin_ref);
  EXPECT_EQ(wire.response->alignment.cigar.to_string(),
            local.alignment.cigar.to_string());
}

TEST(NetServer, RepeatedRequestServedFromCache) {
  Loopback lb;
  auto client = lb.client();
  const SearchRequest rq = search_request();

  const auto first = client->search(rq);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.from_cache());

  const auto second = client->search(rq);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.from_cache());

  // Identical decoded results either way.
  ASSERT_EQ(first.response->result.hits.size(),
            second.response->result.hits.size());
  for (size_t i = 0; i < first.response->result.hits.size(); ++i)
    EXPECT_EQ(first.response->result.hits[i].score,
              second.response->result.hits[i].score);

  // And kFlagNoCache forces a fresh execution.
  const auto third = client->search(rq, kFlagNoCache);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.from_cache());

  const auto snap = lb.server->metrics();
  EXPECT_GE(snap.result_cache_hits, 1u);
  EXPECT_GE(snap.result_cache_misses, 1u);
  EXPECT_GE(snap.result_cache_entries, 1u);
  EXPECT_GT(snap.result_cache_hit_rate(), 0.0);
}

TEST(NetServer, IdenticalInflightRequestsCoalesce) {
  service::ServiceOptions opt;
  opt.queue.start_paused = true;  // hold execution so both requests queue
  Loopback lb(opt);
  const SearchRequest rq = search_request();

  auto c1 = lb.client();
  auto c2 = lb.client();
  RpcResult<service::SearchResponse> r1, r2;
  std::thread t1([&] { r1 = c1->search(rq); });
  std::thread t2([&] { r2 = c2->search(rq); });

  // Wait until the coalesced join is visible in the metrics, then release
  // the executors: exactly one execution serves both clients.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lb.svc->metrics().coalesced < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  lb.svc->resume();
  t1.join();
  t2.join();

  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.coalesced() + r2.coalesced(), 1)  // exactly one joiner
      << "initiator and joiner flags: " << int(r1.flags) << " "
      << int(r2.flags);
  ASSERT_EQ(r1.response->result.hits.size(), r2.response->result.hits.size());
  for (size_t i = 0; i < r1.response->result.hits.size(); ++i)
    EXPECT_EQ(r1.response->result.hits[i].score,
              r2.response->result.hits[i].score);

  const auto snap = lb.server->metrics();
  EXPECT_EQ(snap.coalesced, 1u);
  EXPECT_GT(snap.dedup_ratio(), 0.0);
}

TEST(NetServer, ErrorStatusesCrossTheWire) {
  // Pairwise-only service: search must come back NoDatabase, not a hang or
  // a protocol error.
  service::ServiceOptions opt;
  auto svc = std::make_unique<service::AlignService>(opt);  // no database
  auto started = Server::start(*svc);
  ASSERT_TRUE(started.ok());
  auto client = Client::connect("127.0.0.1", started.value()->port(), 20.0);
  ASSERT_TRUE(client.ok());

  const auto r = client.value()->search(search_request());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, ServiceStatus::NoDatabase);
  EXPECT_FALSE(r.error.empty());
}

TEST(NetServer, ProtocolErrorsAreTyped) {
  Loopback lb;

  {  // Undecodable payload under a valid header -> BadFrame.
    auto c = lb.client();
    FrameHeader h;
    h.type = MsgType::SearchRequest;
    h.request_id = 5;
    const auto reply = c->roundtrip_raw(encode_frame(h, "garbage"));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->first.type, MsgType::ErrorResponse);
    EXPECT_EQ(service::status_from_wire(reply->first.status),
              ServiceStatus::BadFrame);
    EXPECT_EQ(reply->first.request_id, 5u);
  }
  {  // Unknown type byte -> UnknownType.
    auto c = lb.client();
    FrameHeader h;
    h.type = static_cast<MsgType>(77);
    const auto reply = c->roundtrip_raw(encode_frame(h, ""));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(service::status_from_wire(reply->first.status),
              ServiceStatus::UnknownType);
  }
  {  // Bad magic -> BadVersion, then the connection is dropped.
    auto c = lb.client();
    std::string frame = encode_frame(FrameHeader{}, "");
    frame[0] = 'X';
    const auto reply = c->roundtrip_raw(frame);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(service::status_from_wire(reply->first.status),
              ServiceStatus::BadVersion);
    EXPECT_FALSE(c->read_frame().has_value());  // server closed
  }
  const auto snap = lb.server->metrics();
  EXPECT_GE(snap.server_protocol_errors, 3u);
}

TEST(NetServer, OversizedFrameRejected) {
  service::ServiceOptions opt;
  opt.serve.max_frame_bytes = 1024;
  Loopback lb(opt);
  auto c = lb.client();

  FrameHeader h;
  h.type = MsgType::SearchRequest;
  h.payload_len = 1u << 20;  // claims 1 MiB
  std::string bytes;
  encode_header(bytes, h);
  ASSERT_TRUE(c->send_raw(bytes));
  const auto reply = c->read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(service::status_from_wire(reply->first.status),
            ServiceStatus::FrameTooLarge);
  EXPECT_FALSE(c->read_frame().has_value());  // connection closed
}

TEST(NetServer, PartialFramesReassemble) {
  Loopback lb;
  auto c = lb.client();
  const SearchRequest rq = search_request();
  std::string payload;
  encode_search_request(payload, rq);
  FrameHeader h;
  h.type = MsgType::SearchRequest;
  h.request_id = 9;
  const std::string frame = encode_frame(h, payload);

  // Dribble the frame across five writes with pauses; the server must
  // buffer and answer exactly once it has the whole thing.
  const size_t step = frame.size() / 5 + 1;
  for (size_t off = 0; off < frame.size(); off += step) {
    ASSERT_TRUE(c->send_raw(frame.substr(off, step)));
    std::this_thread::sleep_for(milliseconds(20));
  }
  const auto reply = c->read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first.type, MsgType::SearchResponse);
  EXPECT_EQ(reply->first.request_id, 9u);
  const auto decoded = decode_search_response(reply->second);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result.hits.size(), 5u);
}

TEST(NetServer, JsonDebugMode) {
  Loopback lb;
  auto c = lb.client();
  FrameHeader h;
  h.type = MsgType::AlignRequest;
  h.flags = kFlagJson;
  h.request_id = 3;
  const auto reply = c->roundtrip_raw(encode_frame(
      h, R"({"query":"MKVLAEEQW","ref":"MKVLAEEQW","traceback":true})"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first.type, MsgType::AlignResponse);
  EXPECT_NE(reply->first.flags & kFlagJson, 0);
  const auto doc = Json::parse(reply->second);
  ASSERT_TRUE(doc.has_value()) << reply->second;
  EXPECT_GT((*doc)["score"].as_number(), 0.0);
}

// A JSON config naming an unknown ISA (the retired "sse41" is one) is an
// undecodable payload: a typed BadFrame, and the connection keeps serving.
TEST(NetServer, UnknownIsaNameIsABadFrame) {
  Loopback lb;
  auto c = lb.client();
  FrameHeader h;
  h.type = MsgType::AlignRequest;
  h.flags = kFlagJson;
  h.request_id = 4;
  const auto bad = c->roundtrip_raw(encode_frame(
      h, R"({"query":"MKVLAEEQW","ref":"MKVLAEEQW","config":{"isa":"sse41"}})"));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->first.type, MsgType::ErrorResponse);
  EXPECT_EQ(service::status_from_wire(bad->first.status),
            ServiceStatus::BadFrame);
  EXPECT_EQ(bad->first.request_id, 4u);
  const auto doc = Json::parse(bad->second);
  ASSERT_TRUE(doc.has_value()) << bad->second;
  EXPECT_EQ((*doc)["message"].as_string(), "undecodable request payload");

  h.request_id = 5;
  const auto good = c->roundtrip_raw(encode_frame(
      h, R"({"query":"MKVLAEEQW","ref":"MKVLAEEQW","config":{"isa":"auto"}})"));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->first.type, MsgType::AlignResponse);
  EXPECT_EQ(good->first.request_id, 5u);
  const auto aligned = Json::parse(good->second);
  ASSERT_TRUE(aligned.has_value()) << good->second;
  EXPECT_GT((*aligned)["score"].as_number(), 0.0);
}

TEST(NetServer, DeadlineExpiresInQueue) {
  service::ServiceOptions opt;
  opt.queue.start_paused = true;
  Loopback lb(opt);
  auto c = lb.client();

  SearchRequest rq = search_request();
  rq.options.deadline = milliseconds(1);
  std::thread release([&] {
    std::this_thread::sleep_for(milliseconds(300));
    lb.svc->resume();
  });
  const auto r = c->search(rq);
  release.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, ServiceStatus::DeadlineExceeded);
}

TEST(NetServer, HttpMetricsAndHealth) {
  Loopback lb;
  // Generate one request so the counters are warm.
  ASSERT_TRUE(lb.client()->search(search_request()).ok());

  const auto prom =
      http_get("127.0.0.1", lb.server->port(), "/metrics");
  ASSERT_TRUE(prom.ok()) << prom.error().message;
  EXPECT_NE(prom.value().find("swve_requests_submitted_total"),
            std::string::npos);
  EXPECT_NE(prom.value().find("swve_result_cache_lookups_total"),
            std::string::npos);
  EXPECT_NE(prom.value().find("swve_server_connections_total"),
            std::string::npos);

  const auto json =
      http_get("127.0.0.1", lb.server->port(), "/metrics?format=json");
  ASSERT_TRUE(json.ok());
  const auto doc = Json::parse(json.value());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE((*doc)["server_connections_total"].is_number());
  EXPECT_TRUE((*doc)["result_cache_lookups_total"].is_array());

  std::string head;
  const auto health =
      http_get("127.0.0.1", lb.server->port(), "/healthz", 10.0, &head);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value(), "ok\n");
  EXPECT_NE(head.find("200"), std::string::npos);

  std::string head404;
  const auto missing =
      http_get("127.0.0.1", lb.server->port(), "/nope", 10.0, &head404);
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(head404.find("404"), std::string::npos);

  const auto snap = lb.server->metrics();
  EXPECT_GE(snap.server_http_scrapes, 2u);
  EXPECT_GE(snap.server_connections, 1u);
}

TEST(NetServer, GracefulDrainFinishesInflightWork) {
  service::ServiceOptions opt;
  opt.queue.start_paused = true;
  opt.serve.drain_timeout_s = 20;
  Loopback lb(opt);
  auto c = lb.client();

  RpcResult<service::SearchResponse> r;
  std::thread t([&] { r = c->search(search_request()); });
  // Let the request reach the (paused) queue, then start draining while it
  // is still pending.
  std::this_thread::sleep_for(milliseconds(200));
  lb.server->shutdown();
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_TRUE(lb.server->running());  // drain waits for the pending request
  lb.svc->resume();
  t.join();
  lb.server->join();

  ASSERT_TRUE(r.ok()) << r.error;  // the in-flight request completed
  EXPECT_EQ(r.response->result.hits.size(), 5u);
  EXPECT_FALSE(lb.server->running());

  // The listener is gone: new connections are refused.
  EXPECT_FALSE(Client::connect("127.0.0.1", lb.server->port(), 2.0).ok());
}

TEST(NetServer, LateCompletionAfterServerDestructionIsDropped) {
  // Regression: a request still executing (here: still queued, executors
  // paused) when the drain deadline passes used to leave a completion
  // callback holding a raw Server pointer; ~Server freed the object and
  // the late completion wrote a destroyed mutex and a closed eventfd. The
  // callback now holds the shared completion sink, which ~Server closes,
  // so the late completion is dropped on the floor.
  auto db = make_db(20'000);
  service::ServiceOptions opt;
  opt.queue.start_paused = true;     // the request never starts executing
  opt.serve.drain_timeout_s = 0.05;  // give up draining almost immediately
  opt.serve.port = 0;
  service::AlignService svc(db, opt);
  auto started = Server::start(svc);
  ASSERT_TRUE(started.ok());
  auto server = std::move(started.value());

  auto conn = Client::connect("127.0.0.1", server->port(), 5.0);
  ASSERT_TRUE(conn.ok());
  RpcResult<service::SearchResponse> r;
  std::thread t([&] { r = conn.value()->search(search_request()); });

  // Wait until the request has been submitted into the (paused) queue.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (svc.metrics().submitted < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  ASSERT_GE(svc.metrics().submitted, 1u);

  server->shutdown();
  server->join();  // drain deadline passes with the execution outstanding
  server.reset();  // destroy the server while the completion is pending
  t.join();        // the client sees its connection closed, no response
  EXPECT_FALSE(r.ok());

  // Release the executors: the completion fires into the closed sink and
  // must be dropped without touching the destroyed server.
  svc.resume();
  std::this_thread::sleep_for(milliseconds(200));
}

TEST(NetServer, TracedResponseBitIdenticalWithTiming) {
  // The wire-tracing sentinel, checked at the byte level: a traced
  // response is exactly the untraced response bytes plus a ServerTiming
  // trailer. Nothing about the result may depend on tracing.
  Loopback lb;
  auto c = lb.client();
  const SearchRequest rq = search_request();
  std::string payload;
  encode_search_request(payload, rq);

  FrameHeader h;
  h.type = MsgType::SearchRequest;
  h.request_id = 21;
  const auto plain = c->roundtrip_raw(encode_frame(h, payload));
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(plain->first.type, MsgType::SearchResponse);
  EXPECT_EQ(plain->first.flags & kFlagTraced, 0);

  // Same request traced: it replays the cache entry the untraced call
  // stored, so after stripping the trailer the bytes must match exactly —
  // the trailer rides outside the cached payload.
  const uint64_t kTraceId = 0xDEADBEEFCAFEF00Dull;
  FrameHeader ht;
  ht.type = MsgType::SearchRequest;
  ht.flags = kFlagTraced;
  ht.request_id = 22;
  std::string traced_payload;
  encode_trace_context(traced_payload, WireTraceContext{kTraceId, true});
  traced_payload += payload;
  const auto traced = c->roundtrip_raw(encode_frame(ht, traced_payload));
  ASSERT_TRUE(traced.has_value());
  ASSERT_EQ(traced->first.type, MsgType::SearchResponse);
  EXPECT_NE(traced->first.flags & kFlagTraced, 0);
  EXPECT_NE(traced->first.flags & kFlagFromCache, 0);

  std::string_view body = traced->second;
  const auto timing = decode_server_timing(body);
  ASSERT_TRUE(timing.has_value());
  EXPECT_EQ(timing->trace_id, kTraceId);        // client id echoed verbatim
  EXPECT_EQ(timing->source, 1);                 // cache provenance
  EXPECT_EQ(std::string(body), plain->second);  // bit-identical payload

  // A traced fresh execution (kFlagNoCache): the payload embeds wall-clock
  // telemetry (RequestTrace), so two executions differ in those bytes —
  // the decoded *results* must still be identical to the untraced run's.
  FrameHeader hx;
  hx.type = MsgType::SearchRequest;
  hx.flags = kFlagTraced | kFlagNoCache;
  hx.request_id = 24;
  const auto fresh = c->roundtrip_raw(encode_frame(hx, traced_payload));
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->first.type, MsgType::SearchResponse);
  std::string_view fresh_body = fresh->second;
  const auto fresh_timing = decode_server_timing(fresh_body);
  ASSERT_TRUE(fresh_timing.has_value());
  EXPECT_EQ(fresh_timing->source, 0);  // executed
  EXPECT_GT(fresh_timing->exec_us, 0u);
  const auto plain_decoded = decode_search_response(plain->second);
  const auto fresh_decoded = decode_search_response(fresh_body);
  ASSERT_TRUE(plain_decoded.has_value());
  ASSERT_TRUE(fresh_decoded.has_value());
  ASSERT_EQ(plain_decoded->result.hits.size(),
            fresh_decoded->result.hits.size());
  for (size_t i = 0; i < plain_decoded->result.hits.size(); ++i) {
    EXPECT_EQ(plain_decoded->result.hits[i].seq_index,
              fresh_decoded->result.hits[i].seq_index);
    EXPECT_EQ(plain_decoded->result.hits[i].score,
              fresh_decoded->result.hits[i].score);
    EXPECT_EQ(plain_decoded->result.hits[i].end_query,
              fresh_decoded->result.hits[i].end_query);
    EXPECT_EQ(plain_decoded->result.hits[i].end_ref,
              fresh_decoded->result.hits[i].end_ref);
  }

  // A traced flag without a decodable context is a typed BadFrame, not a
  // garbage decode of the shifted payload.
  FrameHeader hb;
  hb.type = MsgType::SearchRequest;
  hb.flags = kFlagTraced;
  hb.request_id = 23;
  const auto bad = c->roundtrip_raw(encode_frame(hb, "abc"));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->first.type, MsgType::ErrorResponse);
  EXPECT_EQ(service::status_from_wire(bad->first.status),
            ServiceStatus::BadFrame);
}

TEST(NetServer, PropagatedTraceIdThreadsServerSpans) {
  // One client-chosen id must thread every server-side span: the trace
  // sink's Chrome export and the /tracez entry both carry it verbatim.
  obs::TraceSink sink;
  service::ServiceOptions opt;
  opt.obs.trace_sink = &sink;
  Loopback lb(opt);
  auto c = lb.client();
  c->enable_tracing(true);
  const uint64_t kTraceId = 0x5EEDF00DDEADBEEFull;
  c->set_trace_id(kTraceId);

  const auto r = c->search(search_request());
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.timing.has_value());
  EXPECT_EQ(r.timing->trace_id, kTraceId);

  const std::string want = "\"trace_id\":" + std::to_string(kTraceId);
  EXPECT_NE(sink.chrome_trace_json().find(want), std::string::npos);

  const auto body = http_get("127.0.0.1", lb.server->port(), "/tracez");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto doc = Json::parse(body.value());
  ASSERT_TRUE(doc.has_value()) << body.value();
  ASSERT_TRUE((*doc)["entries"].is_array());
  EXPECT_GT((*doc)["capacity"].as_number(), 0.0);
  bool found = false;
  for (const Json& e : (*doc)["entries"].as_array()) {
    if (e["trace_id"].as_string() != std::to_string(kTraceId)) continue;
    found = true;
    EXPECT_EQ(e["source"].as_string(), "executed");
    EXPECT_TRUE(e["tier"].is_string());
    EXPECT_GT(e["exec_us"].as_number(), 0.0);
    ASSERT_TRUE(e["spans"].is_array());
    EXPECT_FALSE(e["spans"].as_array().empty());  // the id found its spans
    for (const Json& s : e["spans"].as_array()) {
      EXPECT_TRUE(s["name"].is_string());
      EXPECT_TRUE(s["dur_ns"].is_string());  // u64s travel as strings
    }
  }
  EXPECT_TRUE(found) << body.value();
}

TEST(NetServer, TracedCacheHitReportsProvenance) {
  Loopback lb;
  auto c = lb.client();
  c->enable_tracing(true);
  const SearchRequest rq = search_request();

  const auto first = c->search(rq);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(first.timing.has_value());
  EXPECT_EQ(first.timing->source, 0);

  const auto second = c->search(rq);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.from_cache());
  ASSERT_TRUE(second.timing.has_value());
  EXPECT_EQ(second.timing->source, 1);  // cache provenance
  EXPECT_EQ(second.timing->queue_us, 0u);
  EXPECT_EQ(second.timing->exec_us, 0u);

  // The trailer stays out of the cache: decoded results are identical.
  ASSERT_EQ(first.response->result.hits.size(),
            second.response->result.hits.size());
  for (size_t i = 0; i < first.response->result.hits.size(); ++i)
    EXPECT_EQ(first.response->result.hits[i].score,
              second.response->result.hits[i].score);
}

TEST(NetServer, TracedCoalescedJoinerReportsProvenance) {
  service::ServiceOptions opt;
  opt.queue.start_paused = true;
  Loopback lb(opt);
  const SearchRequest rq = search_request();

  auto c1 = lb.client();
  auto c2 = lb.client();
  c1->enable_tracing(true);
  c1->set_trace_id(111);
  c2->enable_tracing(true);
  c2->set_trace_id(222);
  RpcResult<service::SearchResponse> r1, r2;
  std::thread t1([&] { r1 = c1->search(rq); });
  std::thread t2([&] { r2 = c2->search(rq); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lb.svc->metrics().coalesced < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  lb.svc->resume();
  t1.join();
  t2.join();

  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  ASSERT_TRUE(r1.timing.has_value());
  ASSERT_TRUE(r2.timing.has_value());
  // Each waiter gets its own id back even though one execution served
  // both; provenance tells the joiner its spans live under the initiator.
  EXPECT_EQ(r1.timing->trace_id, 111u);
  EXPECT_EQ(r2.timing->trace_id, 222u);
  ASSERT_EQ(r1.coalesced() + r2.coalesced(), 1);
  const auto& joiner = r1.coalesced() ? *r1.timing : *r2.timing;
  const auto& initiator = r1.coalesced() ? *r2.timing : *r1.timing;
  EXPECT_EQ(joiner.source, 2);
  EXPECT_EQ(initiator.source, 0);
  // Both carry the single execution's timing.
  EXPECT_EQ(joiner.exec_us, initiator.exec_us);
}

TEST(NetServer, HttpNonGetGetsClean405) {
  Loopback lb;
  for (const char* method : {"POST", "HEAD", "PUT", "DELETE"}) {
    std::string head;
    const auto r = http_get("127.0.0.1", lb.server->port(), "/metrics", 10.0,
                            &head, method);
    ASSERT_TRUE(r.ok()) << method << ": " << r.error().message;
    EXPECT_NE(head.find("405"), std::string::npos) << method;
    EXPECT_NE(head.find("Allow: GET"), std::string::npos) << method;
    EXPECT_EQ(r.value(), "method not allowed\n") << method;
  }
}

TEST(NetServer, HttpOversizedHeaderCloses) {
  Loopback lb;
  auto c = lb.client();
  // An HTTP request line that never terminates must not buffer forever.
  std::string bytes = "GET /";
  bytes.append(9000, 'a');
  ASSERT_TRUE(c->send_raw(bytes));
  EXPECT_FALSE(c->read_frame().has_value());  // server closed
}

TEST(NetServer, StatuszSchema) {
  Loopback lb;
  ASSERT_TRUE(lb.client()->search(search_request()).ok());

  const auto body = http_get("127.0.0.1", lb.server->port(), "/statusz");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto parsed = Json::parse(body.value());
  ASSERT_TRUE(parsed.has_value()) << body.value();
  const Json& doc = *parsed;

  ASSERT_TRUE(doc["build"].is_object());
  EXPECT_TRUE(doc["build"]["version"].is_string());
  EXPECT_TRUE(doc["build"]["compiler"].is_string());
  // 64-bit identities travel as decimal strings (JSON numbers are
  // doubles); the epoch must match the serving database bit-exactly.
  ASSERT_TRUE(doc["db_epoch"].is_string());
  EXPECT_EQ(doc["db_epoch"].as_string(),
            std::to_string(lb.server->db_epoch()));
  EXPECT_EQ(doc["port"].as_number(),
            static_cast<double>(lb.server->port()));
  EXPECT_GE(doc["uptime_s"].as_number(), 0.0);
  EXPECT_FALSE(doc["draining"].as_bool());

  ASSERT_TRUE(doc["options"].is_object());
  EXPECT_TRUE(doc["options"]["serve"].is_object());
  EXPECT_TRUE(doc["options"]["queue"].is_object());
  // Metric values come from the embedded /metrics?format=json document.
  const Json& m = doc["metrics"];
  ASSERT_TRUE(m.is_object());
  double completed = 0;
  for (const Json& s : m["requests_completed_total"].as_array())
    completed += s["value"].as_number();
  EXPECT_GE(completed, 1.0);
  ASSERT_TRUE(doc["cache"].is_object());
  EXPECT_GT(doc["cache"]["capacity"].as_number(), 0.0);
  EXPECT_TRUE(doc["coalesce"].is_object());
  ASSERT_TRUE(m["tier_requests_total"].is_array());
  EXPECT_FALSE(m["tier_requests_total"].as_array().empty());
  EXPECT_TRUE(m["log_records_total"].is_number());
}

// A FASTA or synthetic database has no stored fingerprint; the server
// computes one, and /statusz reports it exactly once.
TEST(NetServer, StatuszCarriesOneDbEpoch) {
  Loopback lb;  // synthetic database, packed in-process
  ASSERT_NE(lb.server->db_epoch(), 0u);
  const std::string epoch = std::to_string(lb.server->db_epoch());

  const auto body = http_get("127.0.0.1", lb.server->port(), "/statusz");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto doc = Json::parse(body.value());
  ASSERT_TRUE(doc.has_value()) << body.value();
  EXPECT_EQ((*doc)["db_epoch"].as_string(), epoch);
  const size_t first = body.value().find(epoch);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(body.value().find(epoch, first + 1), std::string::npos)
      << body.value();

  const auto metrics =
      http_get("127.0.0.1", lb.server->port(), "/metrics?format=json");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().find(epoch), std::string::npos);
}

TEST(NetServer, ConnzSchema) {
  Loopback lb;
  auto c = lb.client();  // one live binary connection
  ASSERT_TRUE(c->ping().ok());

  const auto body = http_get("127.0.0.1", lb.server->port(), "/connz");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto parsed = Json::parse(body.value());
  ASSERT_TRUE(parsed.has_value()) << body.value();
  const Json& doc = *parsed;

  ASSERT_TRUE(doc["connections"].is_array());
  EXPECT_GE(doc["active"].as_number(), 2.0);  // the client + this scrape
  EXPECT_FALSE(doc["draining"].as_bool());
  bool saw_binary = false, saw_http = false;
  for (const Json& e : doc["connections"].as_array()) {
    EXPECT_TRUE(e["id"].is_string());
    EXPECT_NE(e["peer"].as_string().find("127.0.0.1"), std::string::npos);
    EXPECT_GE(e["age_s"].as_number(), 0.0);
    const std::string& proto = e["protocol"].as_string();
    saw_binary = saw_binary || proto == "swv1";
    saw_http = saw_http || proto == "http";
    EXPECT_TRUE(e["frames_rx"].is_number());
    EXPECT_TRUE(e["bytes_tx"].is_number());
  }
  EXPECT_TRUE(saw_binary) << body.value();
  EXPECT_TRUE(saw_http) << body.value();  // the /connz scrape sees itself
}

TEST(NetServer, VarzServesTelemetryHistory) {
  service::ServiceOptions opt;
  opt.serve.telemetry_cadence_s = 0.05;  // fast ticks so the test is quick
  opt.serve.telemetry_retention_s = 10.0;
  Loopback lb(opt);
  // Ticks until the history holds `n` points.
  const auto wait_for_points = [&](size_t n) {
    for (int i = 0; i < 200 && lb.svc->timeseries()->size() < n; ++i)
      std::this_thread::sleep_for(milliseconds(20));
    return lb.svc->timeseries()->size() >= n;
  };
  // The first tick only seeds the baseline; search after it, so a point
  // holds the completion. The client stays connected, so the ticks after
  // its search see it.
  ASSERT_TRUE(wait_for_points(1));
  const auto client = lb.client();
  ASSERT_TRUE(client->search(search_request()).ok());
  // Two more: a tick that read its snapshot before the search completed
  // may land after it.
  ASSERT_TRUE(wait_for_points(lb.svc->timeseries()->size() + 2));

  const auto body = http_get("127.0.0.1", lb.server->port(), "/varz");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto parsed = Json::parse(body.value());
  ASSERT_TRUE(parsed.has_value()) << body.value();
  const Json& doc = *parsed;
  EXPECT_NEAR(doc["cadence_s"].as_number(), 0.05, 1e-9);
  EXPECT_GT(doc["capacity"].as_number(), 0.0);
  ASSERT_TRUE(doc["points"].is_array());
  ASSERT_GE(doc["points"].as_array().size(), 2u);
  const Json& p = doc["points"].as_array().back();
  EXPECT_TRUE(p["t_s"].is_number());
  EXPECT_GT(p["dt_s"].as_number(), 0.0);
  EXPECT_TRUE(p["requests_completed_total"].is_array());
  EXPECT_TRUE(p["tier_latency_seconds"].is_array());
  EXPECT_TRUE(p["query_length_requests_total"].is_array());
  EXPECT_TRUE(p["queue_depth"].is_number());
  // The server's own gauges reach the sampler's snapshot too.
  EXPECT_GE(p["server_active_connections"].as_number(), 1.0) << p.dump();
  // Some point saw the search complete.
  double completed = 0;
  for (const Json& q : doc["points"].as_array())
    for (const Json& s : q["requests_completed_total"].as_array())
      completed += s["value"].as_number();
  EXPECT_EQ(completed, 1.0);

  // Under search traffic a stored point stays small: an encoded window, no
  // strings and no snapshot copy.
  for (const obs::TimeSeriesPoint& stored : lb.svc->timeseries()->points())
    EXPECT_LE(sizeof stored + stored.window.capacity(), 2048u);

  // series= narrows the payload to the named families; window= bounds it;
  // both validated.
  const auto narrow = http_get(
      "127.0.0.1", lb.server->port(),
      "/varz?series=requests_completed_total,result_cache_lookups_total&"
      "window=60");
  ASSERT_TRUE(narrow.ok());
  const auto ndoc = Json::parse(narrow.value());
  ASSERT_TRUE(ndoc.has_value()) << narrow.value();
  const Json& np = (*ndoc)["points"].as_array().back();
  EXPECT_TRUE(np["requests_completed_total"].is_array());
  EXPECT_TRUE(np["result_cache_lookups_total"].is_array());
  EXPECT_TRUE(np["pmu_ipc"].is_null());
  EXPECT_TRUE(np["query_length_requests_total"].is_null());

  std::string head;
  const auto bad = http_get("127.0.0.1", lb.server->port(),
                            "/varz?series=bogus", 10.0, &head);
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(head.find("400"), std::string::npos) << head;
  EXPECT_NE(bad.value().find("unknown series: bogus"), std::string::npos);
}

TEST(NetServer, VarzUnavailableWhenTelemetryDisabled) {
  service::ServiceOptions opt;
  opt.serve.telemetry_cadence_s = 0;  // history, /varz, and SLO all off
  Loopback lb(opt);
  EXPECT_EQ(lb.svc->timeseries(), nullptr);
  EXPECT_EQ(lb.svc->slo(), nullptr);
  std::string head;
  const auto r =
      http_get("127.0.0.1", lb.server->port(), "/varz", 10.0, &head);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(head.find("503"), std::string::npos) << head;
}

TEST(NetServer, StatuszCarriesSloAndTelemetryKnobs) {
  service::ServiceOptions opt;
  opt.serve.telemetry_cadence_s = 0.05;
  opt.serve.tracez_capacity = 7;
  opt.obs.slo.latency_target_s = 10.0;  // generous: stays ok
  Loopback lb(opt);
  ASSERT_TRUE(lb.client()->search(search_request()).ok());

  const auto body = http_get("127.0.0.1", lb.server->port(), "/statusz");
  ASSERT_TRUE(body.ok()) << body.error().message;
  const auto parsed = Json::parse(body.value());
  ASSERT_TRUE(parsed.has_value()) << body.value();
  const Json& doc = *parsed;
  EXPECT_EQ(doc["options"]["serve"]["tracez_capacity"].as_number(), 7.0);
  EXPECT_NEAR(doc["options"]["serve"]["telemetry_cadence_s"].as_number(),
              0.05, 1e-9);
  ASSERT_TRUE(doc["telemetry"].is_object());
  EXPECT_TRUE(doc["telemetry"]["samples"].is_number());
  ASSERT_TRUE(doc["slo"].is_object()) << body.value();
  EXPECT_EQ(doc["slo"]["state"].as_string(), "ok");
  EXPECT_TRUE(doc["slo"]["latency"].is_object());
  EXPECT_TRUE(doc["slo"]["availability"].is_object());

  // The Prometheus scrape carries the same alert state as gauges.
  const auto prom = http_get("127.0.0.1", lb.server->port(), "/metrics");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().find("swve_slo_state 0"), std::string::npos);
  EXPECT_NE(prom.value().find("swve_slo_burn_rate{objective=\"latency\""),
            std::string::npos);
}

TEST(NetServer, TracezCapacityKnobIsValidated) {
  service::ServiceOptions opt;
  opt.serve.tracez_capacity = 0;
  EXPECT_FALSE(opt.try_validate().ok());
  opt.serve.tracez_capacity = 32;
  opt.serve.telemetry_cadence_s = 1.0;
  opt.serve.telemetry_retention_s = 0.5;  // shorter than one tick
  EXPECT_FALSE(opt.try_validate().ok());
  opt.serve.telemetry_retention_s = 600;
  opt.obs.slo.latency_objective = 1.0;  // budget would be zero
  EXPECT_FALSE(opt.try_validate().ok());
  opt.obs.slo.latency_objective = 0.99;
  EXPECT_TRUE(opt.try_validate().ok());
}

TEST(NetServer, PingAndBinaryMetrics) {
  Loopback lb;
  auto c = lb.client();
  EXPECT_TRUE(c->ping().ok());
  const auto prom = c->metrics(false);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.response->find("swve_build_info"), std::string::npos);
  const auto json = c->metrics(true);
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(Json::parse(*json.response).has_value());
}

}  // namespace
}  // namespace swve::net
