// Protocol v1 codecs (net/protocol.hpp) and the debug-mode JSON layer:
// header and payload round-trips, deterministic re-encoding (the
// result-cache contract), rejection of truncated / fuzzed / oversized
// payloads, cache-key semantics, and the ResultCache/Singleflight
// coalescing substrate.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "matrix/score_matrix.hpp"
#include "net/coalesce.hpp"
#include "net/json.hpp"
#include "net/protocol.hpp"
#include "seq/synthetic.hpp"

namespace swve::net {
namespace {

using service::AlignRequest;
using service::BatchRequest;
using service::SearchRequest;

seq::Sequence make_seq(uint64_t seed, uint32_t len) {
  return seq::generate_sequence(seed, len);
}

std::vector<uint8_t> codes_of(const seq::Sequence& s) {
  return {s.codes().begin(), s.codes().end()};
}

AlignRequest make_align_request() {
  AlignRequest rq;
  rq.query = make_seq(1, 60);
  rq.reference = make_seq(2, 90);
  rq.options.traceback = true;
  rq.options.top_k = 7;
  rq.options.tier = service::QosTier::Interactive;
  core::AlignConfig cfg;
  cfg.matrix = matrix::ScoreMatrix::find("blosum50");
  cfg.gap_open = 10;
  cfg.gap_extend = 2;
  rq.options.config = cfg;
  return rq;
}

SearchRequest make_search_request() {
  SearchRequest rq;
  rq.query = make_seq(3, 120);
  rq.mode = align::SearchMode::Batch;
  rq.options.top_k = 5;
  return rq;
}

BatchRequest make_batch_request() {
  BatchRequest rq;
  rq.queries = {make_seq(4, 40), make_seq(5, 80), make_seq(6, 120)};
  rq.options.top_k = 3;
  return rq;
}

// ------------------------------------------------------------------ header

TEST(NetProtocol, HeaderRoundTrip) {
  FrameHeader h;
  h.type = MsgType::SearchRequest;
  h.flags = kFlagNoCache | kFlagJson;
  h.tier = 2;
  h.status = 5;
  h.request_id = 0x1122334455667788ull;
  h.payload_len = 12345;

  std::string bytes;
  encode_header(bytes, h);
  ASSERT_EQ(bytes.size(), kHeaderSize);

  const auto back = decode_header(reinterpret_cast<const uint8_t*>(bytes.data()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, h.type);
  EXPECT_EQ(back->flags, h.flags);
  EXPECT_EQ(back->tier, h.tier);
  EXPECT_EQ(back->status, h.status);
  EXPECT_EQ(back->request_id, h.request_id);
  EXPECT_EQ(back->payload_len, h.payload_len);
}

TEST(NetProtocol, HeaderRejectsBadMagic) {
  std::string bytes;
  encode_header(bytes, FrameHeader{});
  bytes[0] ^= 0x5a;
  EXPECT_FALSE(
      decode_header(reinterpret_cast<const uint8_t*>(bytes.data())));
}

// ---------------------------------------------------------- request codecs

TEST(NetProtocol, AlignRequestRoundTrip) {
  const AlignRequest rq = make_align_request();
  std::string payload;
  encode_align_request(payload, rq);
  const auto back = decode_align_request(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(codes_of(back->query), codes_of(rq.query));
  EXPECT_EQ(codes_of(back->reference), codes_of(rq.reference));
  EXPECT_EQ(back->options.top_k, rq.options.top_k);
  EXPECT_EQ(back->options.traceback, rq.options.traceback);
  ASSERT_TRUE(back->options.config.has_value());
  EXPECT_EQ(back->options.config->matrix, rq.options.config->matrix);
  EXPECT_EQ(back->options.config->gap_open, rq.options.config->gap_open);

  // Re-encoding the decoded request reproduces the bytes exactly — the
  // property cache keys rely on.
  std::string again;
  encode_align_request(again, *back);
  EXPECT_EQ(again, payload);
}

TEST(NetProtocol, SearchRequestRoundTrip) {
  const SearchRequest rq = make_search_request();
  std::string payload;
  encode_search_request(payload, rq);
  const auto back = decode_search_request(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(codes_of(back->query), codes_of(rq.query));
  EXPECT_EQ(back->mode, rq.mode);
  EXPECT_EQ(back->options.top_k, rq.options.top_k);
}

TEST(NetProtocol, BatchRequestRoundTrip) {
  const BatchRequest rq = make_batch_request();
  std::string payload;
  encode_batch_request(payload, rq);
  const auto back = decode_batch_request(payload);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->queries.size(), rq.queries.size());
  for (size_t i = 0; i < rq.queries.size(); ++i)
    EXPECT_EQ(codes_of(back->queries[i]), codes_of(rq.queries[i]));
}

/// A two-query batch response whose every field is set; each query's
/// batch_stats is what the v1 trailer after its search result carries.
service::BatchResponse make_batch_response() {
  service::BatchResponse r;
  r.results.resize(2);
  align::SearchResult& a = r.results[0];
  a.query_length = 120;
  a.db_residues = 50000;
  a.seconds = 0.125;
  a.stats.cells = 6000123;
  a.stats.vector_cells = 6000000;
  a.batch_stats = {6144000, 6000000, 2, 123};
  a.hits = {{17, 88, -1, -1}, {4, 61, -1, -1}};
  align::SearchResult& b = r.results[1];
  b.query_length = 80;
  b.db_residues = 50000;
  b.seconds = 0.125;
  b.stats.cells = 4096000;
  b.stats.vector_cells = 4096000;
  b.batch_stats = {4096000, 4000000, 0, 0};
  b.hits = {{9, 45, -1, -1}};
  r.trace.scenario = service::Scenario::Batch;
  r.trace.queue_wait_s = 0.0005;
  r.trace.kernel_s = 0.125;
  r.trace.cells = 10096123;
  r.trace.isa = simd::Isa::Avx2;
  r.trace.delivery = core::ScoreDelivery::Fill;
  r.trace.width_used = core::Width::W8;
  r.trace.saturation_retries = 2;
  return r;
}

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex += kDigits[static_cast<uint8_t>(c) >> 4];
    hex += kDigits[static_cast<uint8_t>(c) & 15];
  }
  return hex;
}

TEST(NetProtocol, BatchResponseRoundTrip) {
  const service::BatchResponse r = make_batch_response();
  std::string payload;
  encode_batch_response(payload, r);
  const auto back = decode_batch_response(payload);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->results.size(), r.results.size());
  for (size_t q = 0; q < r.results.size(); ++q) {
    const align::SearchResult& want = r.results[q];
    const align::SearchResult& got = back->results[q];
    EXPECT_EQ(got.query_length, want.query_length) << q;
    EXPECT_EQ(got.db_residues, want.db_residues) << q;
    EXPECT_EQ(got.seconds, want.seconds) << q;
    EXPECT_EQ(got.stats.cells, want.stats.cells) << q;
    EXPECT_EQ(got.stats.vector_cells, want.stats.vector_cells) << q;
    EXPECT_EQ(got.batch_stats.cells8, want.batch_stats.cells8) << q;
    EXPECT_EQ(got.batch_stats.useful_cells8, want.batch_stats.useful_cells8);
    EXPECT_EQ(got.batch_stats.rescored, want.batch_stats.rescored) << q;
    EXPECT_EQ(got.batch_stats.rescored_cells, want.batch_stats.rescored_cells);
    EXPECT_EQ(got.truncated, want.truncated) << q;
    ASSERT_EQ(got.hits.size(), want.hits.size()) << q;
    for (size_t k = 0; k < want.hits.size(); ++k) {
      EXPECT_EQ(got.hits[k].seq_index, want.hits[k].seq_index);
      EXPECT_EQ(got.hits[k].score, want.hits[k].score);
      EXPECT_EQ(got.hits[k].end_query, want.hits[k].end_query);
      EXPECT_EQ(got.hits[k].end_ref, want.hits[k].end_ref);
    }
  }
  EXPECT_EQ(back->trace.cells, r.trace.cells);
  EXPECT_EQ(back->trace.saturation_retries, r.trace.saturation_retries);
  // Re-encoding is byte-identical (the result-cache contract).
  std::string again;
  encode_batch_response(again, *back);
  EXPECT_EQ(again, payload);
  for (size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(decode_batch_response(std::string_view(payload).substr(0, n)))
        << "batch response prefix " << n;
}

TEST(NetProtocol, BatchResponseBytesAreRecorded) {
  // make_batch_response() as encoded by the server generation whose batch
  // results carried batch_stats only in the per-query trailer (its inner
  // batch_stats set to the same values). Protocol v1 keeps these bytes.
  constexpr const char kRecorded[] =
      "0200000000780000000000000050c3000000000000000000000000c03ffb8d5b"
      "0000000000808d5b00000000000000000000000000000000000000000000c05d"
      "0000000000808d5b000000000002000000000000007b00000000000000020000"
      "001100000058000000ffffffffffffffff040000003d000000ffffffffffffff"
      "ff00c05d0000000000808d5b000000000002000000000000007b000000000000"
      "0000500000000000000050c3000000000000000000000000c03f00803e000000"
      "000000803e00000000000000000000000000000000000000000000803e000000"
      "000000093d000000000000000000000000000000000000000000010000000900"
      "00002d000000ffffffffffffffff00803e000000000000093d00000000000000"
      "000000000000000000000000000002fca9f1d24d62403f000000000000c03ffb"
      "0d9a00000000000302000200000000000000";
  std::string payload;
  encode_batch_response(payload, make_batch_response());
  EXPECT_EQ(to_hex(payload), kRecorded);

  // A server that sent zeros inside the search result still decodes, with
  // batch_stats taken from the trailer.
  std::string old = payload;
  const size_t inner = 4 + 1 + 8 * 7;  // count, truncated, 7 u64/f64 fields
  std::memset(old.data() + inner, 0, 32);
  const auto back = decode_batch_response(old);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->results[0].batch_stats.cells8, 6144000u);
  EXPECT_EQ(back->results[0].batch_stats.rescored_cells, 123u);
}

TEST(NetProtocol, EveryTruncationIsRejected) {
  std::string align_p, search_p, batch_p;
  encode_align_request(align_p, make_align_request());
  encode_search_request(search_p, make_search_request());
  encode_batch_request(batch_p, make_batch_request());

  for (size_t n = 0; n < align_p.size(); ++n)
    EXPECT_FALSE(decode_align_request(std::string_view(align_p).substr(0, n)))
        << "align prefix " << n;
  for (size_t n = 0; n < search_p.size(); ++n)
    EXPECT_FALSE(
        decode_search_request(std::string_view(search_p).substr(0, n)))
        << "search prefix " << n;
  for (size_t n = 0; n < batch_p.size(); ++n)
    EXPECT_FALSE(decode_batch_request(std::string_view(batch_p).substr(0, n)))
        << "batch prefix " << n;
}

TEST(NetProtocol, FuzzedPayloadsNeverCrash) {
  // Deterministic xorshift mutations of a valid payload plus pure-noise
  // buffers: every decode must return cleanly (usually nullopt, never UB).
  std::string base;
  encode_batch_request(base, make_batch_request());

  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    const int flips = 1 + static_cast<int>(rnd() % 8);
    for (int f = 0; f < flips; ++f)
      mutated[rnd() % mutated.size()] ^= static_cast<char>(rnd() & 0xff);
    (void)decode_batch_request(mutated);
    (void)decode_search_request(mutated);
    (void)decode_align_request(mutated);
  }
  for (int iter = 0; iter < 200; ++iter) {
    std::string noise(rnd() % 512, '\0');
    for (auto& b : noise) b = static_cast<char>(rnd() & 0xff);
    (void)decode_batch_request(noise);
    (void)decode_search_request(noise);
    (void)decode_align_request(noise);
    (void)decode_align_response(noise);
    (void)decode_search_response(noise);
    (void)decode_batch_response(noise);
  }
}

TEST(NetProtocol, HugeCountFieldIsRejectedWithoutAllocating) {
  // A hostile batch payload claiming 2^32-1 queries in a tiny buffer must
  // fail the count-vs-remaining sanity check, not try to reserve memory.
  std::string payload;
  payload.append("\xff\xff\xff\xff", 4);  // u32 query count
  payload.append(16, '\0');
  EXPECT_FALSE(decode_batch_request(payload));
}

// ----------------------------------------------------------------- JSON

TEST(NetJson, ParseAndDump) {
  const auto doc = Json::parse(R"({"b":true,"n":3.5,"s":"x\n","a":[1,2]})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE((*doc)["b"].as_bool());
  EXPECT_DOUBLE_EQ((*doc)["n"].as_number(), 3.5);
  EXPECT_EQ((*doc)["s"].as_string(), "x\n");
  ASSERT_TRUE((*doc)["a"].is_array());
  EXPECT_EQ((*doc)["a"].as_array().size(), 2u);

  const auto again = Json::parse(doc->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), doc->dump());
}

TEST(NetJson, RejectsTrailingGarbageAndDeepNesting) {
  EXPECT_FALSE(Json::parse("{} trailing"));
  EXPECT_FALSE(Json::parse("{\"a\":}"));
  EXPECT_FALSE(Json::parse(""));
  std::string deep(64, '[');
  deep += std::string(64, ']');
  EXPECT_FALSE(Json::parse(deep));  // depth limit 32
}

TEST(NetJson, AlignRequestFromJson) {
  const auto rq = decode_align_request_json(
      R"({"query":"MKVLA","ref":"MKVLAW","traceback":true,"top_k":4,)"
      R"("config":{"matrix":"blosum62","gap_open":11,"gap_extend":1}})");
  ASSERT_TRUE(rq.has_value());
  EXPECT_EQ(rq->query.length(), 5u);
  EXPECT_EQ(rq->reference.length(), 6u);
  EXPECT_EQ(rq->options.top_k, 4u);
  ASSERT_TRUE(rq->options.config.has_value());
  EXPECT_EQ(rq->options.config->matrix, matrix::ScoreMatrix::find("blosum62"));
  EXPECT_FALSE(decode_align_request_json("{\"query\":17}"));
  EXPECT_FALSE(decode_align_request_json("not json"));
}

TEST(NetProtocol, ErrorPayloadFormats) {
  const std::string bin =
      error_payload(service::ServiceStatus::QueueFull, "try later", false);
  EXPECT_EQ(bin, "try later");
  const std::string js =
      error_payload(service::ServiceStatus::QueueFull, "try later", true);
  const auto doc = Json::parse(js);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ((*doc)["status"].as_string(), "queue_full");
  EXPECT_EQ((*doc)["message"].as_string(), "try later");
}

// ------------------------------------------------------------- cache keys

TEST(NetCacheKey, IdentityAndSensitivity) {
  const SearchRequest rq = make_search_request();
  const uint64_t epoch = 42;
  const uint64_t key = cache_key(rq, epoch);
  EXPECT_EQ(cache_key(rq, epoch), key);  // deterministic

  // Result-affecting fields change the key...
  SearchRequest other = rq;
  other.query = make_seq(99, 120);
  EXPECT_NE(cache_key(other, epoch), key);
  other = rq;
  other.options.top_k = 6;
  EXPECT_NE(cache_key(other, epoch), key);
  EXPECT_NE(cache_key(rq, epoch + 1), key);  // different database

  // ...scheduling-only fields do not: tier and deadline shape when a
  // request runs, never what it returns.
  other = rq;
  other.options.tier = service::QosTier::Bulk;
  other.options.deadline = std::chrono::seconds(1);
  EXPECT_EQ(cache_key(other, epoch), key);
  // Nor does the search-mode byte: the engine follows from the config
  // and the packed lanes, with the same response for either mode.
  other = rq;
  other.mode = align::SearchMode::Diagonal;
  EXPECT_EQ(cache_identity(other, epoch), cache_identity(rq, epoch));
}

TEST(NetCacheKey, ScenariosNeverCollide) {
  // An align and a search request over the same bytes must key apart.
  AlignRequest a;
  a.query = make_seq(7, 50);
  a.reference = make_seq(8, 50);
  SearchRequest s;
  s.query = make_seq(7, 50);
  EXPECT_NE(cache_key(a, 1), cache_key(s, 1));
}

TEST(NetCacheKey, DatabaseEpochTracksContent) {
  seq::SyntheticConfig cfg;
  cfg.target_residues = 20'000;
  cfg.seed = 1;
  const auto db1 = seq::SequenceDatabase::synthetic(cfg);
  const auto db1b = seq::SequenceDatabase::synthetic(cfg);
  cfg.seed = 2;
  const auto db2 = seq::SequenceDatabase::synthetic(cfg);
  EXPECT_EQ(database_epoch(db1), database_epoch(db1b));
  EXPECT_NE(database_epoch(db1), database_epoch(db2));
}

// ------------------------------------------------------------- coalescing

TEST(NetCoalesce, ResultCacheLruEviction) {
  ResultCache cache(2);
  const auto resp = [](const char* p) {
    CachedResponse r;
    r.payload = p;
    return r;
  };
  EXPECT_EQ(cache.put(1, "id1", resp("one")), 0u);
  EXPECT_EQ(cache.put(2, "id2", resp("two")), 0u);
  ASSERT_NE(cache.get(1, "id1"), nullptr);  // refreshes 1; 2 becomes LRU
  EXPECT_EQ(cache.put(3, "id3", resp("three")), 1u);
  EXPECT_EQ(cache.get(2, "id2"), nullptr);  // evicted
  ASSERT_NE(cache.get(1, "id1"), nullptr);
  EXPECT_EQ(cache.get(1, "id1")->payload, "one");
  ASSERT_NE(cache.get(3, "id3"), nullptr);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(NetCoalesce, ResultCacheVerifiesIdentityNotJustKey) {
  // A crafted request colliding on the 64-bit key must read as a miss, not
  // be served another request's cached response.
  ResultCache cache(4);
  CachedResponse r;
  r.payload = "victim";
  EXPECT_EQ(cache.put(1, "victim-request", r), 0u);
  EXPECT_EQ(cache.get(1, "attacker-request"), nullptr);
  ASSERT_NE(cache.get(1, "victim-request"), nullptr);  // intact

  // Publishing under a colliding key replaces the entry wholesale; the old
  // identity no longer matches.
  CachedResponse r2;
  r2.payload = "other";
  EXPECT_EQ(cache.put(1, "attacker-request", r2), 0u);
  EXPECT_EQ(cache.get(1, "victim-request"), nullptr);
  EXPECT_EQ(cache.get(1, "attacker-request")->payload, "other");
}

TEST(NetCoalesce, ZeroCapacityCacheIsDisabled) {
  ResultCache cache(0);
  CachedResponse r;
  r.payload = "x";
  EXPECT_EQ(cache.put(1, "id", r), 0u);
  EXPECT_EQ(cache.get(1, "id"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(NetCoalesce, SingleflightJoinsAndCompletes) {
  using Join = Singleflight::Join;
  Singleflight sf;
  EXPECT_EQ(sf.join(10, "a", FlightWaiter{1, 100, false, false}),
            Join::Started);
  EXPECT_EQ(sf.join(10, "a", FlightWaiter{2, 200, false, false}),
            Join::Joined);
  EXPECT_EQ(sf.join(10, "a", FlightWaiter{3, 300, false, false}),
            Join::Joined);
  EXPECT_EQ(sf.join(11, "b", FlightWaiter{1, 101, false, false}),
            Join::Started);
  EXPECT_EQ(sf.inflight(), 2u);

  sf.drop_connection(2);  // disconnect one waiter; the flight stays live
  const auto waiters = sf.complete(10);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_TRUE(waiters[0].initiator);
  EXPECT_EQ(waiters[0].request_id, 100u);
  EXPECT_FALSE(waiters[1].initiator);
  EXPECT_EQ(waiters[1].request_id, 300u);
  EXPECT_EQ(sf.inflight(), 1u);
  EXPECT_TRUE(sf.complete(999).empty());  // unknown key is harmless
}

TEST(NetCoalesce, SingleflightRejectsCollidingJoin) {
  using Join = Singleflight::Join;
  Singleflight sf;
  EXPECT_EQ(sf.join(10, "victim-request", FlightWaiter{1, 100, false, false}),
            Join::Started);
  // Same key, different identity bytes: must NOT be coalesced onto the
  // victim's execution — and must not corrupt the victim's waiter list.
  EXPECT_EQ(
      sf.join(10, "attacker-request", FlightWaiter{2, 200, false, false}),
      Join::Mismatch);
  const auto waiters = sf.complete(10);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].conn_id, 1u);
}

TEST(NetProtocol, TraceContextRoundTrip) {
  WireTraceContext ctx;
  ctx.trace_id = 0xDEADBEEFCAFEF00Dull;
  ctx.sampled = true;
  std::string bytes;
  encode_trace_context(bytes, ctx);
  ASSERT_EQ(bytes.size(), kTraceContextSize);

  // Prefix position: whatever follows the context must be left in place.
  bytes += "request-bytes";
  std::string_view view = bytes;
  const auto back = decode_trace_context(view);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, ctx.trace_id);
  EXPECT_TRUE(back->sampled);
  EXPECT_EQ(view, "request-bytes");

  // The sampled bit survives off as well.
  std::string off;
  encode_trace_context(off, WireTraceContext{7, false});
  std::string_view offv = off;
  const auto back2 = decode_trace_context(offv);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->trace_id, 7u);
  EXPECT_FALSE(back2->sampled);
  EXPECT_TRUE(offv.empty());
}

TEST(NetProtocol, TraceContextRejectsShortOrZeroId) {
  std::string bytes;
  encode_trace_context(bytes, WireTraceContext{42, true});
  for (size_t n = 0; n < kTraceContextSize; ++n) {
    std::string_view view(bytes.data(), n);
    EXPECT_FALSE(decode_trace_context(view).has_value()) << n;
    EXPECT_EQ(view.size(), n);  // untouched on failure
  }
  // trace_id 0 is the "no trace" sentinel and must not decode.
  std::string zero;
  encode_trace_context(zero, WireTraceContext{0, true});
  std::string_view zv = zero;
  EXPECT_FALSE(decode_trace_context(zv).has_value());
  EXPECT_EQ(zv.size(), kTraceContextSize);
}

TEST(NetProtocol, ServerTimingRoundTrip) {
  ServerTiming t;
  t.trace_id = 0x1122334455667788ull;
  t.queue_us = 1234;
  t.exec_us = 567890;
  t.serialize_us = 17;
  t.source = 2;
  // Trailer position: the response payload precedes it and must survive.
  std::string bytes = "response-bytes";
  encode_server_timing(bytes, t);
  ASSERT_EQ(bytes.size(), 14 + kServerTimingSize);

  std::string_view view = bytes;
  const auto back = decode_server_timing(view);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, t.trace_id);
  EXPECT_EQ(back->queue_us, t.queue_us);
  EXPECT_EQ(back->exec_us, t.exec_us);
  EXPECT_EQ(back->serialize_us, t.serialize_us);
  EXPECT_EQ(back->source, t.source);
  EXPECT_EQ(view, "response-bytes");
}

TEST(NetProtocol, ServerTimingRejectsTruncation) {
  std::string bytes;
  encode_server_timing(bytes, ServerTiming{9, 1, 2, 3, 0});
  for (size_t n = 0; n < kServerTimingSize; ++n) {
    std::string_view view(bytes.data(), n);
    EXPECT_FALSE(decode_server_timing(view).has_value()) << n;
    EXPECT_EQ(view.size(), n);
  }
}

TEST(NetCacheKey, IdentityBytesMatchKey) {
  const SearchRequest rq = make_search_request();
  const std::string id = cache_identity(rq, 42);
  EXPECT_FALSE(id.empty());
  EXPECT_EQ(cache_key(std::string_view(id)), cache_key(rq, 42));
  // Scheduling-only fields leave the identity bytes unchanged too.
  SearchRequest other = rq;
  other.options.tier = service::QosTier::Bulk;
  other.options.deadline = std::chrono::seconds(1);
  EXPECT_EQ(cache_identity(other, 42), id);
}

}  // namespace
}  // namespace swve::net
