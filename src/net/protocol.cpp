#include "net/protocol.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "core/db_format.hpp"
#include "net/json.hpp"

namespace swve::net {

namespace {

using service::AlignRequest;
using service::AlignResponse;
using service::BatchRequest;
using service::BatchResponse;
using service::RequestOptions;
using service::RequestTrace;
using service::SearchRequest;
using service::SearchResponse;

// --------------------------------------------------------- wire primitives

void put_u8(std::string& out, uint8_t v) { out += static_cast<char>(v); }

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_i32(std::string& out, int32_t v) {
  put_u32(out, static_cast<uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_bytes(std::string& out, const void* data, size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// Bounds-checked little-endian reader; every accessor reports failure
/// instead of reading past the payload (the fuzz tests drive this hard).
struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  explicit Reader(std::string_view s)
      : p(reinterpret_cast<const uint8_t*>(s.data())), end(p + s.size()) {}

  size_t remaining() const { return static_cast<size_t>(end - p); }

  bool u8(uint8_t& v) {
    if (remaining() < 1) return false;
    v = *p++;
    return true;
  }
  bool u32(uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(*p++) << (8 * i);
    return true;
  }
  bool u64(uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(*p++) << (8 * i);
    return true;
  }
  bool i32(int32_t& v) {
    uint32_t u;
    if (!u32(u)) return false;
    v = static_cast<int32_t>(u);
    return true;
  }
  bool f64(double& v) {
    uint64_t bits;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
  bool bytes(const uint8_t*& out, size_t n) {
    if (remaining() < n) return false;
    out = p;
    p += n;
    return true;
  }
  bool done() const { return p == end; }
};

// ------------------------------------------------------- config + options

void encode_config(std::string& out, const std::optional<core::AlignConfig>& c) {
  if (!c) {
    put_u8(out, 0);
    return;
  }
  put_u8(out, 1);
  put_u8(out, static_cast<uint8_t>(c->scheme));
  put_u8(out, static_cast<uint8_t>(c->delivery));
  put_u8(out, static_cast<uint8_t>(c->gap_model));
  put_u8(out, static_cast<uint8_t>(c->width));
  put_u8(out, static_cast<uint8_t>(c->isa));
  put_u8(out, c->traceback ? 1 : 0);
  put_i32(out, c->match);
  put_i32(out, c->mismatch);
  put_i32(out, c->gap_open);
  put_i32(out, c->gap_extend);
  put_i32(out, c->band);
  put_u64(out, c->max_traceback_cells);
  const std::string name =
      c->scheme == core::ScoreScheme::Matrix && c->matrix != nullptr
          ? c->matrix->name()
          : std::string();
  put_u8(out, static_cast<uint8_t>(name.size() < 255 ? name.size() : 255));
  put_bytes(out, name.data(), name.size() < 255 ? name.size() : 255);
}

// Protocol v1's ISA bytes: 0 auto, 1 scalar, 3 avx2, 4 avx512. Byte 2 named
// a retired 128-bit tier and is rejected like any out-of-range byte.
bool isa_byte_ok(uint8_t isa) { return isa <= 4 && isa != 2; }

bool decode_config(Reader& r, std::optional<core::AlignConfig>& out) {
  uint8_t has = 0;
  if (!r.u8(has)) return false;
  if (has == 0) {
    out.reset();
    return true;
  }
  if (has != 1) return false;
  core::AlignConfig c;
  uint8_t scheme, delivery, gap_model, width, isa, traceback, name_len;
  if (!r.u8(scheme) || !r.u8(delivery) || !r.u8(gap_model) || !r.u8(width) ||
      !r.u8(isa) || !r.u8(traceback))
    return false;
  if (scheme > 1 || delivery > 3 || gap_model > 1 || width > 3 ||
      !isa_byte_ok(isa))
    return false;
  c.scheme = static_cast<core::ScoreScheme>(scheme);
  c.delivery = static_cast<core::ScoreDelivery>(delivery);
  c.gap_model = static_cast<core::GapModel>(gap_model);
  c.width = static_cast<core::Width>(width);
  c.isa = static_cast<simd::Isa>(isa);
  c.traceback = traceback != 0;
  if (!r.i32(c.match) || !r.i32(c.mismatch) || !r.i32(c.gap_open) ||
      !r.i32(c.gap_extend) || !r.i32(c.band) || !r.u64(c.max_traceback_cells))
    return false;
  if (!r.u8(name_len)) return false;
  const uint8_t* name_bytes = nullptr;
  if (!r.bytes(name_bytes, name_len)) return false;
  if (c.scheme == core::ScoreScheme::Matrix) {
    const std::string name(reinterpret_cast<const char*>(name_bytes), name_len);
    // Unknown name -> null matrix; validation turns that into InvalidConfig
    // (MissingMatrix) rather than a protocol error.
    c.matrix = matrix::ScoreMatrix::find(name);
  }
  out = c;
  return true;
}

void encode_options(std::string& out, const RequestOptions& o) {
  put_u8(out, o.top_k ? 1 : 0);
  put_u64(out, o.top_k ? static_cast<uint64_t>(*o.top_k) : 0);
  put_u8(out, o.traceback ? 1 : 0);
  put_u8(out, o.traceback && *o.traceback ? 1 : 0);
  const uint64_t deadline_ns =
      o.deadline
          ? static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(*o.deadline)
                    .count())
          : 0;
  put_u64(out, deadline_ns);
  encode_config(out, o.config);
}

bool decode_options(Reader& r, RequestOptions& o) {
  uint8_t has_top_k, has_traceback, traceback;
  uint64_t top_k, deadline_ns;
  if (!r.u8(has_top_k) || !r.u64(top_k) || !r.u8(has_traceback) ||
      !r.u8(traceback) || !r.u64(deadline_ns))
    return false;
  if (has_top_k) o.top_k = static_cast<size_t>(top_k);
  if (has_traceback) o.traceback = traceback != 0;
  if (deadline_ns != 0)
    o.deadline = std::chrono::nanoseconds(deadline_ns);
  return decode_config(r, o.config);
}

// -------------------------------------------------------------- sequences

void encode_sequence(std::string& out, const seq::Sequence& s) {
  put_u8(out, static_cast<uint8_t>(s.alphabet().kind()));
  put_u32(out, static_cast<uint32_t>(s.id().size()));
  put_bytes(out, s.id().data(), s.id().size());
  put_u32(out, static_cast<uint32_t>(s.length()));
  put_bytes(out, s.data(), s.length());
}

bool decode_sequence(Reader& r, seq::Sequence& out) {
  uint8_t kind;
  uint32_t id_len, n;
  if (!r.u8(kind) || kind > 1) return false;
  const seq::Alphabet& alphabet =
      seq::Alphabet::get(static_cast<seq::AlphabetKind>(kind));
  if (!r.u32(id_len) || id_len > (1u << 20)) return false;
  const uint8_t* id_bytes = nullptr;
  if (!r.bytes(id_bytes, id_len)) return false;
  if (!r.u32(n)) return false;
  const uint8_t* codes = nullptr;
  if (!r.bytes(codes, n)) return false;
  std::vector<uint8_t> vec(codes, codes + n);
  // Out-of-alphabet codes become the wildcard — the same normalization the
  // string constructor applies, so hostile bytes cannot index past a
  // matrix row.
  const uint8_t limit = static_cast<uint8_t>(alphabet.size());
  for (uint8_t& c : vec)
    if (c >= limit) c = alphabet.wildcard();
  out = seq::Sequence(std::string(reinterpret_cast<const char*>(id_bytes),
                                  id_len),
                      std::move(vec), alphabet);
  return true;
}

// --------------------------------------------------------- trace + results

void encode_trace(std::string& out, const RequestTrace& t) {
  put_u8(out, static_cast<uint8_t>(t.scenario));
  put_f64(out, t.queue_wait_s);
  put_f64(out, t.kernel_s);
  put_u64(out, t.cells);
  put_u8(out, static_cast<uint8_t>(t.isa));
  put_u8(out, static_cast<uint8_t>(t.delivery));
  put_u8(out, static_cast<uint8_t>(t.width_used));
  put_u64(out, t.saturation_retries);
}

bool decode_trace(Reader& r, RequestTrace& t) {
  uint8_t scenario, isa, delivery, width;
  if (!r.u8(scenario) || scenario > 2) return false;
  t.scenario = static_cast<perf::Scenario>(scenario);
  if (!r.f64(t.queue_wait_s) || !r.f64(t.kernel_s) || !r.u64(t.cells))
    return false;
  if (!r.u8(isa) || !isa_byte_ok(isa) || !r.u8(delivery) || delivery > 3 ||
      !r.u8(width) || width > 3)
    return false;
  t.isa = static_cast<simd::Isa>(isa);
  t.delivery = static_cast<core::ScoreDelivery>(delivery);
  t.width_used = static_cast<core::Width>(width);
  return r.u64(t.saturation_retries);
}

void encode_alignment(std::string& out, const core::Alignment& a) {
  put_i32(out, a.score);
  put_i32(out, a.end_query);
  put_i32(out, a.end_ref);
  put_i32(out, a.begin_query);
  put_i32(out, a.begin_ref);
  put_u8(out, static_cast<uint8_t>(a.width_used));
  put_u8(out, static_cast<uint8_t>(a.isa_used));
  put_u8(out, static_cast<uint8_t>((a.saturated_8 ? 1 : 0) |
                                   (a.saturated_16 ? 2 : 0) |
                                   (a.saturated ? 4 : 0)));
  put_u64(out, a.stats.cells);
  put_u64(out, a.stats.vector_cells);
  put_u64(out, a.stats.scalar_cells);
  put_u64(out, a.stats.diagonals);
  put_u32(out, static_cast<uint32_t>(a.cigar.size()));
  for (size_t i = 0; i < a.cigar.size(); ++i)
    put_u32(out, a.cigar.len(i) << 2 |
                     static_cast<uint32_t>(a.cigar.op(i)));
}

bool decode_alignment(Reader& r, core::Alignment& a) {
  uint8_t width, isa, sat;
  uint32_t cigar_n;
  if (!r.i32(a.score) || !r.i32(a.end_query) || !r.i32(a.end_ref) ||
      !r.i32(a.begin_query) || !r.i32(a.begin_ref))
    return false;
  if (!r.u8(width) || width > 3 || !r.u8(isa) || !isa_byte_ok(isa) ||
      !r.u8(sat))
    return false;
  a.width_used = static_cast<core::Width>(width);
  a.isa_used = static_cast<simd::Isa>(isa);
  a.saturated_8 = (sat & 1) != 0;
  a.saturated_16 = (sat & 2) != 0;
  a.saturated = (sat & 4) != 0;
  if (!r.u64(a.stats.cells) || !r.u64(a.stats.vector_cells) ||
      !r.u64(a.stats.scalar_cells) || !r.u64(a.stats.diagonals))
    return false;
  if (!r.u32(cigar_n) || cigar_n > r.remaining() / 4) return false;
  a.cigar.clear();
  for (uint32_t i = 0; i < cigar_n; ++i) {
    uint32_t packed;
    if (!r.u32(packed) || (packed & 3u) > 2) return false;
    a.cigar.push(static_cast<core::CigarOp>(packed & 3u), packed >> 2);
  }
  return true;
}

void encode_search_result(std::string& out, const align::SearchResult& res) {
  put_u8(out, res.truncated ? 1 : 0);
  put_u64(out, res.query_length);
  put_u64(out, res.db_residues);
  put_f64(out, res.seconds);
  put_u64(out, res.stats.cells);
  put_u64(out, res.stats.vector_cells);
  put_u64(out, res.stats.scalar_cells);
  put_u64(out, res.stats.diagonals);
  put_u64(out, res.batch_stats.cells8);
  put_u64(out, res.batch_stats.useful_cells8);
  put_u64(out, res.batch_stats.rescored);
  put_u64(out, res.batch_stats.rescored_cells);
  put_u32(out, static_cast<uint32_t>(res.hits.size()));
  for (const align::Hit& h : res.hits) {
    put_u32(out, h.seq_index);
    put_i32(out, h.score);
    put_i32(out, h.end_query);
    put_i32(out, h.end_ref);
  }
}

bool decode_search_result(Reader& r, align::SearchResult& res) {
  uint8_t truncated;
  uint32_t nhits;
  if (!r.u8(truncated)) return false;
  res.truncated = truncated != 0;
  if (!r.u64(res.query_length) || !r.u64(res.db_residues) ||
      !r.f64(res.seconds) || !r.u64(res.stats.cells) ||
      !r.u64(res.stats.vector_cells) || !r.u64(res.stats.scalar_cells) ||
      !r.u64(res.stats.diagonals) || !r.u64(res.batch_stats.cells8) ||
      !r.u64(res.batch_stats.useful_cells8) ||
      !r.u64(res.batch_stats.rescored) ||
      !r.u64(res.batch_stats.rescored_cells))
    return false;
  if (!r.u32(nhits) || nhits > r.remaining() / 16) return false;
  res.hits.resize(nhits);
  for (align::Hit& h : res.hits) {
    if (!r.u32(h.seq_index) || !r.i32(h.score) || !r.i32(h.end_query) ||
        !r.i32(h.end_ref))
      return false;
  }
  return true;
}

// -------------------------------------------------------------- JSON mode

std::optional<core::AlignConfig> config_from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  core::AlignConfig c;
  if (const Json& v = j["scheme"]; v.is_string())
    c.scheme = v.as_string() == "fixed" ? core::ScoreScheme::Fixed
                                        : core::ScoreScheme::Matrix;
  if (const Json& v = j["matrix"]; v.is_string())
    c.matrix = matrix::ScoreMatrix::find(v.as_string());
  if (const Json& v = j["match"]; v.is_number())
    c.match = static_cast<int>(v.as_number());
  if (const Json& v = j["mismatch"]; v.is_number())
    c.mismatch = static_cast<int>(v.as_number());
  if (const Json& v = j["gap_model"]; v.is_string())
    c.gap_model = v.as_string() == "linear" ? core::GapModel::Linear
                                            : core::GapModel::Affine;
  if (const Json& v = j["gap_open"]; v.is_number())
    c.gap_open = static_cast<int>(v.as_number());
  if (const Json& v = j["gap_extend"]; v.is_number())
    c.gap_extend = static_cast<int>(v.as_number());
  if (const Json& v = j["band"]; v.is_number())
    c.band = static_cast<int>(v.as_number());
  if (const Json& v = j["width"]; v.is_string()) {
    const std::string& w = v.as_string();
    c.width = w == "8"    ? core::Width::W8
              : w == "16" ? core::Width::W16
              : w == "32" ? core::Width::W32
                          : core::Width::Adaptive;
  }
  if (const Json& v = j["isa"]; v.is_string()) {
    try {
      c.isa = simd::isa_from_string(v.as_string());
    } catch (const std::invalid_argument&) {
      return std::nullopt;  // an unknown name: the request is undecodable
    }
  }
  if (const Json& v = j["delivery"]; v.is_string()) {
    const std::string& d = v.as_string();
    c.delivery = d == "gather"    ? core::ScoreDelivery::Gather
                 : d == "fill"    ? core::ScoreDelivery::Fill
                 : d == "shuffle" ? core::ScoreDelivery::Shuffle
                                  : core::ScoreDelivery::Auto;
  }
  if (const Json& v = j["traceback"]; v.is_bool())
    c.traceback = v.as_bool();
  return c;
}

const seq::Alphabet& alphabet_from_json(const Json& j) {
  return j["alphabet"].as_string() == "dna" ? seq::Alphabet::dna()
                                            : seq::Alphabet::protein();
}

// False when the document's config is undecodable.
bool options_from_json(const Json& j, RequestOptions& o) {
  if (const Json& v = j["top_k"]; v.is_number())
    o.top_k = static_cast<size_t>(v.as_number());
  if (const Json& v = j["traceback"]; v.is_bool()) o.traceback = v.as_bool();
  if (const Json& v = j["deadline_ms"]; v.is_number())
    o.deadline = std::chrono::milliseconds(
        static_cast<int64_t>(v.as_number()));
  if (const Json& v = j["config"]; v.is_object()) {
    o.config = config_from_json(v);
    if (!o.config) return false;
  }
  return true;
}

void trace_to_json(JsonObject& o, const RequestTrace& t) {
  JsonObject tr;
  tr["scenario"] = perf::scenario_label(static_cast<int>(t.scenario));
  tr["queue_wait_s"] = t.queue_wait_s;
  tr["kernel_s"] = t.kernel_s;
  tr["cells"] = static_cast<double>(t.cells);
  tr["gcups"] = t.gcups();
  tr["isa"] = simd::isa_name(t.isa);
  tr["saturation_retries"] = static_cast<double>(t.saturation_retries);
  o["trace"] = Json(std::move(tr));
}

Json hits_to_json(const std::vector<align::Hit>& hits) {
  JsonArray arr;
  arr.reserve(hits.size());
  for (const align::Hit& h : hits) {
    JsonObject o;
    o["seq_index"] = static_cast<double>(h.seq_index);
    o["score"] = h.score;
    o["end_query"] = h.end_query;
    o["end_ref"] = h.end_ref;
    arr.push_back(Json(std::move(o)));
  }
  return Json(std::move(arr));
}

}  // namespace

// ---------------------------------------------------------------- framing

void encode_header(std::string& out, const FrameHeader& h) {
  put_u32(out, kMagic);
  put_u8(out, static_cast<uint8_t>(h.type));
  put_u8(out, h.flags);
  put_u8(out, h.tier);
  put_u8(out, h.status);
  put_u64(out, h.request_id);
  put_u32(out, h.payload_len);
}

std::optional<FrameHeader> decode_header(const uint8_t* bytes) {
  Reader r(std::string_view(reinterpret_cast<const char*>(bytes), kHeaderSize));
  uint32_t magic;
  uint8_t type;
  FrameHeader h;
  if (!r.u32(magic) || magic != kMagic) return std::nullopt;
  if (!r.u8(type) || !r.u8(h.flags) || !r.u8(h.tier) || !r.u8(h.status) ||
      !r.u64(h.request_id) || !r.u32(h.payload_len))
    return std::nullopt;
  h.type = static_cast<MsgType>(type);
  return h;
}

std::string encode_frame(const FrameHeader& h, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  FrameHeader hh = h;
  hh.payload_len = static_cast<uint32_t>(payload.size());
  encode_header(out, hh);
  out.append(payload);
  return out;
}

bool known_request_type(uint8_t type) noexcept {
  return type >= static_cast<uint8_t>(MsgType::AlignRequest) &&
         type <= static_cast<uint8_t>(MsgType::MetricsRequest);
}

// ----------------------------------------------------------- wire tracing

void encode_trace_context(std::string& out, const WireTraceContext& ctx) {
  put_u64(out, ctx.trace_id);
  put_u8(out, ctx.sampled ? 1 : 0);
}

std::optional<WireTraceContext> decode_trace_context(
    std::string_view& payload) {
  if (payload.size() < kTraceContextSize) return std::nullopt;
  Reader r(payload.substr(0, kTraceContextSize));
  WireTraceContext ctx;
  uint8_t sampled = 0;
  if (!r.u64(ctx.trace_id) || !r.u8(sampled)) return std::nullopt;
  if (ctx.trace_id == 0) return std::nullopt;
  ctx.sampled = sampled != 0;
  payload.remove_prefix(kTraceContextSize);
  return ctx;
}

void encode_server_timing(std::string& out, const ServerTiming& t) {
  put_u64(out, t.trace_id);
  put_u32(out, t.queue_us);
  put_u32(out, t.exec_us);
  put_u32(out, t.serialize_us);
  put_u8(out, t.source);
}

std::optional<ServerTiming> decode_server_timing(std::string_view& payload) {
  if (payload.size() < kServerTimingSize) return std::nullopt;
  Reader r(payload.substr(payload.size() - kServerTimingSize));
  ServerTiming t;
  if (!r.u64(t.trace_id) || !r.u32(t.queue_us) || !r.u32(t.exec_us) ||
      !r.u32(t.serialize_us) || !r.u8(t.source))
    return std::nullopt;
  payload.remove_suffix(kServerTimingSize);
  return t;
}

// --------------------------------------------------------------- requests

void encode_align_request(std::string& out, const AlignRequest& rq) {
  encode_options(out, rq.options);
  encode_sequence(out, rq.query);
  encode_sequence(out, rq.reference);
}

void encode_search_request(std::string& out, const SearchRequest& rq) {
  encode_options(out, rq.options);
  put_u8(out, rq.mode == align::SearchMode::Batch ? 1 : 0);
  encode_sequence(out, rq.query);
}

void encode_batch_request(std::string& out, const BatchRequest& rq) {
  encode_options(out, rq.options);
  put_u32(out, static_cast<uint32_t>(rq.queries.size()));
  for (const seq::Sequence& q : rq.queries) encode_sequence(out, q);
}

std::optional<AlignRequest> decode_align_request(std::string_view payload) {
  Reader r(payload);
  AlignRequest rq;
  if (!decode_options(r, rq.options) || !decode_sequence(r, rq.query) ||
      !decode_sequence(r, rq.reference) || !r.done())
    return std::nullopt;
  return rq;
}

std::optional<SearchRequest> decode_search_request(std::string_view payload) {
  Reader r(payload);
  SearchRequest rq;
  uint8_t mode;
  if (!decode_options(r, rq.options) || !r.u8(mode) || mode > 1 ||
      !decode_sequence(r, rq.query) || !r.done())
    return std::nullopt;
  rq.mode = mode == 1 ? align::SearchMode::Batch : align::SearchMode::Diagonal;
  return rq;
}

std::optional<BatchRequest> decode_batch_request(std::string_view payload) {
  Reader r(payload);
  BatchRequest rq;
  uint32_t n;
  if (!decode_options(r, rq.options) || !r.u32(n)) return std::nullopt;
  // 10 bytes is the minimum wire size of one sequence; cheap pre-check so a
  // hostile count cannot force a huge reserve.
  if (n > r.remaining() / 10) return std::nullopt;
  rq.queries.resize(n);
  for (seq::Sequence& q : rq.queries)
    if (!decode_sequence(r, q)) return std::nullopt;
  if (!r.done()) return std::nullopt;
  return rq;
}

std::optional<AlignRequest> decode_align_request_json(std::string_view payload) {
  const auto doc = Json::parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  const Json& j = *doc;
  const Json& query = j["query"];
  const Json& ref = j["ref"].is_string() ? j["ref"] : j["reference"];
  if (!query.is_string() || !ref.is_string()) return std::nullopt;
  const seq::Alphabet& alphabet = alphabet_from_json(j);
  AlignRequest rq;
  rq.query = seq::Sequence("query", query.as_string(), alphabet);
  rq.reference = seq::Sequence("ref", ref.as_string(), alphabet);
  if (!options_from_json(j, rq.options)) return std::nullopt;
  return rq;
}

std::optional<SearchRequest> decode_search_request_json(
    std::string_view payload) {
  const auto doc = Json::parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  const Json& j = *doc;
  const Json& query = j["query"];
  if (!query.is_string()) return std::nullopt;
  SearchRequest rq;
  rq.query = seq::Sequence("query", query.as_string(), alphabet_from_json(j));
  rq.mode = j["mode"].as_string() == "batch" ? align::SearchMode::Batch
                                             : align::SearchMode::Diagonal;
  if (!options_from_json(j, rq.options)) return std::nullopt;
  return rq;
}

std::optional<BatchRequest> decode_batch_request_json(
    std::string_view payload) {
  const auto doc = Json::parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  const Json& j = *doc;
  const Json& queries = j["queries"];
  if (!queries.is_array()) return std::nullopt;
  const seq::Alphabet& alphabet = alphabet_from_json(j);
  BatchRequest rq;
  rq.queries.reserve(queries.as_array().size());
  size_t i = 0;
  for (const Json& q : queries.as_array()) {
    if (!q.is_string()) return std::nullopt;
    std::string id = "q";
    id += std::to_string(i++);
    rq.queries.emplace_back(std::move(id), q.as_string(), alphabet);
  }
  if (!options_from_json(j, rq.options)) return std::nullopt;
  return rq;
}

// -------------------------------------------------------------- responses

void encode_align_response(std::string& out, const AlignResponse& r) {
  encode_alignment(out, r.alignment);
  encode_trace(out, r.trace);
}

void encode_search_response(std::string& out, const SearchResponse& r) {
  encode_search_result(out, r.result);
  encode_trace(out, r.trace);
}

void encode_batch_response(std::string& out, const BatchResponse& r) {
  put_u32(out, static_cast<uint32_t>(r.results.size()));
  for (const align::SearchResult& q : r.results) {
    encode_search_result(out, q);
    // v1 trailer: the query's batch_stats again, after the search result.
    put_u64(out, q.batch_stats.cells8);
    put_u64(out, q.batch_stats.useful_cells8);
    put_u64(out, q.batch_stats.rescored);
    put_u64(out, q.batch_stats.rescored_cells);
  }
  encode_trace(out, r.trace);
}

std::optional<AlignResponse> decode_align_response(std::string_view payload) {
  Reader r(payload);
  AlignResponse out;
  if (!decode_alignment(r, out.alignment) || !decode_trace(r, out.trace) ||
      !r.done())
    return std::nullopt;
  return out;
}

std::optional<SearchResponse> decode_search_response(std::string_view payload) {
  Reader r(payload);
  SearchResponse out;
  if (!decode_search_result(r, out.result) || !decode_trace(r, out.trace) ||
      !r.done())
    return std::nullopt;
  return out;
}

std::optional<BatchResponse> decode_batch_response(std::string_view payload) {
  Reader r(payload);
  BatchResponse out;
  uint32_t n;
  if (!r.u32(n) || n > r.remaining() / 60) return std::nullopt;
  out.results.resize(n);
  for (align::SearchResult& q : out.results) {
    // The trailer wins over the inner batch_stats, which older servers
    // sent as zeros.
    if (!decode_search_result(r, q) || !r.u64(q.batch_stats.cells8) ||
        !r.u64(q.batch_stats.useful_cells8) ||
        !r.u64(q.batch_stats.rescored) ||
        !r.u64(q.batch_stats.rescored_cells))
      return std::nullopt;
  }
  if (!decode_trace(r, out.trace) || !r.done()) return std::nullopt;
  return out;
}

std::string align_response_json(const AlignResponse& r) {
  JsonObject o;
  o["status"] = "ok";
  o["score"] = r.alignment.score;
  o["end_query"] = r.alignment.end_query;
  o["end_ref"] = r.alignment.end_ref;
  if (!r.alignment.cigar.empty()) {
    o["begin_query"] = r.alignment.begin_query;
    o["begin_ref"] = r.alignment.begin_ref;
    o["cigar"] = r.alignment.cigar.to_string();
  }
  o["width_used"] = core::Width::W8 == r.alignment.width_used    ? 8
                    : core::Width::W16 == r.alignment.width_used ? 16
                    : core::Width::W32 == r.alignment.width_used ? 32
                                                                 : 0;
  o["isa_used"] = simd::isa_name(r.alignment.isa_used);
  trace_to_json(o, r.trace);
  return Json(std::move(o)).dump();
}

std::string search_response_json(const SearchResponse& r) {
  JsonObject o;
  o["status"] = "ok";
  o["hits"] = hits_to_json(r.result.hits);
  o["truncated"] = r.result.truncated;
  o["query_length"] = static_cast<double>(r.result.query_length);
  o["db_residues"] = static_cast<double>(r.result.db_residues);
  trace_to_json(o, r.trace);
  return Json(std::move(o)).dump();
}

std::string batch_response_json(const BatchResponse& r) {
  JsonObject o;
  o["status"] = "ok";
  JsonArray results;
  results.reserve(r.results.size());
  for (const align::SearchResult& q : r.results) {
    JsonObject e;
    e["hits"] = hits_to_json(q.hits);
    e["truncated"] = q.truncated;
    results.push_back(Json(std::move(e)));
  }
  o["results"] = Json(std::move(results));
  trace_to_json(o, r.trace);
  return Json(std::move(o)).dump();
}

std::string error_payload(service::ServiceStatus status,
                          std::string_view message, bool json) {
  if (!json) return std::string(message);
  JsonObject o;
  o["status"] = service::status_name(status);
  o["message"] = std::string(message);
  return Json(std::move(o)).dump();
}

// ------------------------------------------------------------- cache keys

namespace {

/// Incremental FNV-1a 64.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void str(std::string_view s) {
    const uint64_t n = s.size();
    bytes(&n, sizeof n);  // length-prefixed: "ab"+"c" != "a"+"bc"
    bytes(s.data(), s.size());
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void u8(uint8_t v) { bytes(&v, sizeof v); }
};

/// Length-prefixed string append, mirroring Fnv::str so the identity bytes
/// are unambiguous under concatenation.
void identity_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  put_bytes(out, s.data(), s.size());
}

void identity_config(std::string& out,
                     const std::optional<core::AlignConfig>& c) {
  if (!c) {
    put_u8(out, 0);
    return;
  }
  put_u8(out, 1);
  put_u8(out, static_cast<uint8_t>(c->scheme));
  put_u8(out, static_cast<uint8_t>(c->delivery));
  put_u8(out, static_cast<uint8_t>(c->gap_model));
  put_u8(out, static_cast<uint8_t>(c->width));
  put_u8(out, static_cast<uint8_t>(c->isa));
  put_u8(out, c->traceback ? 1 : 0);
  put_u64(out, static_cast<uint64_t>(c->match));
  put_u64(out, static_cast<uint64_t>(c->mismatch));
  put_u64(out, static_cast<uint64_t>(c->gap_open));
  put_u64(out, static_cast<uint64_t>(c->gap_extend));
  put_u64(out, static_cast<uint64_t>(c->band));
  put_u64(out, c->max_traceback_cells);
  identity_str(out,
               c->scheme == core::ScoreScheme::Matrix && c->matrix != nullptr
                   ? c->matrix->name()
                   : std::string_view());
}

/// Result-affecting options only — deadline and tier shape scheduling, not
/// the response bytes, so they are excluded by design.
void identity_options(std::string& out, const RequestOptions& o) {
  put_u8(out, o.top_k ? 1 : 0);
  put_u64(out, o.top_k ? static_cast<uint64_t>(*o.top_k) : 0);
  put_u8(out, o.traceback ? 1 : 0);
  put_u8(out, o.traceback && *o.traceback ? 1 : 0);
  identity_config(out, o.config);
}

void identity_sequence(std::string& out, const seq::Sequence& s) {
  put_u8(out, static_cast<uint8_t>(s.alphabet().kind()));
  identity_str(out, std::string_view(reinterpret_cast<const char*>(s.data()),
                                     s.length()));
}

}  // namespace

std::string cache_identity(const AlignRequest& rq, uint64_t db_epoch) {
  std::string out;
  out.reserve(64 + rq.query.length() + rq.reference.length());
  put_u8(out, static_cast<uint8_t>(MsgType::AlignRequest));
  put_u64(out, db_epoch);
  identity_options(out, rq.options);
  identity_sequence(out, rq.query);
  identity_sequence(out, rq.reference);
  return out;
}

std::string cache_identity(const SearchRequest& rq, uint64_t db_epoch) {
  std::string out;
  out.reserve(64 + rq.query.length());
  put_u8(out, static_cast<uint8_t>(MsgType::SearchRequest));
  put_u64(out, db_epoch);
  identity_options(out, rq.options);
  identity_sequence(out, rq.query);
  return out;
}

std::string cache_identity(const BatchRequest& rq, uint64_t db_epoch) {
  std::string out;
  put_u8(out, static_cast<uint8_t>(MsgType::BatchRequest));
  put_u64(out, db_epoch);
  identity_options(out, rq.options);
  put_u64(out, rq.queries.size());
  for (const seq::Sequence& q : rq.queries) identity_sequence(out, q);
  return out;
}

uint64_t cache_key(std::string_view identity) noexcept {
  Fnv f;
  f.bytes(identity.data(), identity.size());
  return f.h;
}

uint64_t cache_key(const AlignRequest& rq, uint64_t db_epoch) {
  return cache_key(cache_identity(rq, db_epoch));
}

uint64_t cache_key(const SearchRequest& rq, uint64_t db_epoch) {
  return cache_key(cache_identity(rq, db_epoch));
}

uint64_t cache_key(const BatchRequest& rq, uint64_t db_epoch) {
  return cache_key(cache_identity(rq, db_epoch));
}

uint64_t database_epoch(const seq::SequenceDatabase& db) {
  // Delegates to the artifact layer's fingerprint so a server started from
  // a .swdb file (which stores the fingerprint in its header) and one
  // started from the same FASTA agree on the epoch — and therefore on
  // every wire cache key.
  return core::database_fingerprint(db);
}

}  // namespace swve::net
