// Protocol v1 of the swve serving front door.
//
// Length-prefixed binary frames over TCP, little-endian throughout:
//
//   offset  size  field
//        0     4  magic "SWV1" (0x31565753 as a LE u32)
//        4     1  message type (MsgType)
//        5     1  flags (FrameFlags bit set)
//        6     1  QoS tier (requests; echoed on responses)
//        7     1  status byte (responses; 0 on requests) = ServiceStatus
//        8     8  request id (client-chosen; echoed verbatim)
//       16     4  payload length in bytes
//       20     …  payload
//
// Binary payloads carry alphabet-encoded residue codes — the same bytes
// the kernels consume — so a response decoded off the wire is bit-identical
// to an in-process AlignService call. With kFlagJson set, the payload is a
// single JSON document instead (human-typed requests over `nc`, readable
// responses); JSON mode trades speed for debuggability, nothing else.
//
// Cache/coalescing provenance travels in response FLAGS (kFlagFromCache,
// kFlagCoalesced), never in the payload, so a cached response's payload
// bytes stay identical to the first execution's.
//
// The header is a wire contract: fields are append-only and the struct is
// packed/unpacked explicitly byte-by-byte (no memcpy of structs), so the
// layout cannot drift with compiler padding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "service/align_service.hpp"
#include "service/request.hpp"
#include "service/status.hpp"

namespace swve::net {

inline constexpr uint32_t kMagic = 0x31565753u;  // "SWV1" little-endian
inline constexpr size_t kHeaderSize = 20;

enum class MsgType : uint8_t {
  AlignRequest = 1,
  SearchRequest = 2,
  BatchRequest = 3,
  Ping = 4,
  MetricsRequest = 5,
  AlignResponse = 129,
  SearchResponse = 130,
  BatchResponse = 131,
  Pong = 132,
  MetricsResponse = 133,
  ErrorResponse = 255,
};

// Frame flag bits.
inline constexpr uint8_t kFlagJson = 1u << 0;       ///< payload is JSON
inline constexpr uint8_t kFlagNoCache = 1u << 1;    ///< bypass result cache
inline constexpr uint8_t kFlagFromCache = 1u << 2;  ///< served from the LRU
inline constexpr uint8_t kFlagCoalesced = 1u << 3;  ///< joined an in-flight twin
/// Request: the payload begins with a kTraceContextSize-byte trace context
/// the server adopts for its spans. Binary response: echoed to signal a
/// trailing kServerTimingSize-byte ServerTiming block after the payload.
inline constexpr uint8_t kFlagTraced = 1u << 4;

struct FrameHeader {
  MsgType type = MsgType::Ping;
  uint8_t flags = 0;
  uint8_t tier = 1;   ///< service::QosTier byte
  uint8_t status = 0; ///< service::ServiceStatus byte
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// Serialize the 20-byte header into `out` (appended).
void encode_header(std::string& out, const FrameHeader& h);

/// Parse a header from exactly kHeaderSize bytes. Fails (nullopt) on a bad
/// magic — the caller should answer BadVersion and drop the connection.
std::optional<FrameHeader> decode_header(const uint8_t* bytes);

/// One complete outgoing frame: header + payload.
std::string encode_frame(const FrameHeader& h, std::string_view payload);

/// True for type bytes this implementation understands (request side).
bool known_request_type(uint8_t type) noexcept;

// ------------------------------------------------------------- wire tracing

/// Client-chosen trace context carried as a payload prefix when
/// kFlagTraced is set on a request frame. The server strips it before the
/// payload decoders run, so traced and untraced payload bytes (and hence
/// results and cache identities) are identical.
struct WireTraceContext {
  uint64_t trace_id = 0;  ///< threads client and server spans (0 = invalid)
  bool sampled = false;   ///< request publication to /tracez
};

inline constexpr size_t kTraceContextSize = 9;  // u64 trace_id + u8 sampled

/// Append the 9-byte context to `out` (prefix position — call before the
/// request payload encoder).
void encode_trace_context(std::string& out, const WireTraceContext& ctx);

/// Strip a trace context off the front of `payload` (advancing it) and
/// return it; nullopt (payload untouched) when fewer than
/// kTraceContextSize bytes remain or trace_id is 0.
std::optional<WireTraceContext> decode_trace_context(
    std::string_view& payload);

/// Server-side timing breakdown appended after a traced binary response
/// payload (kFlagTraced echoed on the response frame signals presence).
/// The trailer travels outside the cached payload bytes, so cached and
/// executed responses stay bit-identical; `source` carries provenance.
struct ServerTiming {
  uint64_t trace_id = 0;     ///< echo of the request's trace id
  uint32_t queue_us = 0;     ///< submission -> executor pickup
  uint32_t exec_us = 0;      ///< kernel wall time
  uint32_t serialize_us = 0; ///< response payload encode time
  uint8_t source = 0;        ///< 0 = executed, 1 = cache hit, 2 = coalesced
};

inline constexpr size_t kServerTimingSize = 21;

/// Append the 21-byte timing trailer to `out`.
void encode_server_timing(std::string& out, const ServerTiming& t);

/// Strip a timing trailer off the back of `payload` (shrinking it) and
/// return it; nullopt (payload untouched) when fewer than
/// kServerTimingSize bytes remain.
std::optional<ServerTiming> decode_server_timing(std::string_view& payload);

// ------------------------------------------------------------------ requests

/// Binary request payload codecs. Encoders append to `out`; decoders return
/// nullopt on malformed payloads (short reads, bad enum bytes, length
/// overflow) — the server answers BadFrame.
void encode_align_request(std::string& out, const service::AlignRequest& rq);
void encode_search_request(std::string& out, const service::SearchRequest& rq);
void encode_batch_request(std::string& out, const service::BatchRequest& rq);
std::optional<service::AlignRequest> decode_align_request(
    std::string_view payload);
std::optional<service::SearchRequest> decode_search_request(
    std::string_view payload);
std::optional<service::BatchRequest> decode_batch_request(
    std::string_view payload);

/// JSON debug-mode request parsing (one document per frame; see
/// docs/serving.md for the schema). The MsgType comes from the frame
/// header, same as binary mode. nullopt on a malformed document or a config
/// naming an unknown ISA — the server answers BadFrame.
std::optional<service::AlignRequest> decode_align_request_json(
    std::string_view payload);
std::optional<service::SearchRequest> decode_search_request_json(
    std::string_view payload);
std::optional<service::BatchRequest> decode_batch_request_json(
    std::string_view payload);

// ----------------------------------------------------------------- responses

/// Response payload codecs, binary and JSON. Encoders are deterministic:
/// the same response struct always serializes to the same bytes (the
/// result-cache contract).
void encode_align_response(std::string& out, const service::AlignResponse& r);
void encode_search_response(std::string& out, const service::SearchResponse& r);
void encode_batch_response(std::string& out, const service::BatchResponse& r);
std::optional<service::AlignResponse> decode_align_response(
    std::string_view payload);
std::optional<service::SearchResponse> decode_search_response(
    std::string_view payload);
std::optional<service::BatchResponse> decode_batch_response(
    std::string_view payload);

std::string align_response_json(const service::AlignResponse& r);
std::string search_response_json(const service::SearchResponse& r);
std::string batch_response_json(const service::BatchResponse& r);

/// Error payload: binary = UTF-8 message bytes; JSON mode = a document
/// {"status": "...", "message": "..."}.
std::string error_payload(service::ServiceStatus status,
                          std::string_view message, bool json);

// ---------------------------------------------------------------- cache keys

/// Canonical identity bytes of a request for the result cache and
/// singleflight: scenario + query/reference residue codes + alphabet +
/// effective config + top-k/traceback — everything that determines the
/// response bytes — plus the server's db_epoch. Deadline, QoS tier, and
/// trace id are deliberately excluded: they shape scheduling and
/// observability, not results — a traced request must hit the same cache
/// entry as its untraced twin.
///
/// The cache and singleflight index on cache_key(identity) — a 64-bit
/// FNV-1a of these bytes — but always verify the full identity on lookup:
/// FNV is not collision-resistant, and an attacker-constructed colliding
/// request must not be served (or coalesced onto) another client's result.
std::string cache_identity(const service::AlignRequest& rq, uint64_t db_epoch);
std::string cache_identity(const service::SearchRequest& rq, uint64_t db_epoch);
std::string cache_identity(const service::BatchRequest& rq, uint64_t db_epoch);

/// The 64-bit index of an identity (FNV-1a over its bytes).
uint64_t cache_key(std::string_view identity) noexcept;

/// Convenience: cache_key(cache_identity(rq, db_epoch)).
uint64_t cache_key(const service::AlignRequest& rq, uint64_t db_epoch);
uint64_t cache_key(const service::SearchRequest& rq, uint64_t db_epoch);
uint64_t cache_key(const service::BatchRequest& rq, uint64_t db_epoch);

/// FNV-1a 64 over every sequence in the database — the db_epoch a server
/// stamps into its cache keys so a different database never shares entries.
uint64_t database_epoch(const seq::SequenceDatabase& db);

}  // namespace swve::net
