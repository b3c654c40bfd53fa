// Request/response vocabulary of the AlignService front door.
//
// Requests own their sequences (they outlive the submitting scope — the
// service executes them asynchronously) and carry per-call overrides:
// config, top-k, traceback, and a relative deadline. Responses carry the
// scenario result plus a RequestTrace — the per-request observability
// record (queue wait, kernel time, widths retried, delivery mode chosen,
// saturation retries) fed from the existing KernelStats plumbing. A failed
// request yields a core::ConfigError in the completion's ErrorOr instead of
// a response.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "align/db_search.hpp"
#include "core/error.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "perf/topdown.hpp"
#include "seq/sequence.hpp"
#include "service/status.hpp"

namespace swve::service {

/// Priority tier of a request. Executors always drain Interactive before
/// Standard before Bulk (FIFO within a tier), so latency-sensitive traffic
/// overtakes throughput traffic at every dequeue — the QoS half of the
/// existing deadline + backpressure support. Values are the protocol v1
/// tier byte; append-only.
enum class QosTier : uint8_t {
  Interactive = 0,  ///< user-facing, latency-sensitive
  Standard = 1,     ///< default
  Bulk = 2,         ///< offline / best-effort (batch reprocessing)
};
inline constexpr int kQosTiers = 3;

constexpr const char* qos_tier_name(QosTier t) noexcept {
  switch (t) {
    case QosTier::Interactive: return "interactive";
    case QosTier::Standard: return "standard";
    case QosTier::Bulk: return "bulk";
  }
  return "unknown";
}

/// Clamp a wire tier byte to a valid QosTier (unknown tiers serve as Bulk
/// rather than being rejected — forward compatibility for new tiers).
constexpr QosTier qos_tier_from_wire(uint8_t b) noexcept {
  return b < kQosTiers ? static_cast<QosTier>(b) : QosTier::Bulk;
}

/// Per-call overrides; unset fields fall back to the service defaults.
struct RequestOptions {
  /// Replace the service's AlignConfig wholesale for this request
  /// (validated with try_validate(); a bad config fails the request).
  std::optional<core::AlignConfig> config;
  /// Hits to keep per query (search/batch; service default otherwise).
  std::optional<size_t> top_k;
  /// Request a traceback (pairwise only; search/batch score without it).
  std::optional<bool> traceback;
  /// Relative deadline, measured from submit. The request fails with
  /// DeadlineExceeded if it is still queued — or still running, at
  /// sequence-chunk granularity — when the deadline passes.
  std::optional<std::chrono::steady_clock::duration> deadline;
  /// Priority tier; executors dequeue lower tiers first (FIFO within one).
  QosTier tier = QosTier::Standard;
  /// Caller-supplied trace id for span attribution (0 = let the service
  /// allocate one). Propagated by net::Server from a kFlagTraced frame's
  /// WireTraceContext. Like deadline and tier, this is excluded from the
  /// result-cache identity: it shapes observability, not results.
  uint64_t trace_id = 0;
};

/// Scenario 3 (pairwise, SW-as-a-subroutine).
struct AlignRequest {
  seq::Sequence query;
  seq::Sequence reference;
  RequestOptions options;
};

/// Scenario 1 (one query vs the service database).
struct SearchRequest {
  seq::Sequence query;
  /// Protocol v1's mode byte, kept so the wire format and perfbench (which
  /// sets it) stay as they are. Nothing reads it: the engine follows from
  /// the config's band and the packed lanes (align::search_database), with
  /// the same hits either way.
  align::SearchMode mode = align::SearchMode::Diagonal;
  RequestOptions options;
};

/// Scenario 2 (query batch vs the service database).
struct BatchRequest {
  std::vector<seq::Sequence> queries;
  RequestOptions options;
};

enum class Scenario : uint8_t { Pairwise = 0, Search = 1, Batch = 2 };

/// Per-request observability record attached to every response.
struct RequestTrace {
  Scenario scenario = Scenario::Pairwise;
  /// Monotone per-service sequence number stamped when execution starts
  /// (exposes completion order for tests and tracing).
  uint64_t exec_sequence = 0;
  double queue_wait_s = 0;  ///< submit -> execution start
  double kernel_s = 0;      ///< execution (kernel + merge) time
  uint64_t cells = 0;       ///< DP cells computed (from KernelStats)

  simd::Isa isa = simd::Isa::Scalar;          ///< resolved ISA
  /// Score-delivery path that ran (core::delivery_for; pairwise: at the
  /// final rung of the width ladder).
  core::ScoreDelivery delivery = core::ScoreDelivery::Auto;
  core::Width width_used = core::Width::W8;   ///< pairwise: final rung
  /// Adaptive-ladder retries: pairwise counts 8->16/16->32 widenings; the
  /// batch paths count lanes re-scored after 8-bit saturation.
  uint64_t saturation_retries = 0;

  /// Id keying this request's spans in the exported Chrome trace (0 when
  /// the service has no TraceSink installed).
  uint64_t trace_id = 0;
  /// Top-down pipeline-slot breakdown; filled for one-in-N sampled requests
  /// when ServiceOptions::obs.topdown_every_n is enabled.
  std::optional<perf::TopDownResult> topdown;

  double gcups() const noexcept {
    return kernel_s > 0 ? static_cast<double>(cells) / kernel_s / 1e9 : 0.0;
  }
};

struct AlignResponse {
  core::Alignment alignment;
  RequestTrace trace;
};

struct SearchResponse {
  align::SearchResult result;
  RequestTrace trace;
};

struct BatchResponse {
  /// One result per query, in query order. Hits are score-only
  /// (end_query = end_ref = -1): a batch skips search's phase 2.
  std::vector<align::SearchResult> results;
  RequestTrace trace;
};

/// Completion callbacks of the submit_async() API: exactly one
/// invocation per submission, with either the response or a ConfigError
/// (convert with to_status() for the wire). Immediate rejections — queue
/// full under Overflow::Reject, shutdown — run the callback inline on the
/// submitting thread, and so may small pairwise requests, which can run
/// `done` on the submitting thread before submit_async returns (see
/// AlignService::submit_async); everything else runs it on an executor
/// thread.
template <typename Response>
using Completion = std::function<void(core::ErrorOr<Response>)>;
using AlignCompletion = Completion<AlignResponse>;
using SearchCompletion = Completion<SearchResponse>;
using BatchCompletion = Completion<BatchResponse>;

}  // namespace swve::service
