// Machine-readable renderings of perf::MetricsSnapshot.
//
// Every metric family is defined once, in a table in exporters.cpp (name,
// help, type, and one function that emits its samples). Four writers walk
// that table: Prometheus text exposition 0.0.4 (`name{labels} value` lines
// with HELP/TYPE headers, cumulative `le` histogram buckets), plain text
// (the same sample lines without the headers), JSON (one key per family,
// derived by rule), and the telemetry history's window points (WindowTable,
// served by /varz in the JSON shapes). A family with no samples renders
// nothing in any format. The metric schema is documented in
// docs/observability.md.
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "perf/metrics.hpp"

namespace swve::obs {

struct SloStatus;

enum class MetricsFormat { Text, Prometheus, Json };

/// Identity of this build, exported as the build_info gauge (the
/// Prometheus idiom for version metadata: value 1, facts in labels).
struct BuildInfo {
  const char* version;   ///< project version (CMake PROJECT_VERSION)
  const char* compiler;  ///< compiler identification (__VERSION__)
  const char* isas;      ///< ISA tiers compiled into this binary, "+"-joined
};
BuildInfo build_info() noexcept;

/// Parse "text" / "prom" / "prometheus" / "json" (case-sensitive, like the
/// CLI); nullopt for anything else.
std::optional<MetricsFormat> metrics_format_from_string(const std::string& s);

/// Escape a string for splicing into a Prometheus label value: backslash,
/// double quote, and newline per exposition format 0.0.4. Any runtime
/// string entering a label MUST pass through this (compiler version
/// strings contain quotes on some toolchains).
std::string prom_escape_label(std::string_view value);

/// Render `snapshot` in the requested format. `slo` (optional) adds the
/// burn-rate alert families; `build` fills the build_info labels.
///
/// JSON is one object; each key is a family name without its `swve_`
/// prefix. An unlabeled family is a number; a labeled family is an array
/// of `{<label>: "...", ..., "value": v}`; a histogram is `{count, sum,
/// p50_s, p90_s, p99_s, max_s, buckets}` (plus its labels, inside an
/// array, when it has any), `buckets` being the raw per-bucket counts.
std::string render_metrics(const perf::MetricsSnapshot& snapshot,
                           MetricsFormat format,
                           const SloStatus* slo = nullptr,
                           const BuildInfo& build = build_info());

/// A set of metric families, by position in the family table.
using FamilySet = std::bitset<128>;

/// Parse a comma-separated list of family keys (JSON keys: the family name
/// without `swve_`, e.g. "requests_completed_total,tier_latency_seconds");
/// blanks around a key are ignored and an empty list selects every family.
/// An unknown key returns nullopt and is stored in `*bad`.
std::optional<FamilySet> parse_family_keys(std::string_view list,
                                           std::string* bad);

/// What the SLO engine reads of one window: the end-to-end latency of every
/// tier (tier_latency_seconds merged), and the requests that failed
/// (requests_failed_total) and completed (requests_completed_total).
struct SloWindow {
  double t_s = 0;  ///< the window's end, on the history's clock
  perf::LatencyHistogram::Snapshot latency;
  uint64_t failed = 0;
  uint64_t completed = 0;
};

/// The window between two snapshots of one registry, under one rule per
/// family type:
///   counter   — the delta, clamped at 0 (integer or double counters);
///   gauge     — the value in the newer snapshot;
///   histogram — LatencyHistogram::Snapshot::subtract;
///   ratio     — delta numerator over delta denominator, 0 when the
///               denominator did not grow (every other format prints the
///               lifetime ratio, as a gauge).
/// The table interns each series it sees once (for a histogram, each part:
/// its sum, its max and every nonempty bucket), so a window is encoded as
/// bytes: per value its key as a varint, then the value, as a varint for an
/// integer and as 8 bytes for a double. Not thread-safe: its owner
/// (obs::TimeSeriesStore) serializes every call.
class WindowTable {
 public:
  WindowTable();
  ~WindowTable();
  WindowTable(const WindowTable&) = delete;
  WindowTable& operator=(const WindowTable&) = delete;

  /// Append the encoded window from `prev` to `now` to `out`, in
  /// family-table order. A series missing from `prev` counts from zero.
  void window(const perf::MetricsSnapshot& prev,
              const perf::MetricsSnapshot& now, std::vector<uint8_t>& out);

  /// Append `,"<key>":<value>` for each family of the encoded `window` in
  /// `families`, in the shapes of render_metrics(Json).
  void append_json(std::string& out, std::span<const uint8_t> window,
                   const FamilySet& families) const;

  /// The SLO's view of the encoded `window` (t_s left 0).
  SloWindow slo_window(std::span<const uint8_t> window) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swve::obs
