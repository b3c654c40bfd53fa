// Machine-readable renderings of perf::MetricsSnapshot.
//
// Every metric family is defined once, in a table in exporters.cpp (name,
// help, type, and one function that emits its samples). Three writers walk
// that table: Prometheus text exposition 0.0.4 (`name{labels} value` lines
// with HELP/TYPE headers, cumulative `le` histogram buckets), plain text
// (the same sample lines without the headers) and JSON (one key per family,
// derived by rule). A family with no samples renders nothing in any format.
// The metric schema is documented in docs/observability.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "obs/slo.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {

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

}  // namespace swve::obs
