#ifndef TSDM_OBS_METRICS_EXPORT_H_
#define TSDM_OBS_METRICS_EXPORT_H_

#include <concepts>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram_ext.h"
#include "src/core/executor.h"
#include "src/ingest/ingest_service.h"
#include "src/net/net_stats.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/serve/serve_stats.h"
#include "src/shard/shard_stats.h"
#include "src/stream/stream_pipeline.h"

namespace tsdm {

/// Escapes `s` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters.
std::string JsonEscape(const std::string& s);

/// Deterministic number formatting shared by every exporter ("%.9g");
/// NaN and infinities are mapped to 0 so no serialized document ever
/// carries a non-numeric token.
std::string JsonNumber(double v);

/// One Prometheus metric family. `name` omits the "tsdm_" prefix every
/// exported family carries.
struct MetricFamily {
  const char* name;
  const char* type;  ///< "counter", "gauge" or "summary"
  const char* help;
};

/// One Prometheus label; `value` is raw and escaped at render time.
struct MetricLabel {
  const char* name = nullptr;  ///< nullptr: no label
  std::string value;
};

/// One exported value in both renderings: numbers read the same in JSON
/// and Prometheus, a bool is true/false in JSON and 1/0 in Prometheus.
struct MetricValue {
  template <std::integral T>
  MetricValue(T v) : json(std::to_string(v)), prom(json) {}
  MetricValue(bool v) : json(v ? "true" : "false"), prom(v ? "1" : "0") {}
  MetricValue(double v) : json(JsonNumber(v)), prom(json) {}
  MetricValue(std::string json_text, std::string prom_text)
      : json(std::move(json_text)), prom(std::move(prom_text)) {}
  /// A JSON-only string value.
  static MetricValue Text(const std::string& s);

  std::string json;
  std::string prom;
};

/// A snapshot's exported values, each declared once: its JSON key and
/// value and, when it is also a Prometheus sample, its family and label.
/// Each declaration is rendered into both forms as it is made: ToJson is
/// one JSON object led by "schema_version" and nested by Open/OpenList/
/// Close; ToPrometheus groups the samples by family, families in
/// first-declared order, each with one HELP and one TYPE line.
class MetricSet {
 public:
  MetricSet();

  /// Opens a JSON object under `key` (ignored inside a list). `label`, if
  /// set, is added to every sample declared until the matching Close.
  void Open(const std::string& key, MetricLabel label = {});
  /// Opens a JSON array under `key`; its elements are Open("") objects.
  void OpenList(const std::string& key);
  /// Closes the innermost Open or OpenList.
  void Close();

  /// Declares a JSON-only value.
  void Add(const std::string& key, MetricValue value);
  /// Declares a value that is also one sample of `family`.
  void Add(const std::string& key, MetricValue value,
           const MetricFamily& family, MetricLabel label = {});
  /// The same, for a family declared nowhere else.
  void Add(const std::string& key, MetricValue value, const char* family,
           const char* type, const char* help, MetricLabel label = {}) {
    Add(key, std::move(value), {family, type, help}, std::move(label));
  }
  /// Declares a histogram: MetricsExporter::LatencyToJson under `key` and
  /// a summary sample set (p50/p95/p99, _sum, _count) of `family`.
  void Latency(const std::string& key, const LatencyHistogram& h,
               const MetricFamily& family, MetricLabel label = {});
  /// The same, for a summary family declared nowhere else.
  void Latency(const std::string& key, const LatencyHistogram& h,
               const char* family, const char* help) {
    Latency(key, h, {family, "summary", help});
  }
  /// Places each family's HELP and TYPE here even if no sample of it
  /// follows (families whose samples come from a possibly empty loop).
  template <typename... Families>
  void Announce(const Families&... families) {
    (Samples(families), ...);
  }

  std::string ToJson() const { return json_ + "}"; }
  std::string ToPrometheus() const;

 private:
  struct Scope {
    std::string labels;  ///< label set every sample in this scope carries
    bool list;
  };

  /// Appends the separator and, outside a list, the quoted key.
  void Key(const std::string& key);
  /// The label set of a sample declared here: the open scopes', then own.
  std::string Labels(const MetricLabel& own) const;
  /// `family`'s sample text, created empty at first use.
  std::string& Samples(const MetricFamily& family);

  std::string json_;
  std::vector<Scope> scopes_;
  std::vector<std::pair<MetricFamily, std::string>> families_;
};

/// Serializes the metrics the subsystems already collect into the two
/// formats a monitoring stack consumes: a schema-versioned JSON document
/// and the Prometheus text exposition format. This is the
/// "self-monitoring" surface of the Fig. 1 loop: the same numbers that
/// drive autoscaling decisions are exported for humans and scrapers
/// without touching the hot paths that produce them.
///
/// Each snapshot type has one Describe overload declaring its exported
/// values; Describe(x).ToJson() and Describe(x).ToPrometheus() render that
/// one declaration.
class MetricsExporter {
 public:
  static constexpr int kSchemaVersion = 1;

  /// One overload per snapshot type; each declares that type's exported
  /// values and the help text of its Prometheus families. The shard
  /// set's JSON nests the fleet-aggregate serve document under
  /// "aggregate"; its Prometheus families belong to the "serve" source.
  static MetricSet Describe(const StageMetricsRegistry& registry);
  static MetricSet Describe(const BatchReport& report);
  static MetricSet Describe(const StreamPipeline& pipeline);
  static MetricSet Describe(const ServeStatsSnapshot& snapshot);
  static MetricSet Describe(const HealthSnapshot& snapshot);
  static MetricSet Describe(const IngestStatsSnapshot& snapshot);
  static MetricSet Describe(const TraceRecorder& recorder);
  static MetricSet Describe(const FlightStatsSnapshot& snapshot);
  static MetricSet Describe(const NetStatsSnapshot& snapshot);
  static MetricSet Describe(const ShardStatsSnapshot& snapshot);

  /// {"count":..,"mean_s":..,"p50_s":..,"p95_s":..,"p99_s":..,"min_s":..,
  ///  "max_s":..} — NaN-free for any histogram state, including empty.
  static std::string LatencyToJson(const LatencyHistogram& h);

  // --- Registration-based aggregate export ------------------------------
  //
  // Each live subsystem registers one describe closure at startup (and
  // unregisters at shutdown); ExportPrometheus/ExportJson then serve the
  // whole process as ONE document. This is what GET /metrics returns:
  // the concatenation, in registration order, of every source's
  // MetricSet, rendered by the same code as the per-type exports above.

  /// Produces this source's current MetricSet (usually Describe(Stats())).
  using SourceFn = std::function<MetricSet()>;

  /// Registers (or replaces, by name) a metrics source. The closure is
  /// invoked on the exporting thread and must be internally synchronized,
  /// like the Stats()/snapshot methods it wraps.
  static void RegisterSource(const std::string& name, SourceFn describe);
  /// Removes a source; unknown names are a no-op. Call before the
  /// underlying subsystem is destroyed — the closure dangles otherwise.
  static void UnregisterSource(const std::string& name);

  /// Concatenates every registered source's Prometheus text in
  /// registration order, separated by `# SOURCE <name>` comment lines.
  static std::string ExportPrometheus();

  /// {"schema_version":1,"sources":{"<name>":<source json>,...}} in
  /// registration order.
  static std::string ExportJson();
};

}  // namespace tsdm

#endif  // TSDM_OBS_METRICS_EXPORT_H_
