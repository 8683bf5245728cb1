#include "src/obs/metrics_export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string_view>

namespace tsdm {

namespace {

constexpr char kCounter[] = "counter";
constexpr char kGauge[] = "gauge";
constexpr char kSummary[] = "summary";

/// Every exported family name starts with this.
constexpr char kPrefix[] = "tsdm_";

/// `s` as a JSON string literal.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  return out += "\"";
}

/// Escapes a Prometheus label value. The text exposition format defines
/// only \\, \" and \n; a scraper rejects any other escape, so other
/// control bytes pass through raw.
std::string LabelEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out;
}

std::string JoinLabels(std::string a, const std::string& b) {
  if (!a.empty() && !b.empty()) a += ",";
  return a + b;
}

/// One sample line: tsdm_<family><suffix>{<labels>} <value>.
std::string SampleLine(const MetricFamily& family, const char* suffix,
                       const std::string& labels, const std::string& value) {
  std::string line = kPrefix;
  line += family.name;
  line += suffix;
  if (!labels.empty()) line += "{" + labels + "}";
  return line + " " + value + "\n";
}

/// The per-stage body shared by the registry, batch and stream exports.
void DescribeStages(const StageMetricsRegistry& registry, MetricSet* m) {
  static constexpr MetricFamily kInvocations{
      "stage_invocations_total", kCounter,
      "Stage attempts including retries."};
  static constexpr MetricFamily kFailures{
      "stage_failures_total", kCounter, "Stage attempts returning non-OK."};
  static constexpr MetricFamily kRetries{
      "stage_retries_total", kCounter,
      "Re-attempts after a transient stage failure."};
  static constexpr MetricFamily kLatency{
      "stage_latency_seconds", kSummary,
      "Per-attempt stage latency in seconds."};
  m->Announce(kInvocations, kFailures, kRetries, kLatency);
  m->Open("stages");
  for (const auto& [name, stage] : registry.stages()) {
    m->Open(name, {"stage", name});
    m->Add("invocations", stage.invocations, kInvocations);
    m->Add("failures", stage.failures, kFailures);
    m->Add("retries", stage.retries, kRetries);
    m->Latency("latency", stage.latency, kLatency);
    m->Close();
  }
  m->Close();
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

MetricValue MetricValue::Text(const std::string& s) { return {Quoted(s), ""}; }

// --- MetricSet -------------------------------------------------------------

MetricSet::MetricSet() : json_("{") {
  Add("schema_version", MetricsExporter::kSchemaVersion);
}

void MetricSet::Key(const std::string& key) {
  if (json_.back() != '{' && json_.back() != '[') json_ += ",";
  if (scopes_.empty() || !scopes_.back().list) json_ += Quoted(key) + ":";
}

std::string MetricSet::Labels(const MetricLabel& own) const {
  std::string labels = scopes_.empty() ? "" : scopes_.back().labels;
  if (own.name == nullptr) return labels;
  return JoinLabels(labels, std::string(own.name) + "=\"" +
                                LabelEscape(own.value) + "\"");
}

std::string& MetricSet::Samples(const MetricFamily& family) {
  auto it = std::find_if(
      families_.begin(), families_.end(), [&family](const auto& f) {
        return std::string_view(f.first.name) == family.name;
      });
  if (it != families_.end()) return it->second;
  return families_.emplace_back(family, "").second;
}

void MetricSet::Open(const std::string& key, MetricLabel label) {
  Key(key);
  json_ += "{";
  scopes_.push_back({Labels(label), false});
}

void MetricSet::OpenList(const std::string& key) {
  Key(key);
  json_ += "[";
  scopes_.push_back({Labels({}), true});
}

void MetricSet::Close() {
  json_ += scopes_.back().list ? "]" : "}";
  scopes_.pop_back();
}

void MetricSet::Add(const std::string& key, MetricValue value) {
  Key(key);
  json_ += value.json;
}

void MetricSet::Add(const std::string& key, MetricValue value,
                    const MetricFamily& family, MetricLabel label) {
  Samples(family) += SampleLine(family, "", Labels(label), value.prom);
  Add(key, std::move(value));
}

void MetricSet::Latency(const std::string& key, const LatencyHistogram& h,
                        const MetricFamily& family, MetricLabel label) {
  const std::string labels = Labels(label);
  std::string& samples = Samples(family);
  for (double q : {0.5, 0.95, 0.99}) {
    samples += SampleLine(
        family, "", JoinLabels(labels, "quantile=\"" + JsonNumber(q) + "\""),
        JsonNumber(h.QuantileSeconds(q)));
  }
  samples += SampleLine(family, "_sum", labels, JsonNumber(h.total_seconds()));
  samples += SampleLine(family, "_count", labels, std::to_string(h.count()));
  Add(key, {MetricsExporter::LatencyToJson(h), ""});
}

std::string MetricSet::ToPrometheus() const {
  std::string out;
  for (const auto& [family, samples] : families_) {
    const std::string name = std::string(kPrefix) + family.name;
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " + family.type + "\n";
    out += samples;
  }
  return out;
}

// --- Per-type declarations --------------------------------------------------

std::string MetricsExporter::LatencyToJson(const LatencyHistogram& h) {
  return "{\"count\":" + std::to_string(h.count()) +
         ",\"mean_s\":" + JsonNumber(h.MeanSeconds()) +
         ",\"p50_s\":" + JsonNumber(h.QuantileSeconds(0.5)) +
         ",\"p95_s\":" + JsonNumber(h.QuantileSeconds(0.95)) +
         ",\"p99_s\":" + JsonNumber(h.QuantileSeconds(0.99)) +
         ",\"min_s\":" + JsonNumber(h.MinSeconds()) +
         ",\"max_s\":" + JsonNumber(h.MaxSeconds()) + "}";
}

MetricSet MetricsExporter::Describe(const StageMetricsRegistry& registry) {
  MetricSet m;
  DescribeStages(registry, &m);
  return m;
}

MetricSet MetricsExporter::Describe(const BatchReport& report) {
  MetricSet m;
  m.Open("batch");
  m.Add("shards", report.shards.size(), "batch_shards_total", kGauge,
        "Shards in the last batch run.");
  m.Add("ok", report.NumOk());
  m.Add("quarantined", report.NumQuarantined(), "batch_shards_quarantined",
        kGauge, "Shards quarantined by a failing stage in the last batch run.");
  m.Add("attempts_total", report.AttemptsTotal(), "batch_attempts_total",
        kCounter,
        "Stage attempts across all shards including retries (retry pressure).");
  m.Add("threads", report.num_threads, "batch_threads", kGauge,
        "Worker threads used by the last batch run.");
  m.Add("wall_seconds", report.wall_seconds, "batch_wall_seconds", kGauge,
        "Wall-clock seconds of the last batch run.");
  m.Close();
  DescribeStages(report.metrics, &m);
  return m;
}

MetricSet MetricsExporter::Describe(const StreamPipeline& pipeline) {
  MetricSet m;
  m.Open("stream");
  m.Add("ticks", pipeline.ticks_processed(), "stream_ticks_total", kCounter,
        "Ticks fully processed by the pipeline.");
  m.Latency("tick_latency", pipeline.tick_latency(),
            "stream_tick_latency_seconds",
            "End-to-end per-tick latency in seconds.");
  m.Close();
  DescribeStages(pipeline.metrics(), &m);
  return m;
}

MetricSet MetricsExporter::Describe(const ServeStatsSnapshot& s) {
  static constexpr MetricFamily kShed{
      "serve_shed_total", kCounter,
      "Requests shed, by reason (capacity/deadline/closed/evicted)."};
  static constexpr MetricFamily kCacheLookups{
      "serve_cache_lookups_total", kCounter,
      "Sub-path cost cache lookups, by outcome (hit/miss)."};
  static constexpr MetricFamily kStageLatency{
      "serve_stage_latency_seconds", kSummary,
      "Critical-path attribution: per-request time spent in each serving "
      "stage (the four stages partition the e2e latency exactly)."};
  static constexpr MetricFamily kTenantShed{
      "serve_tenant_shed_total", kCounter,
      "Requests shed, by tenant and reason "
      "(capacity/deadline/closed/evicted). Summed over tenants each "
      "reason equals the matching global shed counter."};
  MetricSet m;
  m.Open("serve");
  m.Add("submitted", s.submitted, "serve_submitted_total", kCounter,
        "Requests offered to the front door.");
  m.Add("admitted", s.admitted, "serve_admitted_total", kCounter,
        "Requests admitted past admission control.");
  m.Add("shed_capacity", s.shed_capacity, kShed, {"reason", "capacity"});
  m.Add("shed_expired", s.shed_expired, kShed, {"reason", "deadline"});
  m.Add("shed_closed", s.shed_closed, kShed, {"reason", "closed"});
  m.Add("shed_evicted", s.shed_evicted, kShed, {"reason", "evicted"});
  m.Add("shed_rate", s.ShedRate());
  m.Add("queue_depth", s.queue_depth, "serve_queue_depth", kGauge,
        "Requests currently queued.");
  m.Add("batches", s.batches, "serve_batches_total", kCounter,
        "Micro-batches dispatched to workers.");
  m.Add("batched_requests", s.batched_requests, "serve_batched_requests_total",
        kCounter, "Requests dispatched inside micro-batches.");
  m.Add("max_batch", s.max_batch);
  m.Add("cache_hits", s.cache_hits, kCacheLookups, {"outcome", "hit"});
  m.Add("cache_misses", s.cache_misses, kCacheLookups, {"outcome", "miss"});
  m.Add("cache_evictions", s.cache_evictions, "serve_cache_evictions_total",
        kCounter, "Sub-path cost cache LRU evictions.");
  m.Add("cache_size", s.cache_size, "serve_cache_entries", kGauge,
        "Resident sub-path cost cache entries.");
  m.Add("cache_hit_rate", s.CacheHitRate());
  m.Add("completed", s.completed, "serve_completed_total", kCounter,
        "Requests answered OK.");
  m.Add("failed", s.failed, "serve_failed_total", kCounter,
        "Requests answered with an error.");
  m.Add("workers", s.workers, "serve_workers", kGauge,
        "Current worker pool size.");
  m.Add("scale_events", s.scale_events, "serve_scale_events_total", kCounter,
        "Autoscaler pool resizes.");
  m.Latency("queue_latency", s.queue_latency, "serve_queue_latency_seconds",
            "Admission-to-dispatch latency in seconds.");
  m.Latency("e2e_latency", s.e2e_latency, "serve_latency_seconds",
            "Admission-to-answer latency of answered requests in seconds.");
  m.Open("stage_latency");
  m.Latency("queue", s.stage_queue, kStageLatency, {"stage", "queue"});
  m.Latency("batch", s.stage_batch, kStageLatency, {"stage", "batch"});
  m.Latency("cache", s.stage_cache, kStageLatency, {"stage", "cache"});
  m.Latency("exec", s.stage_exec, kStageLatency, {"stage", "exec"});
  m.Close();
  m.Add("slowest_stage", MetricValue::Text(s.SlowestStage()));
  m.OpenList("tenants");
  for (const TenantServeStats& t : s.tenants) {
    m.Open("", {"tenant", t.tenant});
    m.Add("tenant", MetricValue::Text(t.tenant));
    m.Add("submitted", t.submitted, "serve_tenant_submitted_total", kCounter,
          "Requests offered, by tenant.");
    m.Add("admitted", t.admitted, "serve_tenant_admitted_total", kCounter,
          "Requests admitted, by tenant.");
    m.Add("shed_capacity", t.shed_capacity, kTenantShed,
          {"reason", "capacity"});
    m.Add("shed_expired", t.shed_expired, kTenantShed,
          {"reason", "deadline"});
    m.Add("shed_closed", t.shed_closed, kTenantShed, {"reason", "closed"});
    m.Add("shed_evicted", t.shed_evicted, kTenantShed,
          {"reason", "evicted"});
    m.Add("completed", t.completed, "serve_tenant_completed_total", kCounter,
          "Requests answered OK, by tenant.");
    m.Add("failed", t.failed, "serve_tenant_failed_total", kCounter,
          "Requests answered with an error, by tenant.");
    m.Add("queue_depth", t.queue_depth, "serve_tenant_queue_depth", kGauge,
          "Requests currently queued in the tenant's weighted-fair sub-queue.");
    m.Latency("e2e_latency", t.e2e_latency, "serve_tenant_latency_seconds",
              "Admission-to-answer latency by tenant — the series per-tenant "
              "SLOs (premium p95) alert on.");
    m.Close();
  }
  m.Close();
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const HealthSnapshot& s) {
  static constexpr MetricFamily kValue{
      "health_metric_value", kGauge,
      "Latest sampled value of each watched metric."};
  static constexpr MetricFamily kScore{
      "health_metric_score", kGauge,
      "Prequential anomaly score of each watched metric's latest sample."};
  static constexpr MetricFamily kAnomalies{
      "health_metric_anomalies_total", kCounter,
      "Post-warmup anomaly alarms per watched metric."};
  MetricSet m;
  m.Open("health");
  m.Add("state",
        {Quoted(HealthStateName(s.state)),
         std::to_string(static_cast<int>(s.state))},
        "health_state", kGauge,
        "Self-monitor verdict: 0 healthy, 1 degraded, 2 unhealthy.");
  m.Add("samples", s.samples, "health_samples_total", kCounter,
        "Health sampling rounds completed.");
  m.Add("anomalies_total", s.anomalies_total);
  m.Open("slo");
  m.Add("objective_seconds", s.slo_objective_seconds);
  m.Add("violation_fraction", s.violation_fraction);
  m.Add("burn_rate", s.burn_rate, "health_slo_burn_rate", kGauge,
        "Latency SLO burn over the last sampling interval (1 = spending "
        "exactly the error budget).");
  m.Close();
  m.Add("top_offender", MetricValue::Text(s.top_offender));
  m.Add("top_offender_share", s.top_offender_share);
  m.Announce(kValue, kScore, kAnomalies);
  m.Open("metrics");
  for (const MetricVerdict& v : s.metrics) {
    m.Open(v.name, {"metric", v.name});
    m.Add("value", v.value, kValue);
    m.Add("score", v.score, kScore);
    m.Add("anomalous", v.anomalous);
    m.Add("anomalies", v.anomalies, kAnomalies);
    m.Close();
  }
  m.Close();
  // The transition ring: when the monitor's verdict changed, oldest first,
  // with the evidence of each moment — so /health answers *when* a
  // degradation started, not just what the state is now.
  m.Add("transitions_total", s.transitions_total, "health_transitions_total",
        kCounter,
        "Health-state transitions since Start (flapping shows up here even "
        "after the snapshot's transition ring trims).");
  m.OpenList("transitions");
  for (const HealthTransition& t : s.transitions) {
    m.Open("");
    m.Add("sample", t.sample);
    m.Add("at_ns", t.at_ns);
    m.Add("from", MetricValue::Text(HealthStateName(t.from)));
    m.Add("to", MetricValue::Text(HealthStateName(t.to)));
    m.Add("top_offender", MetricValue::Text(t.top_offender));
    m.Add("burn_rate", t.burn_rate);
    m.Close();
  }
  m.Close();
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const IngestStatsSnapshot& s) {
  const TickParserStats& p = s.parser;
  MetricSet m;
  m.Open("ingest");
  m.Open("parser");
  m.Add("bytes_consumed", p.bytes_consumed, "ingest_bytes_consumed_total",
        kCounter, "Feed bytes consumed by the parser.");
  m.Add("frames_accepted", p.frames_accepted, "ingest_frames_accepted_total",
        kCounter, "Tick frames accepted by the parser.");
  m.Open("rejected");
  for (const auto& [reason, count] :
       {std::pair{"bad_length", p.rejected_bad_length},
        std::pair{"bad_crc", p.rejected_bad_crc},
        std::pair{"bad_sensor", p.rejected_bad_sensor},
        std::pair{"duplicate_seq", p.rejected_duplicate_seq},
        std::pair{"out_of_order", p.rejected_out_of_order}}) {
    m.Add(reason, count, "ingest_frames_rejected_total", kCounter,
          "Tick frames rejected, by reason.", {"reason", reason});
  }
  m.Close();
  m.Add("resync_bytes", p.resync_bytes, "ingest_resync_bytes_total", kCounter,
        "Bytes skipped while hunting for a frame boundary (corruption "
        "debris).");
  m.Add("gaps_detected", p.gaps_detected, "ingest_seq_gaps_total", kCounter,
        "Missing sequence numbers observed at accept time (upstream loss).");
  m.Close();
  m.Open("wal");
  m.Add("enabled", s.wal_enabled);
  m.Add("records", s.wal.records, "ingest_wal_records_total", kCounter,
        "Records appended to the WAL.");
  m.Add("payload_bytes", s.wal.payload_bytes);
  m.Add("appended_bytes", s.wal.appended_bytes,
        "ingest_wal_appended_bytes_total", kCounter,
        "Bytes appended to the WAL including record framing.");
  m.Add("segments_created", s.wal.segments_created);
  m.Add("rotations", s.wal.rotations, "ingest_wal_rotations_total", kCounter,
        "WAL segment rotations.");
  m.Add("syncs", s.wal.syncs, "ingest_wal_syncs_total", kCounter,
        "msync barriers issued on the WAL.");
  m.Close();
  m.Open("recovery");
  m.Add("ticks_replayed", s.recovery.ticks_replayed,
        "ingest_recovery_ticks_replayed", kGauge,
        "Ticks replayed from the WAL by the last Start().");
  m.Add("torn_records_skipped", s.recovery.torn_records_skipped,
        "ingest_recovery_torn_records", kGauge,
        "Torn WAL records detected and skipped by the last Start().");
  m.Add("segments_scanned", s.recovery.segments_scanned);
  m.Add("bytes_scanned", s.recovery.bytes_scanned);
  m.Add("last_lsn", s.recovery.last_lsn);
  m.Add("seconds", s.recovery.seconds, "ingest_recovery_seconds", kGauge,
        "Wall-clock seconds of the last WAL replay.");
  m.Close();
  m.Add("ticks_processed", s.ticks_processed, "ingest_ticks_processed_total",
        kCounter,
        "Ticks fully processed by the ingest pipeline (replay + live).");
  m.Add("anomaly_alarms", s.anomaly_alarms, "ingest_anomaly_alarms_total",
        kCounter, "Anomaly alarms raised on the ingest path.");
  m.Add("buffer_dropped", s.buffer_dropped, "ingest_buffer_dropped_total",
        kCounter,
        "Ticks evicted from the retention buffer by its drop policy.");
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const TraceRecorder& recorder) {
  MetricSet m;
  m.Open("trace");
  m.Add("enabled", TraceRecorder::Enabled());
  m.Add("dropped", recorder.dropped(), "trace_dropped_total", kCounter,
        "Trace spans lost to ring overflow since the last Clear; nonzero means "
        "the exported trace is incomplete (raise SetCapacity).");
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const FlightStatsSnapshot& s) {
  static constexpr MetricFamily kRetained{
      "flight_retained_total", kCounter,
      "Completed requests retained by the retroactive tail policy, by "
      "reason."};
  static constexpr MetricFamily kSpans{
      "flight_spans_total", kCounter,
      "Spans swept into retained records at retention or landed in a "
      "late-span slot, by fate (over-cap spans are counted per record "
      "too)."};
  MetricSet m;
  m.Open("flight");
  m.Add("enabled", s.enabled, "flight_enabled", kGauge,
        "Flight recorder enabled (1) or not (0).");
  m.Add("observed", s.observed, "flight_observed_total", kCounter,
        "Request completions observed by the flight recorder.");
  m.Open("retained");
  m.Add("slo_breach", s.retained_slo, kRetained, {"reason", "slo_breach"});
  m.Add("shed", s.retained_shed, kRetained, {"reason", "shed"});
  m.Add("error", s.retained_error, kRetained, {"reason", "error"});
  m.Add("head_sample", s.retained_sample, kRetained,
        {"reason", "head_sample"});
  m.Add("total", s.RetainedTotal());
  m.Close();
  m.Add("discarded", s.discarded, "flight_discarded_total", kCounter,
        "Completions judged unremarkable; their records were dropped.");
  m.Add("evicted", s.evicted, "flight_evicted_total", kCounter,
        "Retained records displaced from the ring by the per-tenant reservoir "
        "policy.");
  m.Add("spans_captured", s.spans_captured, kSpans, {"fate", "captured"});
  m.Add("spans_dropped", s.spans_dropped, kSpans, {"fate", "dropped"});
  m.Add("retained_records", s.retained_records, "flight_retained_records",
        kGauge, "Records currently in the retained ring.");
  m.Add("dumps", s.dumps, "flight_dumps_total", kCounter,
        "Black-box dumps frozen on worsening health transitions.");
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const NetStatsSnapshot& s) {
  static constexpr MetricFamily kSheds{
      "net_sheds_total", kCounter,
      "Requests shed by socket-layer admission control, by reason."};
  static constexpr MetricFamily kRejected{
      "net_frames_rejected_total", kCounter,
      "Binary frames rejected, by reason."};
  static constexpr MetricFamily kQueries{
      "net_queries_total", kCounter,
      "Binary route queries completed, by outcome."};
  static constexpr MetricFamily kHttpErrors{
      "net_http_errors_total", kCounter,
      "HTTP error responses, by status class."};
  static constexpr MetricFamily kBytes{
      "net_bytes_total", kCounter, "Socket bytes moved, by direction."};
  MetricSet m;
  m.Open("net");
  m.Open("connections");
  m.Add("accepted", s.connections_accepted, "net_connections_total", kCounter,
        "Connections accepted since start.");
  m.Add("closed", s.connections_closed);
  m.Add("active", s.connections_active, "net_connections_active", kGauge,
        "Currently open connections.");
  m.Close();
  m.Open("sheds");
  m.Add("conn_cap", s.shed_conn_cap, kSheds, {"reason", "conn_cap"});
  m.Add("queue_full", s.shed_queue_full, kSheds, {"reason", "queue_full"});
  m.Add("deadline", s.shed_deadline, kSheds, {"reason", "deadline"});
  m.Add("unavailable", s.shed_unavailable, kSheds, {"reason", "unavailable"});
  m.Add("closed", s.shed_closed, kSheds, {"reason", "closed"});
  m.Add("total", s.ShedTotal());
  m.Close();
  m.Open("frames");
  m.Add("bytes_consumed", s.frames.bytes_consumed);
  m.Add("accepted", s.frames.frames_accepted, "net_frames_accepted_total",
        kCounter, "Binary frames accepted by the parser.");
  m.Open("rejected");
  m.Add("bad_length", s.frames.rejected_bad_length, kRejected,
        {"reason", "bad_length"});
  m.Add("bad_crc", s.frames.rejected_bad_crc, kRejected,
        {"reason", "bad_crc"});
  m.Add("bad_opcode", s.rejected_bad_opcode, kRejected,
        {"reason", "bad_opcode"});
  m.Close();
  m.Add("resync_bytes", s.frames.resync_bytes, "net_resync_bytes_total",
        kCounter,
        "Bytes skipped hunting for a frame boundary (corruption debris).");
  m.Close();
  m.Add("queries_answered", s.queries_answered, kQueries,
        {"outcome", "answered"});
  m.Add("queries_failed", s.queries_failed, kQueries, {"outcome", "failed"});
  m.Add("pings", s.pings, "net_pings_total", kCounter, "Ping frames answered.");
  m.Open("http");
  for (const auto& [endpoint, count] :
       {std::pair{"metrics", s.http_metrics},
        std::pair{"health", s.http_health}, std::pair{"query", s.http_query},
        std::pair{"debug_traces", s.http_debug_traces},
        std::pair{"debug_flight", s.http_debug_flight}}) {
    m.Add(endpoint, count, "net_http_requests_total", kCounter,
          "HTTP requests served OK, by endpoint.", {"endpoint", endpoint});
  }
  m.Add("bad_request", s.http_bad_request, kHttpErrors, {"status", "400"});
  m.Add("not_found", s.http_not_found, kHttpErrors, {"status", "404"});
  m.Add("method_not_allowed", s.http_method_not_allowed, kHttpErrors,
        {"status", "405"});
  m.Add("too_large", s.http_too_large, kHttpErrors, {"status", "431"});
  m.Add("errors_total", s.HttpErrorsTotal());
  m.Close();
  m.Add("completions_dropped", s.completions_dropped,
        "net_completions_dropped_total", kCounter,
        "Serve answers whose connection closed before the response was "
        "written.");
  m.Add("bytes_read", s.bytes_read, kBytes, {"direction", "read"});
  m.Add("bytes_written", s.bytes_written, kBytes, {"direction", "written"});
  m.Latency("wire_latency", s.wire_latency, "net_request_latency_seconds",
            "Route query latency on both protocols (binary and POST /query) "
            "in seconds (first byte read to response handed to the "
            "kernel).");
  m.Close();
  return m;
}

MetricSet MetricsExporter::Describe(const ShardStatsSnapshot& s) {
  static constexpr MetricFamily kRouted{
      "shard_routed_total", kCounter,
      "Queries routed, by mode (forward = single-shard pinned, scatter = "
      "cross-shard probe fan-out)."};
  static constexpr MetricFamily kRoutedByShard{
      "shard_routed_by_shard_total", kCounter,
      "Per-shard routing attribution, by kind (forwarded queries / "
      "scatter probes served)."};
  const ShardRouterStats& r = s.router;
  MetricSet m;
  m.Open("shard");
  m.Add("num_shards", r.num_shards, "shard_count", kGauge,
        "Member shards fronted by the router.");
  m.Add("forwarded", r.forwarded, kRouted, {"mode", "forward"});
  m.Add("scattered", r.scattered, kRouted, {"mode", "scatter"});
  m.Add("probes_sent", r.probes_sent, "shard_probes_total", kCounter,
        "Segment cost probes issued by scatters.");
  m.Add("probe_transport_failures", r.probe_transport_failures,
        "shard_probe_transport_failures_total", kCounter,
        "Probes lost to a stopped or overloaded shard (each one turns its "
        "scatter into a typed partial-result error).");
  m.Add("merges", r.merges, "shard_merges_total", kCounter,
        "Scatter answers assembled.");
  m.Add("partial_errors", r.partial_errors, "shard_partial_errors_total",
        kCounter,
        "Scatters answered Status::Unavailable because probes were lost — "
        "degraded capacity surfaces as typed errors, never wrong routes.");
  m.Add("replicated", r.replicated, "shard_cache_replications_total", kCounter,
        "Boundary sub-path cache entries replicated into endpoint-owner "
        "shards.");
  m.Add("enumeration_failures", r.enumeration_failures,
        "shard_enumeration_failures_total", kCounter,
        "Scatters that died at candidate enumeration, before any probe.");
  m.Announce(kRoutedByShard);
  m.OpenList("per_shard");
  for (size_t i = 0; i < s.shards.size(); ++i) {
    const auto at = [i](const std::vector<uint64_t>& v) -> uint64_t {
      return i < v.size() ? v[i] : 0;
    };
    m.Open("", {"shard", std::to_string(i)});
    m.Add("forwarded", at(r.forwarded_per_shard), kRoutedByShard,
          {"kind", "forward"});
    m.Add("probes", at(r.probes_per_shard), kRoutedByShard,
          {"kind", "probe"});
    m.Add("completed", s.shards[i].completed);
    m.Add("failed", s.shards[i].failed);
    m.Add("queue_depth", s.shards[i].queue_depth);
    m.Add("cache_hit_rate", s.shards[i].CacheHitRate());
    m.Close();
  }
  m.Close();
  // The fleet-aggregate serve view, JSON only: on /metrics the serve
  // families come from the "serve" source, whose Stats() is this same
  // aggregate when a SocketServer fronts the router.
  m.Add("aggregate", {Describe(s.Aggregate()).ToJson(), ""});
  m.Close();
  return m;
}

// --- Source registry -------------------------------------------------------

namespace {

/// The process-wide metrics source registry behind ExportPrometheus /
/// ExportJson. Registration order is preserved so the aggregate documents
/// are deterministic.
struct SourceEntry {
  std::string name;
  MetricsExporter::SourceFn describe;
};

struct SourceRegistry {
  std::mutex mu;
  std::vector<SourceEntry> entries;
};

SourceRegistry& Sources() {
  static SourceRegistry* registry = new SourceRegistry();
  return *registry;
}

/// Snapshots the closures under the lock so they run outside it: a
/// source's snapshot function may itself take subsystem locks, and
/// holding the registry lock across user code invites ordering cycles.
std::vector<SourceEntry> SnapshotSources() {
  SourceRegistry& reg = Sources();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.entries;
}

}  // namespace

void MetricsExporter::RegisterSource(const std::string& name,
                                     SourceFn describe) {
  SourceRegistry& reg = Sources();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (SourceEntry& entry : reg.entries) {
    if (entry.name == name) {
      entry.describe = std::move(describe);
      return;
    }
  }
  reg.entries.push_back({name, std::move(describe)});
}

void MetricsExporter::UnregisterSource(const std::string& name) {
  SourceRegistry& reg = Sources();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto it = reg.entries.begin(); it != reg.entries.end(); ++it) {
    if (it->name == name) {
      reg.entries.erase(it);
      return;
    }
  }
}

std::string MetricsExporter::ExportPrometheus() {
  std::string out;
  for (const SourceEntry& entry : SnapshotSources()) {
    out += "# SOURCE " + entry.name + "\n";
    out += entry.describe().ToPrometheus();
  }
  return out;
}

std::string MetricsExporter::ExportJson() {
  MetricSet m;
  m.Open("sources");
  for (const SourceEntry& entry : SnapshotSources()) {
    m.Add(entry.name, {entry.describe().ToJson(), ""});
  }
  m.Close();
  return m.ToJson();
}

}  // namespace tsdm
