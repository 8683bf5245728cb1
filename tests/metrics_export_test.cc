#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/obs/metrics_export.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace tsdm {
namespace {

// Golden tests: the exporter formats are the scrape/ingest surface of the
// system, so they are pinned exactly, mirroring pipeline_report_test.cc.
// Inputs are hand-built with fixed latencies; single-valued histograms
// clamp quantiles to the exact observation, keeping every string
// deterministic.

StageReport MakeStage(const std::string& name, size_t index, Status status,
                      double seconds, int attempts = 1) {
  StageReport sr;
  sr.name = name;
  sr.index = index;
  sr.status = std::move(status);
  sr.seconds = seconds;
  sr.attempts = attempts;
  return sr;
}

StageMetricsRegistry MakeRegistry() {
  StageMetricsRegistry registry;
  StageMetrics& clean = registry.ForStage("governance/clean");
  clean.invocations = 2;
  clean.latency.Add(0.002);
  clean.latency.Add(0.002);
  StageMetrics& impute = registry.ForStage("governance/impute");
  impute.invocations = 1;
  impute.failures = 1;
  impute.latency.Add(0.004);
  return registry;
}

TEST(MetricsExporterTest, GoldenRegistryJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeRegistry()).ToJson(),
      "{\"schema_version\":1,\"stages\":{"
      "\"governance/clean\":{\"invocations\":2,\"failures\":0,\"retries\":0,"
      "\"latency\":{\"count\":2,\"mean_s\":0.002,\"p50_s\":0.002,"
      "\"p95_s\":0.002,\"p99_s\":0.002,\"min_s\":0.002,\"max_s\":0.002}},"
      "\"governance/impute\":{\"invocations\":1,\"failures\":1,\"retries\":0,"
      "\"latency\":{\"count\":1,\"mean_s\":0.004,\"p50_s\":0.004,"
      "\"p95_s\":0.004,\"p99_s\":0.004,\"min_s\":0.004,\"max_s\":0.004}}}}");
}

TEST(MetricsExporterTest, GoldenRegistryPrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeRegistry()).ToPrometheus(),
      "# HELP tsdm_stage_invocations_total Stage attempts including "
      "retries.\n"
      "# TYPE tsdm_stage_invocations_total counter\n"
      "tsdm_stage_invocations_total{stage=\"governance/clean\"} 2\n"
      "tsdm_stage_invocations_total{stage=\"governance/impute\"} 1\n"
      "# HELP tsdm_stage_failures_total Stage attempts returning non-OK.\n"
      "# TYPE tsdm_stage_failures_total counter\n"
      "tsdm_stage_failures_total{stage=\"governance/clean\"} 0\n"
      "tsdm_stage_failures_total{stage=\"governance/impute\"} 1\n"
      "# HELP tsdm_stage_retries_total Re-attempts after a transient stage "
      "failure.\n"
      "# TYPE tsdm_stage_retries_total counter\n"
      "tsdm_stage_retries_total{stage=\"governance/clean\"} 0\n"
      "tsdm_stage_retries_total{stage=\"governance/impute\"} 0\n"
      "# HELP tsdm_stage_latency_seconds Per-attempt stage latency in "
      "seconds.\n"
      "# TYPE tsdm_stage_latency_seconds summary\n"
      "tsdm_stage_latency_seconds{stage=\"governance/clean\","
      "quantile=\"0.5\"} 0.002\n"
      "tsdm_stage_latency_seconds{stage=\"governance/clean\","
      "quantile=\"0.95\"} 0.002\n"
      "tsdm_stage_latency_seconds{stage=\"governance/clean\","
      "quantile=\"0.99\"} 0.002\n"
      "tsdm_stage_latency_seconds_sum{stage=\"governance/clean\"} 0.004\n"
      "tsdm_stage_latency_seconds_count{stage=\"governance/clean\"} 2\n"
      "tsdm_stage_latency_seconds{stage=\"governance/impute\","
      "quantile=\"0.5\"} 0.004\n"
      "tsdm_stage_latency_seconds{stage=\"governance/impute\","
      "quantile=\"0.95\"} 0.004\n"
      "tsdm_stage_latency_seconds{stage=\"governance/impute\","
      "quantile=\"0.99\"} 0.004\n"
      "tsdm_stage_latency_seconds_sum{stage=\"governance/impute\"} 0.004\n"
      "tsdm_stage_latency_seconds_count{stage=\"governance/impute\"} 1\n");
}

BatchReport MakeBatch() {
  BatchReport batch;
  batch.num_threads = 2;
  batch.wall_seconds = 0.5;
  batch.shards.resize(2);
  batch.shards[0].shard = 0;
  batch.shards[0].report.stages.push_back(
      MakeStage("governance/clean", 0, Status::OK(), 0.002));
  batch.shards[1].shard = 1;
  batch.shards[1].report.stages.push_back(
      MakeStage("governance/clean", 0, Status::OK(), 0.002));
  batch.shards[1].report.stages.push_back(
      MakeStage("governance/impute", 1, Status::Internal("disk on fire"),
                0.004, /*attempts=*/3));
  batch.metrics = MakeRegistry();
  return batch;
}

TEST(MetricsExporterTest, GoldenBatchJson) {
  // attempts_total = 1 (shard 0) + 1 + 3 (shard 1, impute retried) = 5.
  EXPECT_EQ(
      MetricsExporter::Describe(MakeBatch()).ToJson(),
      "{\"schema_version\":1,\"batch\":{\"shards\":2,\"ok\":1,"
      "\"quarantined\":1,\"attempts_total\":5,\"threads\":2,"
      "\"wall_seconds\":0.5},\"stages\":{"
      "\"governance/clean\":{\"invocations\":2,\"failures\":0,\"retries\":0,"
      "\"latency\":{\"count\":2,\"mean_s\":0.002,\"p50_s\":0.002,"
      "\"p95_s\":0.002,\"p99_s\":0.002,\"min_s\":0.002,\"max_s\":0.002}},"
      "\"governance/impute\":{\"invocations\":1,\"failures\":1,\"retries\":0,"
      "\"latency\":{\"count\":1,\"mean_s\":0.004,\"p50_s\":0.004,"
      "\"p95_s\":0.004,\"p99_s\":0.004,\"min_s\":0.004,\"max_s\":0.004}}}}");
}

TEST(MetricsExporterTest, GoldenBatchPrometheusPreamble) {
  std::string text = MetricsExporter::Describe(MakeBatch()).ToPrometheus();
  const std::string expected_preamble =
      "# HELP tsdm_batch_shards_total Shards in the last batch run.\n"
      "# TYPE tsdm_batch_shards_total gauge\n"
      "tsdm_batch_shards_total 2\n"
      "# HELP tsdm_batch_shards_quarantined Shards quarantined by a failing "
      "stage in the last batch run.\n"
      "# TYPE tsdm_batch_shards_quarantined gauge\n"
      "tsdm_batch_shards_quarantined 1\n"
      "# HELP tsdm_batch_attempts_total Stage attempts across all shards "
      "including retries (retry pressure).\n"
      "# TYPE tsdm_batch_attempts_total counter\n"
      "tsdm_batch_attempts_total 5\n"
      "# HELP tsdm_batch_threads Worker threads used by the last batch run.\n"
      "# TYPE tsdm_batch_threads gauge\n"
      "tsdm_batch_threads 2\n"
      "# HELP tsdm_batch_wall_seconds Wall-clock seconds of the last batch "
      "run.\n"
      "# TYPE tsdm_batch_wall_seconds gauge\n"
      "tsdm_batch_wall_seconds 0.5\n";
  EXPECT_EQ(text.substr(0, expected_preamble.size()), expected_preamble);
  // The per-stage families follow, pinned by GoldenRegistryPrometheus.
  EXPECT_EQ(text.substr(expected_preamble.size()),
            MetricsExporter::Describe(MakeBatch().metrics).ToPrometheus());
}

TEST(MetricsExporterTest, GoldenStreamJsonAndPrometheusBeforeTicks) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  ASSERT_TRUE(pipeline.Reset(2).ok());
  EXPECT_EQ(
      MetricsExporter::Describe(pipeline).ToJson(),
      "{\"schema_version\":1,\"stream\":{\"ticks\":0,"
      "\"tick_latency\":{\"count\":0,\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,"
      "\"p99_s\":0,\"min_s\":0,\"max_s\":0}},\"stages\":{"
      "\"stream/stats\":{\"invocations\":0,\"failures\":0,\"retries\":0,"
      "\"latency\":{\"count\":0,\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,"
      "\"p99_s\":0,\"min_s\":0,\"max_s\":0}}}}");
  EXPECT_EQ(
      MetricsExporter::Describe(pipeline).ToPrometheus(),
      "# HELP tsdm_stream_ticks_total Ticks fully processed by the "
      "pipeline.\n"
      "# TYPE tsdm_stream_ticks_total counter\n"
      "tsdm_stream_ticks_total 0\n"
      "# HELP tsdm_stream_tick_latency_seconds End-to-end per-tick latency "
      "in seconds.\n"
      "# TYPE tsdm_stream_tick_latency_seconds summary\n"
      "tsdm_stream_tick_latency_seconds{quantile=\"0.5\"} 0\n"
      "tsdm_stream_tick_latency_seconds{quantile=\"0.95\"} 0\n"
      "tsdm_stream_tick_latency_seconds{quantile=\"0.99\"} 0\n"
      "tsdm_stream_tick_latency_seconds_sum 0\n"
      "tsdm_stream_tick_latency_seconds_count 0\n"
      "# HELP tsdm_stage_invocations_total Stage attempts including "
      "retries.\n"
      "# TYPE tsdm_stage_invocations_total counter\n"
      "tsdm_stage_invocations_total{stage=\"stream/stats\"} 0\n"
      "# HELP tsdm_stage_failures_total Stage attempts returning non-OK.\n"
      "# TYPE tsdm_stage_failures_total counter\n"
      "tsdm_stage_failures_total{stage=\"stream/stats\"} 0\n"
      "# HELP tsdm_stage_retries_total Re-attempts after a transient stage "
      "failure.\n"
      "# TYPE tsdm_stage_retries_total counter\n"
      "tsdm_stage_retries_total{stage=\"stream/stats\"} 0\n"
      "# HELP tsdm_stage_latency_seconds Per-attempt stage latency in "
      "seconds.\n"
      "# TYPE tsdm_stage_latency_seconds summary\n"
      "tsdm_stage_latency_seconds{stage=\"stream/stats\",quantile=\"0.5\"} "
      "0\n"
      "tsdm_stage_latency_seconds{stage=\"stream/stats\",quantile=\"0.95\"} "
      "0\n"
      "tsdm_stage_latency_seconds{stage=\"stream/stats\",quantile=\"0.99\"} "
      "0\n"
      "tsdm_stage_latency_seconds_sum{stage=\"stream/stats\"} 0\n"
      "tsdm_stage_latency_seconds_count{stage=\"stream/stats\"} 0\n");
}

TEST(MetricsExporterTest, StreamJsonTracksProcessedTicks) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  ASSERT_TRUE(pipeline.Reset(2).ok());
  for (int i = 0; i < 3; ++i) {
    Tick tick;
    tick.sensor = i % 2;
    tick.timestamp = i;
    tick.value = 1.5 * i;
    ASSERT_TRUE(pipeline.ProcessTick(tick).ok());
  }
  std::string json = MetricsExporter::Describe(pipeline).ToJson();
  EXPECT_NE(json.find("\"ticks\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream/stats\":{\"invocations\":3"),
            std::string::npos)
      << json;
}

TEST(MetricsExporterTest, ServeExportCarriesStageAttribution) {
  ServeStatsSnapshot snap;
  snap.completed = 2;
  snap.e2e_latency.Add(0.010);
  snap.e2e_latency.Add(0.012);
  snap.stage_queue.Add(0.001);
  snap.stage_queue.Add(0.001);
  snap.stage_batch.Add(0.0005);
  snap.stage_batch.Add(0.0005);
  snap.stage_cache.Add(0.003);
  snap.stage_cache.Add(0.004);
  snap.stage_exec.Add(0.0055);
  snap.stage_exec.Add(0.0065);

  std::string json = MetricsExporter::Describe(snap).ToJson();
  EXPECT_NE(json.find("\"stage_latency\":{\"queue\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"slowest_stage\":\"exec\""), std::string::npos)
      << json;

  std::string prom = MetricsExporter::Describe(snap).ToPrometheus();
  for (const char* stage : {"queue", "batch", "cache", "exec"}) {
    EXPECT_NE(
        prom.find("tsdm_serve_stage_latency_seconds_count{stage=\"" +
                  std::string(stage) + "\"} 2"),
        std::string::npos)
        << stage;
  }
}

TEST(MetricsExporterTest, TracePrometheusExportsDroppedSpans) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetCapacity(1 << 16);
  recorder.Clear();
  std::string prom = MetricsExporter::Describe(recorder).ToPrometheus();
  EXPECT_NE(prom.find("# TYPE tsdm_trace_dropped_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tsdm_trace_dropped_total 0\n"), std::string::npos)
      << prom;

  // Overflow a tiny ring: the self-metric must report the loss, so a
  // scraper can tell an incomplete trace from a quiet one.
  recorder.SetCapacity(8);
  recorder.Enable();
  for (int i = 0; i < 40; ++i) {
    TraceSpan span("overflow");
  }
  recorder.Disable();
  recorder.FlushCurrentThread();
  prom = MetricsExporter::Describe(recorder).ToPrometheus();
  EXPECT_NE(prom.find("tsdm_trace_dropped_total 32\n"), std::string::npos)
      << prom;
  recorder.SetCapacity(1 << 16);
  recorder.Clear();
}

// --- Goldens for the serve, health, ingest, net, flight, shard, trace ----

// Hand-built snapshots for the exporter goldens: every exported field
// carries a distinct nonzero value, so a swapped accessor changes the
// output. Histograms hold one repeated observation, so every quantile is
// that exact value.

LatencyHistogram Observed(double seconds, int times) {
  LatencyHistogram h;
  for (int i = 0; i < times; ++i) h.Add(seconds);
  return h;
}

TenantServeStats MakeTenant(const std::string& name, uint64_t base) {
  TenantServeStats t;
  t.tenant = name;
  t.submitted = base + 1;
  t.admitted = base + 2;
  t.shed_capacity = base + 3;
  t.shed_expired = base + 4;
  t.shed_closed = base + 5;
  t.shed_evicted = base + 6;
  t.completed = base + 7;
  t.failed = base + 8;
  t.queue_depth = base + 9;
  t.e2e_latency = Observed(0.001 * static_cast<double>(base), 2);
  return t;
}

ServeStatsSnapshot MakeServe() {
  ServeStatsSnapshot s;
  s.submitted = 101;
  s.admitted = 97;
  s.shed_capacity = 3;
  s.shed_expired = 4;
  s.shed_closed = 5;
  s.shed_evicted = 6;
  s.queue_depth = 7;
  s.batches = 11;
  s.batched_requests = 41;
  s.max_batch = 8;
  s.cache_hits = 60;
  s.cache_misses = 20;
  s.cache_evictions = 9;
  s.cache_size = 12;
  s.completed = 80;
  s.failed = 13;
  s.workers = 14;
  s.scale_events = 15;
  s.queue_latency = Observed(0.001, 1);
  s.e2e_latency = Observed(0.016, 2);
  s.stage_queue = Observed(0.002, 3);
  s.stage_batch = Observed(0.0005, 4);
  s.stage_cache = Observed(0.004, 5);
  s.stage_exec = Observed(0.008, 6);
  s.tenants = {MakeTenant("bronze", 20), MakeTenant("gold", 30)};
  return s;
}

HealthSnapshot MakeHealth() {
  HealthSnapshot s;
  s.state = HealthState::kDegraded;
  s.samples = 21;
  MetricVerdict depth;
  depth.name = "queue_depth";
  depth.value = 3.5;
  depth.score = 2.25;
  depth.anomalous = true;
  depth.anomalies = 4;
  MetricVerdict shed;
  shed.name = "shed_rate";
  shed.value = 0.125;
  shed.score = 0.75;
  shed.anomalous = false;
  shed.anomalies = 1;
  s.metrics = {depth, shed};
  s.slo_objective_seconds = 0.1;
  s.violation_fraction = 0.08;
  s.burn_rate = 1.6;
  s.top_offender = "exec";
  s.top_offender_share = 0.625;
  s.anomalies_total = 5;
  HealthTransition t;
  t.sample = 17;
  t.at_ns = 123456789;
  t.from = HealthState::kHealthy;
  t.to = HealthState::kDegraded;
  t.top_offender = "cache";
  t.burn_rate = 1.25;
  s.transitions = {t};
  s.transitions_total = 3;
  return s;
}

IngestStatsSnapshot MakeIngest() {
  IngestStatsSnapshot s;
  s.parser.bytes_consumed = 4096;
  s.parser.frames_accepted = 150;
  s.parser.rejected_bad_length = 2;
  s.parser.rejected_bad_crc = 3;
  s.parser.rejected_bad_sensor = 4;
  s.parser.rejected_duplicate_seq = 5;
  s.parser.rejected_out_of_order = 6;
  s.parser.resync_bytes = 77;
  s.parser.gaps_detected = 8;
  s.wal_enabled = true;
  s.wal.records = 140;
  s.wal.payload_bytes = 3360;
  s.wal.appended_bytes = 4480;
  s.wal.segments_created = 9;
  s.wal.rotations = 10;
  s.wal.syncs = 11;
  s.recovery.ticks_replayed = 12;
  s.recovery.torn_records_skipped = 13;
  s.recovery.segments_scanned = 14;
  s.recovery.bytes_scanned = 15000;
  s.recovery.last_lsn = 16;
  s.recovery.seconds = 0.25;
  s.ticks_processed = 162;
  s.anomaly_alarms = 18;
  s.buffer_dropped = 19;
  return s;
}

NetStatsSnapshot MakeNet() {
  NetStatsSnapshot s;
  s.connections_accepted = 31;
  s.connections_closed = 29;
  s.connections_active = 2;
  s.shed_conn_cap = 3;
  s.shed_queue_full = 4;
  s.shed_deadline = 5;
  s.shed_unavailable = 22;
  s.shed_closed = 23;
  s.frames.bytes_consumed = 9000;
  s.frames.frames_accepted = 300;
  s.frames.rejected_bad_length = 6;
  s.frames.rejected_bad_crc = 7;
  s.frames.resync_bytes = 8;
  s.rejected_bad_opcode = 9;
  s.queries_answered = 280;
  s.queries_failed = 10;
  s.pings = 11;
  s.http_metrics = 12;
  s.http_health = 13;
  s.http_query = 14;
  s.http_debug_traces = 15;
  s.http_debug_flight = 16;
  s.http_bad_request = 17;
  s.http_not_found = 18;
  s.http_method_not_allowed = 19;
  s.http_too_large = 20;
  s.completions_dropped = 21;
  s.bytes_read = 12000;
  s.bytes_written = 34000;
  s.wire_latency = Observed(0.0002, 3);
  return s;
}

FlightStatsSnapshot MakeFlight() {
  FlightStatsSnapshot s;
  s.enabled = true;
  s.observed = 500;
  s.retained_slo = 2;
  s.retained_shed = 3;
  s.retained_error = 4;
  s.retained_sample = 5;
  s.discarded = 486;
  s.evicted = 6;
  s.spans_captured = 800;
  s.spans_dropped = 9;
  s.dumps = 10;
  s.retained_records = 12;
  return s;
}

ShardStatsSnapshot MakeShard() {
  ShardStatsSnapshot s;
  s.router.num_shards = 2;
  s.router.forwarded = 40;
  s.router.scattered = 5;
  s.router.probes_sent = 16;
  s.router.probe_transport_failures = 1;
  s.router.merges = 4;
  s.router.partial_errors = 6;
  s.router.replicated = 7;
  s.router.enumeration_failures = 8;
  s.router.forwarded_per_shard = {22, 18};
  s.router.probes_per_shard = {9, 7};
  s.shards.resize(2);
  s.shards[0].submitted = 31;
  s.shards[0].completed = 25;
  s.shards[0].failed = 2;
  s.shards[0].queue_depth = 3;
  s.shards[0].cache_hits = 3;
  s.shards[0].cache_misses = 1;
  s.shards[1].submitted = 27;
  s.shards[1].completed = 19;
  s.shards[1].failed = 4;
  s.shards[1].queue_depth = 5;
  s.shards[1].cache_hits = 1;
  s.shards[1].cache_misses = 4;
  return s;
}

TEST(MetricsExporterTest, GoldenServeJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeServe()).ToJson(),
      "{\"schema_version\":1,\"serve\":{\"submitted\":101,\"admitted\":97,"
      "\"shed_capacity\":3,\"shed_expired\":4,\"shed_closed\":5,"
      "\"shed_evicted\":6,\"shed_rate\":0.178217822,\"queue_depth\":7,"
      "\"batches\":11,\"batched_requests\":41,\"max_batch\":8,"
      "\"cache_hits\":60,\"cache_misses\":20,\"cache_evictions\":9,"
      "\"cache_size\":12,\"cache_hit_rate\":0.75,\"completed\":80,"
      "\"failed\":13,\"workers\":14,\"scale_events\":15,\"queue_latency\":{"
      "\"count\":1,\"mean_s\":0.001,\"p50_s\":0.001,\"p95_s\":0.001,"
      "\"p99_s\":0.001,\"min_s\":0.001,\"max_s\":0.001},\"e2e_latency\":{"
      "\"count\":2,\"mean_s\":0.016,\"p50_s\":0.016,\"p95_s\":0.016,"
      "\"p99_s\":0.016,\"min_s\":0.016,\"max_s\":0.016},\"stage_latency\":{"
      "\"queue\":{\"count\":3,\"mean_s\":0.002,\"p50_s\":0.002,\"p95_s\":0.002,"
      "\"p99_s\":0.002,\"min_s\":0.002,\"max_s\":0.002},\"batch\":{\"count\":4,"
      "\"mean_s\":0.0005,\"p50_s\":0.0005,\"p95_s\":0.0005,\"p99_s\":0.0005,"
      "\"min_s\":0.0005,\"max_s\":0.0005},\"cache\":{\"count\":5,"
      "\"mean_s\":0.004,\"p50_s\":0.004,\"p95_s\":0.004,\"p99_s\":0.004,"
      "\"min_s\":0.004,\"max_s\":0.004},\"exec\":{\"count\":6,\"mean_s\":0.008,"
      "\"p50_s\":0.008,\"p95_s\":0.008,\"p99_s\":0.008,\"min_s\":0.008,"
      "\"max_s\":0.008}},\"slowest_stage\":\"exec\",\"tenants\":[{"
      "\"tenant\":\"bronze\",\"submitted\":21,\"admitted\":22,"
      "\"shed_capacity\":23,\"shed_expired\":24,\"shed_closed\":25,"
      "\"shed_evicted\":26,\"completed\":27,\"failed\":28,\"queue_depth\":29,"
      "\"e2e_latency\":{\"count\":2,\"mean_s\":0.02,\"p50_s\":0.02,"
      "\"p95_s\":0.02,\"p99_s\":0.02,\"min_s\":0.02,\"max_s\":0.02}},{"
      "\"tenant\":\"gold\",\"submitted\":31,\"admitted\":32,"
      "\"shed_capacity\":33,\"shed_expired\":34,\"shed_closed\":35,"
      "\"shed_evicted\":36,\"completed\":37,\"failed\":38,\"queue_depth\":39,"
      "\"e2e_latency\":{\"count\":2,\"mean_s\":0.03,\"p50_s\":0.03,"
      "\"p95_s\":0.03,\"p99_s\":0.03,\"min_s\":0.03,\"max_s\":0.03}}]}}");
}

TEST(MetricsExporterTest, GoldenServePrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeServe()).ToPrometheus(),
      "# HELP tsdm_serve_submitted_total Requests offered to the front door.\n"
      "# TYPE tsdm_serve_submitted_total counter\n"
      "tsdm_serve_submitted_total 101\n"
      "# HELP tsdm_serve_admitted_total Requests admitted past admission "
      "control.\n"
      "# TYPE tsdm_serve_admitted_total counter\n"
      "tsdm_serve_admitted_total 97\n"
      "# HELP tsdm_serve_shed_total Requests shed, by reason "
      "(capacity/deadline/closed/evicted).\n"
      "# TYPE tsdm_serve_shed_total counter\n"
      "tsdm_serve_shed_total{reason=\"capacity\"} 3\n"
      "tsdm_serve_shed_total{reason=\"deadline\"} 4\n"
      "tsdm_serve_shed_total{reason=\"closed\"} 5\n"
      "tsdm_serve_shed_total{reason=\"evicted\"} 6\n"
      "# HELP tsdm_serve_queue_depth Requests currently queued.\n"
      "# TYPE tsdm_serve_queue_depth gauge\n"
      "tsdm_serve_queue_depth 7\n"
      "# HELP tsdm_serve_batches_total Micro-batches dispatched to workers.\n"
      "# TYPE tsdm_serve_batches_total counter\n"
      "tsdm_serve_batches_total 11\n"
      "# HELP tsdm_serve_batched_requests_total Requests dispatched inside "
      "micro-batches.\n"
      "# TYPE tsdm_serve_batched_requests_total counter\n"
      "tsdm_serve_batched_requests_total 41\n"
      "# HELP tsdm_serve_cache_lookups_total Sub-path cost cache lookups, by "
      "outcome (hit/miss).\n"
      "# TYPE tsdm_serve_cache_lookups_total counter\n"
      "tsdm_serve_cache_lookups_total{outcome=\"hit\"} 60\n"
      "tsdm_serve_cache_lookups_total{outcome=\"miss\"} 20\n"
      "# HELP tsdm_serve_cache_evictions_total Sub-path cost cache LRU "
      "evictions.\n"
      "# TYPE tsdm_serve_cache_evictions_total counter\n"
      "tsdm_serve_cache_evictions_total 9\n"
      "# HELP tsdm_serve_cache_entries Resident sub-path cost cache entries.\n"
      "# TYPE tsdm_serve_cache_entries gauge\n"
      "tsdm_serve_cache_entries 12\n"
      "# HELP tsdm_serve_completed_total Requests answered OK.\n"
      "# TYPE tsdm_serve_completed_total counter\n"
      "tsdm_serve_completed_total 80\n"
      "# HELP tsdm_serve_failed_total Requests answered with an error.\n"
      "# TYPE tsdm_serve_failed_total counter\n"
      "tsdm_serve_failed_total 13\n"
      "# HELP tsdm_serve_workers Current worker pool size.\n"
      "# TYPE tsdm_serve_workers gauge\n"
      "tsdm_serve_workers 14\n"
      "# HELP tsdm_serve_scale_events_total Autoscaler pool resizes.\n"
      "# TYPE tsdm_serve_scale_events_total counter\n"
      "tsdm_serve_scale_events_total 15\n"
      "# HELP tsdm_serve_queue_latency_seconds Admission-to-dispatch latency "
      "in seconds.\n"
      "# TYPE tsdm_serve_queue_latency_seconds summary\n"
      "tsdm_serve_queue_latency_seconds{quantile=\"0.5\"} 0.001\n"
      "tsdm_serve_queue_latency_seconds{quantile=\"0.95\"} 0.001\n"
      "tsdm_serve_queue_latency_seconds{quantile=\"0.99\"} 0.001\n"
      "tsdm_serve_queue_latency_seconds_sum 0.001\n"
      "tsdm_serve_queue_latency_seconds_count 1\n"
      "# HELP tsdm_serve_latency_seconds Admission-to-answer latency of "
      "answered requests in seconds.\n"
      "# TYPE tsdm_serve_latency_seconds summary\n"
      "tsdm_serve_latency_seconds{quantile=\"0.5\"} 0.016\n"
      "tsdm_serve_latency_seconds{quantile=\"0.95\"} 0.016\n"
      "tsdm_serve_latency_seconds{quantile=\"0.99\"} 0.016\n"
      "tsdm_serve_latency_seconds_sum 0.032\n"
      "tsdm_serve_latency_seconds_count 2\n"
      "# HELP tsdm_serve_stage_latency_seconds Critical-path attribution: "
      "per-request time spent in each serving stage (the four stages partition "
      "the e2e latency exactly).\n"
      "# TYPE tsdm_serve_stage_latency_seconds summary\n"
      "tsdm_serve_stage_latency_seconds{stage=\"queue\",quantile=\"0.5\"} "
      "0.002\n"
      "tsdm_serve_stage_latency_seconds{stage=\"queue\",quantile=\"0.95\"} "
      "0.002\n"
      "tsdm_serve_stage_latency_seconds{stage=\"queue\",quantile=\"0.99\"} "
      "0.002\n"
      "tsdm_serve_stage_latency_seconds_sum{stage=\"queue\"} 0.006\n"
      "tsdm_serve_stage_latency_seconds_count{stage=\"queue\"} 3\n"
      "tsdm_serve_stage_latency_seconds{stage=\"batch\",quantile=\"0.5\"} "
      "0.0005\n"
      "tsdm_serve_stage_latency_seconds{stage=\"batch\",quantile=\"0.95\"} "
      "0.0005\n"
      "tsdm_serve_stage_latency_seconds{stage=\"batch\",quantile=\"0.99\"} "
      "0.0005\n"
      "tsdm_serve_stage_latency_seconds_sum{stage=\"batch\"} 0.002\n"
      "tsdm_serve_stage_latency_seconds_count{stage=\"batch\"} 4\n"
      "tsdm_serve_stage_latency_seconds{stage=\"cache\",quantile=\"0.5\"} "
      "0.004\n"
      "tsdm_serve_stage_latency_seconds{stage=\"cache\",quantile=\"0.95\"} "
      "0.004\n"
      "tsdm_serve_stage_latency_seconds{stage=\"cache\",quantile=\"0.99\"} "
      "0.004\n"
      "tsdm_serve_stage_latency_seconds_sum{stage=\"cache\"} 0.02\n"
      "tsdm_serve_stage_latency_seconds_count{stage=\"cache\"} 5\n"
      "tsdm_serve_stage_latency_seconds{stage=\"exec\",quantile=\"0.5\"} "
      "0.008\n"
      "tsdm_serve_stage_latency_seconds{stage=\"exec\",quantile=\"0.95\"} "
      "0.008\n"
      "tsdm_serve_stage_latency_seconds{stage=\"exec\",quantile=\"0.99\"} "
      "0.008\n"
      "tsdm_serve_stage_latency_seconds_sum{stage=\"exec\"} 0.048\n"
      "tsdm_serve_stage_latency_seconds_count{stage=\"exec\"} 6\n"
      "# HELP tsdm_serve_tenant_submitted_total Requests offered, by tenant.\n"
      "# TYPE tsdm_serve_tenant_submitted_total counter\n"
      "tsdm_serve_tenant_submitted_total{tenant=\"bronze\"} 21\n"
      "tsdm_serve_tenant_submitted_total{tenant=\"gold\"} 31\n"
      "# HELP tsdm_serve_tenant_admitted_total Requests admitted, by tenant.\n"
      "# TYPE tsdm_serve_tenant_admitted_total counter\n"
      "tsdm_serve_tenant_admitted_total{tenant=\"bronze\"} 22\n"
      "tsdm_serve_tenant_admitted_total{tenant=\"gold\"} 32\n"
      "# HELP tsdm_serve_tenant_shed_total Requests shed, by tenant and reason "
      "(capacity/deadline/closed/evicted). Summed over tenants each reason "
      "equals the matching global shed counter.\n"
      "# TYPE tsdm_serve_tenant_shed_total counter\n"
      "tsdm_serve_tenant_shed_total{tenant=\"bronze\",reason=\"capacity\"} 23\n"
      "tsdm_serve_tenant_shed_total{tenant=\"bronze\",reason=\"deadline\"} 24\n"
      "tsdm_serve_tenant_shed_total{tenant=\"bronze\",reason=\"closed\"} 25\n"
      "tsdm_serve_tenant_shed_total{tenant=\"bronze\",reason=\"evicted\"} 26\n"
      "tsdm_serve_tenant_shed_total{tenant=\"gold\",reason=\"capacity\"} 33\n"
      "tsdm_serve_tenant_shed_total{tenant=\"gold\",reason=\"deadline\"} 34\n"
      "tsdm_serve_tenant_shed_total{tenant=\"gold\",reason=\"closed\"} 35\n"
      "tsdm_serve_tenant_shed_total{tenant=\"gold\",reason=\"evicted\"} 36\n"
      "# HELP tsdm_serve_tenant_completed_total Requests answered OK, by "
      "tenant.\n"
      "# TYPE tsdm_serve_tenant_completed_total counter\n"
      "tsdm_serve_tenant_completed_total{tenant=\"bronze\"} 27\n"
      "tsdm_serve_tenant_completed_total{tenant=\"gold\"} 37\n"
      "# HELP tsdm_serve_tenant_failed_total Requests answered with an error, "
      "by tenant.\n"
      "# TYPE tsdm_serve_tenant_failed_total counter\n"
      "tsdm_serve_tenant_failed_total{tenant=\"bronze\"} 28\n"
      "tsdm_serve_tenant_failed_total{tenant=\"gold\"} 38\n"
      "# HELP tsdm_serve_tenant_queue_depth Requests currently queued in the "
      "tenant's weighted-fair sub-queue.\n"
      "# TYPE tsdm_serve_tenant_queue_depth gauge\n"
      "tsdm_serve_tenant_queue_depth{tenant=\"bronze\"} 29\n"
      "tsdm_serve_tenant_queue_depth{tenant=\"gold\"} 39\n"
      "# HELP tsdm_serve_tenant_latency_seconds Admission-to-answer latency by "
      "tenant — the series per-tenant SLOs (premium p95) alert on.\n"
      "# TYPE tsdm_serve_tenant_latency_seconds summary\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"bronze\",quantile=\"0.5\"} "
      "0.02\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"bronze\",quantile=\"0.95\"} "
      "0.02\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"bronze\",quantile=\"0.99\"} "
      "0.02\n"
      "tsdm_serve_tenant_latency_seconds_sum{tenant=\"bronze\"} 0.04\n"
      "tsdm_serve_tenant_latency_seconds_count{tenant=\"bronze\"} 2\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"gold\",quantile=\"0.5\"} "
      "0.03\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"gold\",quantile=\"0.95\"} "
      "0.03\n"
      "tsdm_serve_tenant_latency_seconds{tenant=\"gold\",quantile=\"0.99\"} "
      "0.03\n"
      "tsdm_serve_tenant_latency_seconds_sum{tenant=\"gold\"} 0.06\n"
      "tsdm_serve_tenant_latency_seconds_count{tenant=\"gold\"} 2\n");
}

TEST(MetricsExporterTest, GoldenHealthJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeHealth()).ToJson(),
      "{\"schema_version\":1,\"health\":{\"state\":\"degraded\",\"samples\":21,"
      "\"anomalies_total\":5,\"slo\":{\"objective_seconds\":0.1,"
      "\"violation_fraction\":0.08,\"burn_rate\":1.6},"
      "\"top_offender\":\"exec\",\"top_offender_share\":0.625,\"metrics\":{"
      "\"queue_depth\":{\"value\":3.5,\"score\":2.25,\"anomalous\":true,"
      "\"anomalies\":4},\"shed_rate\":{\"value\":0.125,\"score\":0.75,"
      "\"anomalous\":false,\"anomalies\":1}},\"transitions_total\":3,"
      "\"transitions\":[{\"sample\":17,\"at_ns\":123456789,"
      "\"from\":\"healthy\",\"to\":\"degraded\",\"top_offender\":\"cache\","
      "\"burn_rate\":1.25}]}}");
}

TEST(MetricsExporterTest, GoldenHealthPrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeHealth()).ToPrometheus(),
      "# HELP tsdm_health_state Self-monitor verdict: 0 healthy, 1 degraded, 2 "
      "unhealthy.\n"
      "# TYPE tsdm_health_state gauge\n"
      "tsdm_health_state 1\n"
      "# HELP tsdm_health_samples_total Health sampling rounds completed.\n"
      "# TYPE tsdm_health_samples_total counter\n"
      "tsdm_health_samples_total 21\n"
      "# HELP tsdm_health_slo_burn_rate Latency SLO burn over the last "
      "sampling interval (1 = spending exactly the error budget).\n"
      "# TYPE tsdm_health_slo_burn_rate gauge\n"
      "tsdm_health_slo_burn_rate 1.6\n"
      "# HELP tsdm_health_metric_value Latest sampled value of each watched "
      "metric.\n"
      "# TYPE tsdm_health_metric_value gauge\n"
      "tsdm_health_metric_value{metric=\"queue_depth\"} 3.5\n"
      "tsdm_health_metric_value{metric=\"shed_rate\"} 0.125\n"
      "# HELP tsdm_health_metric_score Prequential anomaly score of each "
      "watched metric's latest sample.\n"
      "# TYPE tsdm_health_metric_score gauge\n"
      "tsdm_health_metric_score{metric=\"queue_depth\"} 2.25\n"
      "tsdm_health_metric_score{metric=\"shed_rate\"} 0.75\n"
      "# HELP tsdm_health_metric_anomalies_total Post-warmup anomaly alarms "
      "per watched metric.\n"
      "# TYPE tsdm_health_metric_anomalies_total counter\n"
      "tsdm_health_metric_anomalies_total{metric=\"queue_depth\"} 4\n"
      "tsdm_health_metric_anomalies_total{metric=\"shed_rate\"} 1\n"
      "# HELP tsdm_health_transitions_total Health-state transitions since "
      "Start (flapping shows up here even after the snapshot's transition ring "
      "trims).\n"
      "# TYPE tsdm_health_transitions_total counter\n"
      "tsdm_health_transitions_total 3\n");
}

TEST(MetricsExporterTest, GoldenIngestJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeIngest()).ToJson(),
      "{\"schema_version\":1,\"ingest\":{\"parser\":{\"bytes_consumed\":4096,"
      "\"frames_accepted\":150,\"rejected\":{\"bad_length\":2,\"bad_crc\":3,"
      "\"bad_sensor\":4,\"duplicate_seq\":5,\"out_of_order\":6},"
      "\"resync_bytes\":77,\"gaps_detected\":8},\"wal\":{\"enabled\":true,"
      "\"records\":140,\"payload_bytes\":3360,\"appended_bytes\":4480,"
      "\"segments_created\":9,\"rotations\":10,\"syncs\":11},\"recovery\":{"
      "\"ticks_replayed\":12,\"torn_records_skipped\":13,"
      "\"segments_scanned\":14,\"bytes_scanned\":15000,\"last_lsn\":16,"
      "\"seconds\":0.25},\"ticks_processed\":162,\"anomaly_alarms\":18,"
      "\"buffer_dropped\":19}}");
}

TEST(MetricsExporterTest, GoldenIngestPrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeIngest()).ToPrometheus(),
      "# HELP tsdm_ingest_bytes_consumed_total Feed bytes consumed by the "
      "parser.\n"
      "# TYPE tsdm_ingest_bytes_consumed_total counter\n"
      "tsdm_ingest_bytes_consumed_total 4096\n"
      "# HELP tsdm_ingest_frames_accepted_total Tick frames accepted by the "
      "parser.\n"
      "# TYPE tsdm_ingest_frames_accepted_total counter\n"
      "tsdm_ingest_frames_accepted_total 150\n"
      "# HELP tsdm_ingest_frames_rejected_total Tick frames rejected, by "
      "reason.\n"
      "# TYPE tsdm_ingest_frames_rejected_total counter\n"
      "tsdm_ingest_frames_rejected_total{reason=\"bad_length\"} 2\n"
      "tsdm_ingest_frames_rejected_total{reason=\"bad_crc\"} 3\n"
      "tsdm_ingest_frames_rejected_total{reason=\"bad_sensor\"} 4\n"
      "tsdm_ingest_frames_rejected_total{reason=\"duplicate_seq\"} 5\n"
      "tsdm_ingest_frames_rejected_total{reason=\"out_of_order\"} 6\n"
      "# HELP tsdm_ingest_resync_bytes_total Bytes skipped while hunting for a "
      "frame boundary (corruption debris).\n"
      "# TYPE tsdm_ingest_resync_bytes_total counter\n"
      "tsdm_ingest_resync_bytes_total 77\n"
      "# HELP tsdm_ingest_seq_gaps_total Missing sequence numbers observed at "
      "accept time (upstream loss).\n"
      "# TYPE tsdm_ingest_seq_gaps_total counter\n"
      "tsdm_ingest_seq_gaps_total 8\n"
      "# HELP tsdm_ingest_wal_records_total Records appended to the WAL.\n"
      "# TYPE tsdm_ingest_wal_records_total counter\n"
      "tsdm_ingest_wal_records_total 140\n"
      "# HELP tsdm_ingest_wal_appended_bytes_total Bytes appended to the WAL "
      "including record framing.\n"
      "# TYPE tsdm_ingest_wal_appended_bytes_total counter\n"
      "tsdm_ingest_wal_appended_bytes_total 4480\n"
      "# HELP tsdm_ingest_wal_rotations_total WAL segment rotations.\n"
      "# TYPE tsdm_ingest_wal_rotations_total counter\n"
      "tsdm_ingest_wal_rotations_total 10\n"
      "# HELP tsdm_ingest_wal_syncs_total msync barriers issued on the WAL.\n"
      "# TYPE tsdm_ingest_wal_syncs_total counter\n"
      "tsdm_ingest_wal_syncs_total 11\n"
      "# HELP tsdm_ingest_recovery_ticks_replayed Ticks replayed from the WAL "
      "by the last Start().\n"
      "# TYPE tsdm_ingest_recovery_ticks_replayed gauge\n"
      "tsdm_ingest_recovery_ticks_replayed 12\n"
      "# HELP tsdm_ingest_recovery_torn_records Torn WAL records detected and "
      "skipped by the last Start().\n"
      "# TYPE tsdm_ingest_recovery_torn_records gauge\n"
      "tsdm_ingest_recovery_torn_records 13\n"
      "# HELP tsdm_ingest_recovery_seconds Wall-clock seconds of the last WAL "
      "replay.\n"
      "# TYPE tsdm_ingest_recovery_seconds gauge\n"
      "tsdm_ingest_recovery_seconds 0.25\n"
      "# HELP tsdm_ingest_ticks_processed_total Ticks fully processed by the "
      "ingest pipeline (replay + live).\n"
      "# TYPE tsdm_ingest_ticks_processed_total counter\n"
      "tsdm_ingest_ticks_processed_total 162\n"
      "# HELP tsdm_ingest_anomaly_alarms_total Anomaly alarms raised on the "
      "ingest path.\n"
      "# TYPE tsdm_ingest_anomaly_alarms_total counter\n"
      "tsdm_ingest_anomaly_alarms_total 18\n"
      "# HELP tsdm_ingest_buffer_dropped_total Ticks evicted from the "
      "retention buffer by its drop policy.\n"
      "# TYPE tsdm_ingest_buffer_dropped_total counter\n"
      "tsdm_ingest_buffer_dropped_total 19\n");
}

TEST(MetricsExporterTest, GoldenNetJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeNet()).ToJson(),
      "{\"schema_version\":1,\"net\":{\"connections\":{\"accepted\":31,"
      "\"closed\":29,\"active\":2},\"sheds\":{\"conn_cap\":3,\"queue_full\":4,"
      "\"deadline\":5,\"unavailable\":22,\"closed\":23,\"total\":57},"
      "\"frames\":{\"bytes_consumed\":9000,"
      "\"accepted\":300,\"rejected\":{\"bad_length\":6,\"bad_crc\":7,"
      "\"bad_opcode\":9},\"resync_bytes\":8},\"queries_answered\":280,"
      "\"queries_failed\":10,\"pings\":11,\"http\":{\"metrics\":12,"
      "\"health\":13,\"query\":14,\"debug_traces\":15,\"debug_flight\":16,"
      "\"bad_request\":17,\"not_found\":18,\"method_not_allowed\":19,"
      "\"too_large\":20,\"errors_total\":74},\"completions_dropped\":21,"
      "\"bytes_read\":12000,\"bytes_written\":34000,\"wire_latency\":{"
      "\"count\":3,\"mean_s\":0.0002,\"p50_s\":0.0002,\"p95_s\":0.0002,"
      "\"p99_s\":0.0002,\"min_s\":0.0002,\"max_s\":0.0002}}}");
}

TEST(MetricsExporterTest, GoldenNetPrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeNet()).ToPrometheus(),
      "# HELP tsdm_net_connections_total Connections accepted since start.\n"
      "# TYPE tsdm_net_connections_total counter\n"
      "tsdm_net_connections_total 31\n"
      "# HELP tsdm_net_connections_active Currently open connections.\n"
      "# TYPE tsdm_net_connections_active gauge\n"
      "tsdm_net_connections_active 2\n"
      "# HELP tsdm_net_sheds_total Requests shed by socket-layer admission "
      "control, by reason.\n"
      "# TYPE tsdm_net_sheds_total counter\n"
      "tsdm_net_sheds_total{reason=\"conn_cap\"} 3\n"
      "tsdm_net_sheds_total{reason=\"queue_full\"} 4\n"
      "tsdm_net_sheds_total{reason=\"deadline\"} 5\n"
      "tsdm_net_sheds_total{reason=\"unavailable\"} 22\n"
      "tsdm_net_sheds_total{reason=\"closed\"} 23\n"
      "# HELP tsdm_net_frames_accepted_total Binary frames accepted by the "
      "parser.\n"
      "# TYPE tsdm_net_frames_accepted_total counter\n"
      "tsdm_net_frames_accepted_total 300\n"
      "# HELP tsdm_net_frames_rejected_total Binary frames rejected, by "
      "reason.\n"
      "# TYPE tsdm_net_frames_rejected_total counter\n"
      "tsdm_net_frames_rejected_total{reason=\"bad_length\"} 6\n"
      "tsdm_net_frames_rejected_total{reason=\"bad_crc\"} 7\n"
      "tsdm_net_frames_rejected_total{reason=\"bad_opcode\"} 9\n"
      "# HELP tsdm_net_resync_bytes_total Bytes skipped hunting for a frame "
      "boundary (corruption debris).\n"
      "# TYPE tsdm_net_resync_bytes_total counter\n"
      "tsdm_net_resync_bytes_total 8\n"
      "# HELP tsdm_net_queries_total Binary route queries completed, by "
      "outcome.\n"
      "# TYPE tsdm_net_queries_total counter\n"
      "tsdm_net_queries_total{outcome=\"answered\"} 280\n"
      "tsdm_net_queries_total{outcome=\"failed\"} 10\n"
      "# HELP tsdm_net_pings_total Ping frames answered.\n"
      "# TYPE tsdm_net_pings_total counter\n"
      "tsdm_net_pings_total 11\n"
      "# HELP tsdm_net_http_requests_total HTTP requests served OK, by "
      "endpoint.\n"
      "# TYPE tsdm_net_http_requests_total counter\n"
      "tsdm_net_http_requests_total{endpoint=\"metrics\"} 12\n"
      "tsdm_net_http_requests_total{endpoint=\"health\"} 13\n"
      "tsdm_net_http_requests_total{endpoint=\"query\"} 14\n"
      "tsdm_net_http_requests_total{endpoint=\"debug_traces\"} 15\n"
      "tsdm_net_http_requests_total{endpoint=\"debug_flight\"} 16\n"
      "# HELP tsdm_net_http_errors_total HTTP error responses, by status "
      "class.\n"
      "# TYPE tsdm_net_http_errors_total counter\n"
      "tsdm_net_http_errors_total{status=\"400\"} 17\n"
      "tsdm_net_http_errors_total{status=\"404\"} 18\n"
      "tsdm_net_http_errors_total{status=\"405\"} 19\n"
      "tsdm_net_http_errors_total{status=\"431\"} 20\n"
      "# HELP tsdm_net_completions_dropped_total Serve answers whose "
      "connection closed before the response was written.\n"
      "# TYPE tsdm_net_completions_dropped_total counter\n"
      "tsdm_net_completions_dropped_total 21\n"
      "# HELP tsdm_net_bytes_total Socket bytes moved, by direction.\n"
      "# TYPE tsdm_net_bytes_total counter\n"
      "tsdm_net_bytes_total{direction=\"read\"} 12000\n"
      "tsdm_net_bytes_total{direction=\"written\"} 34000\n"
      "# HELP tsdm_net_request_latency_seconds Route query latency on both "
      "protocols (binary and POST /query) in seconds (first byte read to "
      "response handed to the kernel).\n"
      "# TYPE tsdm_net_request_latency_seconds summary\n"
      "tsdm_net_request_latency_seconds{quantile=\"0.5\"} 0.0002\n"
      "tsdm_net_request_latency_seconds{quantile=\"0.95\"} 0.0002\n"
      "tsdm_net_request_latency_seconds{quantile=\"0.99\"} 0.0002\n"
      "tsdm_net_request_latency_seconds_sum 0.0006\n"
      "tsdm_net_request_latency_seconds_count 3\n");
}

TEST(MetricsExporterTest, GoldenFlightJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeFlight()).ToJson(),
      "{\"schema_version\":1,\"flight\":{\"enabled\":true,\"observed\":500,"
      "\"retained\":{\"slo_breach\":2,\"shed\":3,\"error\":4,\"head_sample\":5,"
      "\"total\":14},\"discarded\":486,\"evicted\":6,"
      "\"spans_captured\":800,\"spans_dropped\":9,"
      "\"retained_records\":12,\"dumps\":10}}");
}

TEST(MetricsExporterTest, GoldenFlightPrometheus) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeFlight()).ToPrometheus(),
      "# HELP tsdm_flight_enabled Flight recorder enabled (1) or not (0).\n"
      "# TYPE tsdm_flight_enabled gauge\n"
      "tsdm_flight_enabled 1\n"
      "# HELP tsdm_flight_observed_total Request completions observed by the "
      "flight recorder.\n"
      "# TYPE tsdm_flight_observed_total counter\n"
      "tsdm_flight_observed_total 500\n"
      "# HELP tsdm_flight_retained_total Completed requests retained by the "
      "retroactive tail policy, by reason.\n"
      "# TYPE tsdm_flight_retained_total counter\n"
      "tsdm_flight_retained_total{reason=\"slo_breach\"} 2\n"
      "tsdm_flight_retained_total{reason=\"shed\"} 3\n"
      "tsdm_flight_retained_total{reason=\"error\"} 4\n"
      "tsdm_flight_retained_total{reason=\"head_sample\"} 5\n"
      "# HELP tsdm_flight_discarded_total Completions judged unremarkable; "
      "their records were dropped.\n"
      "# TYPE tsdm_flight_discarded_total counter\n"
      "tsdm_flight_discarded_total 486\n"
      "# HELP tsdm_flight_evicted_total Retained records displaced from the "
      "ring by the per-tenant reservoir policy.\n"
      "# TYPE tsdm_flight_evicted_total counter\n"
      "tsdm_flight_evicted_total 6\n"
      "# HELP tsdm_flight_spans_total Spans swept into retained records at "
      "retention or landed in a late-span slot, by fate (over-cap spans are "
      "counted per record too).\n"
      "# TYPE tsdm_flight_spans_total counter\n"
      "tsdm_flight_spans_total{fate=\"captured\"} 800\n"
      "tsdm_flight_spans_total{fate=\"dropped\"} 9\n"
      "# HELP tsdm_flight_retained_records Records currently in the retained "
      "ring.\n"
      "# TYPE tsdm_flight_retained_records gauge\n"
      "tsdm_flight_retained_records 12\n"
      "# HELP tsdm_flight_dumps_total Black-box dumps frozen on worsening "
      "health transitions.\n"
      "# TYPE tsdm_flight_dumps_total counter\n"
      "tsdm_flight_dumps_total 10\n");
}

TEST(MetricsExporterTest, GoldenShardJson) {
  EXPECT_EQ(
      MetricsExporter::Describe(MakeShard()).ToJson(),
      "{\"schema_version\":1,\"shard\":{\"num_shards\":2,"
      "\"forwarded\":40,\"scattered\":5,\"probes_sent\":16,"
      "\"probe_transport_failures\":1,\"merges\":4,\"partial_errors\":6,"
      "\"replicated\":7,\"enumeration_failures\":8,\"per_shard\":[{"
      "\"forwarded\":22,\"probes\":9,\"completed\":25,\"failed\":2,"
      "\"queue_depth\":3,\"cache_hit_rate\":0.75},{\"forwarded\":18,"
      "\"probes\":7,\"completed\":19,\"failed\":4,\"queue_depth\":5,"
      "\"cache_hit_rate\":0.2}],\"aggregate\":{\"schema_version\":1,\"serve\":{"
      "\"submitted\":58,\"admitted\":0,\"shed_capacity\":0,\"shed_expired\":0,"
      "\"shed_closed\":0,\"shed_evicted\":0,\"shed_rate\":0,\"queue_depth\":8,"
      "\"batches\":0,\"batched_requests\":0,\"max_batch\":0,\"cache_hits\":4,"
      "\"cache_misses\":5,\"cache_evictions\":0,\"cache_size\":0,"
      "\"cache_hit_rate\":0.444444444,\"completed\":44,\"failed\":6,"
      "\"workers\":0,\"scale_events\":0,\"queue_latency\":{\"count\":0,"
      "\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,\"min_s\":0,"
      "\"max_s\":0},\"e2e_latency\":{\"count\":0,\"mean_s\":0,\"p50_s\":0,"
      "\"p95_s\":0,\"p99_s\":0,\"min_s\":0,\"max_s\":0},\"stage_latency\":{"
      "\"queue\":{\"count\":0,\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,"
      "\"min_s\":0,\"max_s\":0},\"batch\":{\"count\":0,\"mean_s\":0,"
      "\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,\"min_s\":0,\"max_s\":0},\"cache\":{"
      "\"count\":0,\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,"
      "\"min_s\":0,\"max_s\":0},\"exec\":{\"count\":0,\"mean_s\":0,\"p50_s\":0,"
      "\"p95_s\":0,\"p99_s\":0,\"min_s\":0,\"max_s\":0}},"
      "\"slowest_stage\":\"\",\"tenants\":[]}}}}");
}

TEST(MetricsExporterTest, GoldenShardPrometheus) {
  // No tsdm_serve_* families here: a scrape takes them from the "serve"
  // source, so repeating the fleet aggregate would duplicate them.
  EXPECT_EQ(
      MetricsExporter::Describe(MakeShard()).ToPrometheus(),
      "# HELP tsdm_shard_count Member shards fronted by the router.\n"
      "# TYPE tsdm_shard_count gauge\n"
      "tsdm_shard_count 2\n"
      "# HELP tsdm_shard_routed_total Queries routed, by mode (forward = "
      "single-shard pinned, scatter = cross-shard probe fan-out).\n"
      "# TYPE tsdm_shard_routed_total counter\n"
      "tsdm_shard_routed_total{mode=\"forward\"} 40\n"
      "tsdm_shard_routed_total{mode=\"scatter\"} 5\n"
      "# HELP tsdm_shard_probes_total Segment cost probes issued by scatters.\n"
      "# TYPE tsdm_shard_probes_total counter\n"
      "tsdm_shard_probes_total 16\n"
      "# HELP tsdm_shard_probe_transport_failures_total Probes lost to a "
      "stopped or overloaded shard (each one turns its scatter into a typed "
      "partial-result error).\n"
      "# TYPE tsdm_shard_probe_transport_failures_total counter\n"
      "tsdm_shard_probe_transport_failures_total 1\n"
      "# HELP tsdm_shard_merges_total Scatter answers assembled.\n"
      "# TYPE tsdm_shard_merges_total counter\n"
      "tsdm_shard_merges_total 4\n"
      "# HELP tsdm_shard_partial_errors_total Scatters answered "
      "Status::Unavailable because probes were lost — degraded capacity "
      "surfaces as typed errors, never wrong routes.\n"
      "# TYPE tsdm_shard_partial_errors_total counter\n"
      "tsdm_shard_partial_errors_total 6\n"
      "# HELP tsdm_shard_cache_replications_total Boundary sub-path cache "
      "entries replicated into endpoint-owner shards.\n"
      "# TYPE tsdm_shard_cache_replications_total counter\n"
      "tsdm_shard_cache_replications_total 7\n"
      "# HELP tsdm_shard_enumeration_failures_total Scatters that died at "
      "candidate enumeration, before any probe.\n"
      "# TYPE tsdm_shard_enumeration_failures_total counter\n"
      "tsdm_shard_enumeration_failures_total 8\n"
      "# HELP tsdm_shard_routed_by_shard_total Per-shard routing attribution, "
      "by kind (forwarded queries / scatter probes served).\n"
      "# TYPE tsdm_shard_routed_by_shard_total counter\n"
      "tsdm_shard_routed_by_shard_total{shard=\"0\",kind=\"forward\"} 22\n"
      "tsdm_shard_routed_by_shard_total{shard=\"0\",kind=\"probe\"} 9\n"
      "tsdm_shard_routed_by_shard_total{shard=\"1\",kind=\"forward\"} 18\n"
      "tsdm_shard_routed_by_shard_total{shard=\"1\",kind=\"probe\"} 7\n");
}

TEST(MetricsExporterTest, GoldenTraceJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetCapacity(8);
  recorder.Clear();
  recorder.Enable();
  for (int i = 0; i < 40; ++i) {
    TraceSpan span("overflow");
  }
  recorder.Disable();
  recorder.FlushCurrentThread();
  EXPECT_EQ(MetricsExporter::Describe(recorder).ToJson(),
            "{\"schema_version\":1,\"trace\":{\"enabled\":false,"
            "\"dropped\":32}}");
  recorder.Enable();
  EXPECT_EQ(MetricsExporter::Describe(recorder).ToJson(),
            "{\"schema_version\":1,\"trace\":{\"enabled\":true,"
            "\"dropped\":32}}");
  recorder.Disable();
  recorder.SetCapacity(1 << 16);
  recorder.Clear();
}

TEST(MetricsExporterTest, TenantLabelsUsePrometheusEscapes) {
  // Tenant ids are arbitrary wire bytes. JSON escapes every control
  // character; a Prometheus label value admits only \\, \" and \n, and a
  // scraper rejects the whole document on any other escape.
  ServeStatsSnapshot snap;
  TenantServeStats tenant;
  tenant.tenant = "a\tb\"c\\d\ne";
  tenant.submitted = 3;
  tenant.shed_capacity = 2;
  snap.tenants = {tenant};
  const std::string json = MetricsExporter::Describe(snap).ToJson();
  EXPECT_NE(json.find("{\"tenant\":\"a\\tb\\\"c\\\\d\\ne\",\"submitted\":3,"),
            std::string::npos)
      << json;
  const std::string prom = MetricsExporter::Describe(snap).ToPrometheus();
  EXPECT_NE(prom.find("tsdm_serve_tenant_submitted_total"
                      "{tenant=\"a\tb\\\"c\\\\d\\ne\"} 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tsdm_serve_tenant_shed_total"
                      "{tenant=\"a\tb\\\"c\\\\d\\ne\",reason=\"capacity\"} 2\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tsdm_serve_tenant_latency_seconds_count"
                      "{tenant=\"a\tb\\\"c\\\\d\\ne\"} 0\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("\\t"), std::string::npos) << prom;
}

TEST(JsonHelpersTest, EscapeAndNumberEdgeCases) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(1250.0), "1250");
  // NaN/inf are not valid JSON; the exporter guarantees NaN-free output.
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
  EXPECT_EQ(JsonNumber(INFINITY), "0");
  EXPECT_EQ(JsonNumber(-INFINITY), "0");
}

// --- BENCH_<name>.json schema --------------------------------------------

TEST(BenchReporterTest, GoldenBenchJsonSchema) {
  tsdm_bench::BenchReporter reporter("demo");
  reporter.set_git_rev("deadbeef");
  reporter.set_threads(8);
  reporter.Metric("ops_per_s", 1250.0);
  reporter.Metric("p50_us", 3.5);
  reporter.Info("mode", "smoke");
  EXPECT_EQ(reporter.ToJson(),
            "{\"schema_version\":1,\"name\":\"demo\","
            "\"git_rev\":\"deadbeef\",\"threads\":8,"
            "\"metrics\":{\"ops_per_s\":1250,\"p50_us\":3.5},"
            "\"info\":{\"mode\":\"smoke\"}}");
}

TEST(BenchReporterTest, MetricOverwritesAndKeepsInsertionOrder) {
  tsdm_bench::BenchReporter reporter("demo");
  reporter.set_git_rev("deadbeef");
  reporter.set_threads(1);
  reporter.Metric("b_per_s", 1.0);
  reporter.Metric("a_per_s", 2.0);
  reporter.Metric("b_per_s", 3.0);  // overwrite in place, no reordering
  EXPECT_EQ(reporter.ToJson(),
            "{\"schema_version\":1,\"name\":\"demo\","
            "\"git_rev\":\"deadbeef\",\"threads\":1,"
            "\"metrics\":{\"b_per_s\":3,\"a_per_s\":2},\"info\":{}}");
}

TEST(BenchReporterTest, LatencyEmitsQuantileAndCountKeys) {
  tsdm_bench::BenchReporter reporter("demo");
  LatencyHistogram h;
  h.Add(0.004);
  reporter.Latency("tick", h);
  std::string json = reporter.ToJson();
  EXPECT_NE(json.find("\"tick_p50_us\":4000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tick_p95_us\":4000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tick_count\":1"), std::string::npos) << json;
}

TEST(BenchReporterTest, WriteLandsInBenchJsonDir) {
  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  ASSERT_EQ(::setenv("TSDM_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  tsdm_bench::BenchReporter reporter("writer-check");
  reporter.set_git_rev("deadbeef");
  reporter.set_threads(2);
  reporter.Metric("ops_per_s", 10.0);
  ASSERT_TRUE(reporter.Write());
  ASSERT_EQ(::unsetenv("TSDM_BENCH_JSON_DIR"), 0);

  std::string path = dir + "/BENCH_writer-check.json";
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), reporter.ToJson() + "\n");
}

}  // namespace
}  // namespace tsdm
