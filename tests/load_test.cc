#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/load/load_trace.h"
#include "src/load/replayer.h"
#include "src/load/scenario.h"
#include "src/obs/trace.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

// --- ScenarioGenerator ---------------------------------------------------

TenantScenario BaseSpec() {
  TenantScenario spec;
  spec.tenant = "commuter";
  spec.shape = ScenarioShape::kDiurnalCommute;
  spec.base_rate_hz = 200.0;
  spec.peak_multiplier = 4.0;
  spec.duration_seconds = 4.0;
  spec.seed = 7;
  spec.num_nodes = 25;
  return spec;
}

bool SameQuery(const TimedQuery& a, const TimedQuery& b) {
  return a.at_seconds == b.at_seconds && a.tenant == b.tenant &&
         a.priority == b.priority && a.query.source == b.query.source &&
         a.query.target == b.query.target && a.query.k == b.query.k &&
         a.query.depart_seconds == b.query.depart_seconds &&
         a.query.arrival_deadline_seconds == b.query.arrival_deadline_seconds;
}

TEST(ScenarioTest, DeterministicInSeed) {
  const TenantScenario spec = BaseSpec();
  Result<std::vector<TimedQuery>> a = GenerateScenario(spec);
  Result<std::vector<TimedQuery>> b = GenerateScenario(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->empty());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE(SameQuery((*a)[i], (*b)[i])) << "diverged at " << i;
  }

  TenantScenario reseeded = spec;
  reseeded.seed = 8;
  Result<std::vector<TimedQuery>> c = GenerateScenario(reseeded);
  ASSERT_TRUE(c.ok());
  bool identical = c->size() == a->size();
  for (size_t i = 0; identical && i < a->size(); ++i) {
    identical = SameQuery((*a)[i], (*c)[i]);
  }
  EXPECT_FALSE(identical) << "different seeds produced the same stream";
}

TEST(ScenarioTest, StreamsAreSortedAndWellFormed) {
  for (ScenarioShape shape :
       {ScenarioShape::kDiurnalCommute, ScenarioShape::kRideHailSurge,
        ScenarioShape::kFlashCrowd, ScenarioShape::kSensorOutageStorm,
        ScenarioShape::kSlowDrift}) {
    TenantScenario spec = BaseSpec();
    spec.shape = shape;
    Result<std::vector<TimedQuery>> stream = GenerateScenario(spec);
    ASSERT_TRUE(stream.ok()) << ScenarioShapeName(shape);
    ASSERT_FALSE(stream->empty()) << ScenarioShapeName(shape);
    double prev = -1.0;
    for (const TimedQuery& q : *stream) {
      EXPECT_GE(q.at_seconds, prev);
      EXPECT_LT(q.at_seconds, spec.duration_seconds);
      EXPECT_GE(q.query.source, 0);
      EXPECT_LT(q.query.source, spec.num_nodes);
      EXPECT_GE(q.query.target, 0);
      EXPECT_LT(q.query.target, spec.num_nodes);
      EXPECT_NE(q.query.source, q.query.target);
      EXPECT_EQ(q.tenant, spec.tenant);
      prev = q.at_seconds;
    }
  }
}

TEST(ScenarioTest, ShapeIntensitiesMatchTheirStories) {
  TenantScenario spec = BaseSpec();
  const double base = spec.base_rate_hz;
  const double d = spec.duration_seconds;

  // Surge: flat until 60%, peak near 80%, back to base after 90%.
  spec.shape = ScenarioShape::kRideHailSurge;
  EXPECT_DOUBLE_EQ(ScenarioRateAt(spec, 0.3 * d), base);
  EXPECT_GT(ScenarioRateAt(spec, 0.8 * d), 3.0 * base);
  EXPECT_DOUBLE_EQ(ScenarioRateAt(spec, 0.95 * d), base);

  // Flash crowd: near-silent before the event, spike right after.
  spec.shape = ScenarioShape::kFlashCrowd;
  EXPECT_LT(ScenarioRateAt(spec, 0.4 * d), 0.1 * base);
  EXPECT_GT(ScenarioRateAt(spec, 0.51 * d), 2.0 * base);

  // Slow drift: monotone non-decreasing ramp.
  spec.shape = ScenarioShape::kSlowDrift;
  double prev = 0.0;
  for (int i = 0; i <= 20; ++i) {
    const double r = ScenarioRateAt(spec, d * i / 20.0);
    EXPECT_GE(r, prev);
    prev = r;
  }

  // Diurnal: both rush humps rise well above the mid-day lull.
  spec.shape = ScenarioShape::kDiurnalCommute;
  const double lull = ScenarioRateAt(spec, 0.5 * d);
  EXPECT_GT(ScenarioRateAt(spec, 0.25 * d), 2.0 * lull);
  EXPECT_GT(ScenarioRateAt(spec, 0.75 * d), 2.0 * lull);

  // Outage storm: burst phases sit at peak, quiet phases at base.
  spec.shape = ScenarioShape::kSensorOutageStorm;
  EXPECT_GT(ScenarioRateAt(spec, 0.05 * d), 3.0 * base);
  EXPECT_DOUBLE_EQ(ScenarioRateAt(spec, 0.15 * d), base);
}

TEST(ScenarioTest, MergeStreamsIsStableByTime) {
  TenantScenario a = BaseSpec();
  a.tenant = "a";
  TenantScenario b = BaseSpec();
  b.tenant = "b";
  b.seed = 99;
  Result<std::vector<TimedQuery>> sa = GenerateScenario(a);
  Result<std::vector<TimedQuery>> sb = GenerateScenario(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  std::vector<TimedQuery> merged = MergeStreams({*sa, *sb});
  EXPECT_EQ(merged.size(), sa->size() + sb->size());
  double prev = -1.0;
  size_t from_a = 0;
  for (const TimedQuery& q : merged) {
    EXPECT_GE(q.at_seconds, prev);
    prev = q.at_seconds;
    if (q.tenant == "a") ++from_a;
  }
  EXPECT_EQ(from_a, sa->size());
}

TEST(ScenarioTest, RejectsDegenerateSpecs) {
  TenantScenario spec = BaseSpec();
  spec.duration_seconds = 0.0;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = BaseSpec();
  spec.base_rate_hz = -1.0;
  EXPECT_FALSE(GenerateScenario(spec).ok());
  spec = BaseSpec();
  spec.num_nodes = 1;
  EXPECT_FALSE(GenerateScenario(spec).ok());
}

// --- Trace format --------------------------------------------------------

std::vector<TimedQuery> SmallTrace() {
  TenantScenario spec = BaseSpec();
  spec.base_rate_hz = 40.0;
  spec.duration_seconds = 1.0;
  spec.tenant = "premium";
  spec.priority = 2;
  Result<std::vector<TimedQuery>> stream = GenerateScenario(spec);
  EXPECT_TRUE(stream.ok());
  return *stream;
}

TEST(LoadTraceTest, FileRoundTripAndHeaderValidation) {
  const std::vector<TimedQuery> trace = SmallTrace();
  const std::string path = ::testing::TempDir() + "/load_trace_test.tswt";
  ASSERT_TRUE(WriteTraceFile(path, trace).ok());

  LoadTraceParserStats stats;
  Result<std::vector<TimedQuery>> back = ReadTraceFile(path, &stats);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(SameQuery(trace[i], (*back)[i]));
  }
  EXPECT_EQ(stats.RejectedTotal(), 0u);

  // A non-trace file is rejected by header, not parsed as garbage.
  const std::string bogus = ::testing::TempDir() + "/bogus.tswt";
  std::FILE* f = std::fopen(bogus.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(ReadTraceFile(bogus).ok());
}

// --- Recorder + replayer against a live server ---------------------------

struct LoadFixture {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model;

  LoadFixture() : spec(MakeSpec()), net(MakeNet(spec)), model(0) {
    model = EdgeCentricModel(static_cast<int>(net.NumEdges()));
    TrafficSimulator sim(&net, TrafficSpec{});
    Rng rng(11);
    for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
      for (int rep = 0; rep < 8; ++rep) {
        TripObservation trip;
        trip.edge_path = {e};
        trip.depart_seconds = 8 * 3600.0;
        trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
        model.AddTrip(trip);
      }
    }
    Status built = model.Build();
    EXPECT_TRUE(built.ok()) << built.ToString();
  }

  static GridNetworkSpec MakeSpec() {
    GridNetworkSpec spec;
    spec.rows = 5;
    spec.cols = 5;
    return spec;
  }
  static RoadNetwork MakeNet(const GridNetworkSpec& spec) {
    Rng rng(3);
    return GenerateGridNetwork(spec, &rng);
  }

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, 32);
    };
  }
};

std::vector<TimedQuery> ReplayTrace(int num_nodes) {
  TenantScenario premium = BaseSpec();
  premium.tenant = "premium";
  premium.priority = 2;
  premium.base_rate_hz = 60.0;
  premium.duration_seconds = 1.0;
  premium.num_nodes = num_nodes;
  premium.seed = 21;
  TenantScenario batch = premium;
  batch.tenant = "batch";
  batch.priority = 0;
  batch.seed = 22;
  Result<std::vector<TimedQuery>> sp = GenerateScenario(premium);
  Result<std::vector<TimedQuery>> sb = GenerateScenario(batch);
  EXPECT_TRUE(sp.ok());
  EXPECT_TRUE(sb.ok());
  return MergeStreams({*sp, *sb});
}

TEST(LoadTraceRecorderTest, RecordsLiveTrafficThroughTheObserver) {
  LoadFixture fx;
  LoadTraceRecorder recorder;
  QueryServer::Options opts;
  opts.initial_workers = 2;
  opts.autoscale_enabled = false;
  opts.submit_observer = recorder.Observer();
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<TimedQuery> trace = ReplayTrace(25);
  ASSERT_FALSE(trace.empty());
  TraceReplayer::Options ropts;
  ropts.speed = 0.0;  // as fast as possible
  ropts.queue_budget_seconds = 0.0;
  TraceReplayer replayer(ropts);
  Result<TraceReplayer::Report> report = replayer.Replay(trace, &server);
  ASSERT_TRUE(report.ok());
  server.Stop();

  // Every offered query was observed, tenants and priorities intact, and
  // timestamps rebased to the first observation in nondecreasing order.
  std::vector<TimedQuery> recorded = recorder.Snapshot();
  ASSERT_EQ(recorded.size(), trace.size());
  double prev = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(recorded[i].tenant, trace[i].tenant);
    EXPECT_EQ(recorded[i].priority, trace[i].priority);
    EXPECT_EQ(recorded[i].query.source, trace[i].query.source);
    EXPECT_EQ(recorded[i].query.target, trace[i].query.target);
    EXPECT_GE(recorded[i].at_seconds, prev);
    prev = recorded[i].at_seconds;
  }

  // Record -> write -> read -> the same offered load.
  const std::string path = ::testing::TempDir() + "/recorded.tswt";
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  Result<std::vector<TimedQuery>> back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), recorded.size());
}

/// Decision fields of an answer, bitwise (doubles compared as bit
/// patterns). Timing fields are excluded — they are wall-clock, not
/// decisions.
std::string DecisionFingerprint(const RouteAnswer& a) {
  std::string fp;
  fp += std::to_string(static_cast<int>(a.status.code()));
  fp += "|" + a.tenant_id;
  fp += "|" + std::to_string(a.client_request_id);
  fp += "|" + std::to_string(a.num_candidates);
  uint64_t bits = 0;
  std::memcpy(&bits, &a.cost_mean_seconds, sizeof(bits));
  fp += "|" + std::to_string(bits);
  std::memcpy(&bits, &a.on_time_probability, sizeof(bits));
  fp += "|" + std::to_string(bits);
  fp += "|";
  for (int e : a.route.edges) fp += std::to_string(e) + ",";
  return fp;
}

TEST(TraceReplayerTest, ReplayingASeededScenarioIsBitwiseDeterministic) {
  LoadFixture fx;
  const std::vector<TimedQuery> trace = ReplayTrace(25);
  ASSERT_FALSE(trace.empty());

  auto run = [&fx, &trace]() {
    QueryServer::Options opts;
    opts.initial_workers = 3;
    opts.autoscale_enabled = false;
    opts.queue.capacity = trace.size() + 1;  // nothing sheds
    QueryServer server(&fx.net, fx.BaseModel(), opts);
    EXPECT_TRUE(server.Start().ok());
    TraceReplayer::Options ropts;
    ropts.speed = 0.0;
    ropts.queue_budget_seconds = 0.0;  // no expiry
    ropts.collect_answers = true;
    TraceReplayer replayer(ropts);
    Result<TraceReplayer::Report> report = replayer.Replay(trace, &server);
    EXPECT_TRUE(report.ok());
    server.Stop();
    return std::move(*report);
  };

  TraceReplayer::Report first = run();
  TraceReplayer::Report second = run();
  ASSERT_EQ(first.answers.size(), trace.size());
  ASSERT_EQ(second.answers.size(), trace.size());
  EXPECT_EQ(first.offered, first.accepted);  // capacity covered the trace
  EXPECT_EQ(first.rejected, 0u);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(DecisionFingerprint(first.answers[i]),
              DecisionFingerprint(second.answers[i]))
        << "answer " << i << " diverged between runs";
  }
  // Per-tenant accounting covers the whole offered load.
  uint64_t tenant_total = 0;
  for (const auto& [tenant, outcome] : first.tenants) {
    tenant_total += outcome.offered;
    EXPECT_EQ(outcome.offered, outcome.accepted);
  }
  EXPECT_EQ(tenant_total, first.offered);
}

TEST(TraceReplayerTest, ForecastPolicyScalesUpBeforeTheSurgePeak) {
  LoadFixture fx;
  // A ride-hailing surge: flat base until 60% of the horizon, ramp to 5x
  // peaking at 80%. The Holt trend follows the ramp, so the controller
  // must resize the pool *before* the peak-rate arrival goes by.
  TenantScenario spec = BaseSpec();
  spec.tenant = "surge";
  spec.shape = ScenarioShape::kRideHailSurge;
  spec.base_rate_hz = 150.0;
  spec.peak_multiplier = 5.0;
  spec.duration_seconds = 3.0;
  spec.num_nodes = 25;
  spec.seed = 5;
  spec.k = 1;
  Result<std::vector<TimedQuery>> stream = GenerateScenario(spec);
  ASSERT_TRUE(stream.ok());

  LoadTraceRecorder recorder;
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_enabled = true;
  opts.autoscale_policy = QueryServer::AutoscalePolicyKind::kForecast;
  opts.autoscale_interval_seconds = 0.05;
  opts.autoscale.min_workers = 1;
  opts.autoscale.max_workers = 4;
  // Base-rate arrivals (150/s = 7.5 per 50 ms interval) fit one worker;
  // the ramp must force a resize.
  opts.autoscale.per_worker_capacity = 12.0;
  opts.queue.capacity = stream->size() + 1;
  opts.submit_observer = recorder.Observer();
  QueryServer server(&fx.net, fx.BaseModel(), opts);

  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  ASSERT_TRUE(server.Start().ok());
  TraceReplayer::Options ropts;
  ropts.speed = 1.0;  // real time: pacing is the point of this test
  ropts.queue_budget_seconds = 30.0;
  TraceReplayer replayer(ropts);
  Result<TraceReplayer::Report> report = replayer.Replay(*stream, &server);
  ASSERT_TRUE(report.ok());
  server.Stop();
  TraceRecorder::Global().Disable();

  // Peak-arrival timestamp: the enqueue instant of the first offered
  // query at or past 80% of the horizon (the shape's peak).
  std::vector<TimedQuery> offered = recorder.Snapshot();
  ASSERT_EQ(offered.size(), stream->size());
  double peak_offset_s = -1.0;
  for (size_t i = 0; i < stream->size(); ++i) {
    if ((*stream)[i].at_seconds >= 0.8 * spec.duration_seconds) {
      peak_offset_s = offered[i].at_seconds;
      break;
    }
  }
  ASSERT_GT(peak_offset_s, 0.0) << "surge produced no peak arrivals";

  // Scale-up timestamp: the first serve/resize span growing the pool.
  // Recorder timestamps are offsets from its first observation while trace
  // spans are absolute, so rebase resizes against the first submit span.
  double first_scale_up_s = -1.0;
  std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  uint64_t first_enqueue_ns = 0;
  for (const TraceEvent& ev : events) {
    if (ev.name == "serve/submit" &&
        (first_enqueue_ns == 0 || ev.start_ns < first_enqueue_ns)) {
      first_enqueue_ns = ev.start_ns;
    }
  }
  ASSERT_GT(first_enqueue_ns, 0u);
  for (const TraceEvent& ev : events) {
    if (ev.name == "serve/resize" && ev.arg > opts.initial_workers) {
      const double at =
          1e-9 * static_cast<double>(ev.start_ns - first_enqueue_ns);
      if (first_scale_up_s < 0.0 || at < first_scale_up_s) {
        first_scale_up_s = at;
      }
    }
  }
  ASSERT_GT(first_scale_up_s, 0.0) << "forecast policy never scaled up";
  EXPECT_LT(first_scale_up_s, peak_offset_s)
      << "pool grew only after the surge peak — pre-scaling failed";
  EXPECT_GT(server.Stats().scale_events, 0);
}

}  // namespace
}  // namespace tsdm
