#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "src/common/rng.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/metrics_export.h"

namespace tsdm {
namespace {

// The self-monitor judged against synthetic operational histories: steady
// traffic must never alarm, injected incidents (queue-depth spike, cache
// hit-rate collapse, SLO burn) must be flagged and attributed.

/// A scripted server: the test drives its counters forward one sampling
/// interval at a time and the monitor watches it through the same Sampler
/// interface a real QueryServer exposes.
class SyntheticServer {
 public:
  HealthMonitor::Sampler AsSampler() {
    return [this] { return snap_; };
  }

  /// Advances one interval: `requests` answered at ~`latency_seconds`
  /// (10% jitter), a cache working at `hit_rate`, `depth` requests left in
  /// queue, and `shed` requests rejected at the door.
  void Advance(int requests, double latency_seconds, double hit_rate,
               size_t depth, int shed = 0) {
    snap_.submitted += static_cast<uint64_t>(requests + shed);
    snap_.admitted += static_cast<uint64_t>(requests);
    snap_.shed_capacity += static_cast<uint64_t>(shed);
    snap_.queue_depth = depth;
    for (int i = 0; i < requests; ++i) {
      const double l = latency_seconds * rng_.Uniform(0.9, 1.1);
      snap_.e2e_latency.Add(l);
      // Fixed stage mix: exec dominates, as in a compute-bound server.
      snap_.stage_queue.Add(l * 0.15);
      snap_.stage_batch.Add(l * 0.05);
      snap_.stage_cache.Add(l * 0.30);
      snap_.stage_exec.Add(l * 0.50);
      ++snap_.completed;
    }
    const int lookups = requests * 4;
    const int hits = static_cast<int>(lookups * hit_rate);
    snap_.cache_hits += static_cast<uint64_t>(hits);
    snap_.cache_misses += static_cast<uint64_t>(lookups - hits);
  }

  ServeStatsSnapshot& snap() { return snap_; }

 private:
  ServeStatsSnapshot snap_;
  Rng rng_{7};
};

HealthMonitor::Options TestOptions() {
  HealthMonitor::Options opts;
  opts.warmup_samples = 10;
  opts.slo_p95_objective_seconds = 0.05;
  opts.slo_error_budget = 0.05;
  return opts;
}

/// Steady traffic with realistic jitter: ~100 requests per interval at
/// ~10ms, 90% hit rate, small oscillating queue.
void SteadyRound(SyntheticServer* server, Rng* rng, int round) {
  server->Advance(90 + static_cast<int>(rng->Uniform(0.0, 20.0)),
                  /*latency_seconds=*/0.010, /*hit_rate=*/0.9,
                  /*depth=*/static_cast<size_t>(round % 4));
}

TEST(HealthMonitorTest, SteadyStateStaysHealthyWithZeroFalseAlarms) {
  SyntheticServer server;
  Rng rng(3);
  HealthMonitor monitor(server.AsSampler(), TestOptions());
  for (int round = 0; round < 80; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  HealthSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.state, HealthState::kHealthy);
  EXPECT_EQ(snap.anomalies_total, 0u);
  EXPECT_EQ(snap.samples, 80u);
  EXPECT_DOUBLE_EQ(snap.burn_rate, 0.0);
  // Attribution follows the scripted stage mix.
  EXPECT_EQ(snap.top_offender, "exec");
  EXPECT_NEAR(snap.top_offender_share, 0.5, 0.05);
  for (const MetricVerdict& v : snap.metrics) {
    EXPECT_FALSE(v.anomalous) << v.name;
    EXPECT_EQ(v.anomalies, 0u) << v.name;
  }
}

TEST(HealthMonitorTest, QueueDepthSpikeIsFlagged) {
  SyntheticServer server;
  Rng rng(4);
  HealthMonitor monitor(server.AsSampler(), TestOptions());
  for (int round = 0; round < 40; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  ASSERT_EQ(monitor.Snapshot().anomalies_total, 0u);

  // Incident: the queue blows up while a shed storm starts.
  server.Advance(100, 0.010, 0.9, /*depth=*/500, /*shed=*/400);
  monitor.SampleOnce();

  HealthSnapshot snap = monitor.Snapshot();
  EXPECT_NE(snap.state, HealthState::kHealthy);
  bool depth_flagged = false;
  bool shed_flagged = false;
  for (const MetricVerdict& v : snap.metrics) {
    if (v.name == "queue_depth") depth_flagged = v.anomalous;
    if (v.name == "shed_rate") shed_flagged = v.anomalous;
  }
  EXPECT_TRUE(depth_flagged);
  EXPECT_TRUE(shed_flagged);
}

TEST(HealthMonitorTest, CacheHitRateCollapseIsFlagged) {
  SyntheticServer server;
  Rng rng(5);
  HealthMonitor monitor(server.AsSampler(), TestOptions());
  for (int round = 0; round < 40; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  ASSERT_EQ(monitor.Snapshot().anomalies_total, 0u);

  // Incident: the cache goes cold (e.g. a snapshot swap cleared it) while
  // everything else stays normal.
  server.Advance(100, 0.010, /*hit_rate=*/0.05, /*depth=*/2);
  monitor.SampleOnce();

  HealthSnapshot snap = monitor.Snapshot();
  EXPECT_NE(snap.state, HealthState::kHealthy);
  for (const MetricVerdict& v : snap.metrics) {
    if (v.name == "cache_hit_rate") {
      EXPECT_TRUE(v.anomalous);
      EXPECT_NEAR(v.value, 0.05, 0.01);
    }
  }
}

// Pins the exact state each incident shape lands in after a steady run:
// one anomalous metric degrades, two at once are unhealthy, and an SLO
// burn of at least 1 but under kBurnUnhealthy (2) degrades.
TEST(HealthMonitorTest, IncidentShapesLandInExactStates) {
  auto judge = [](uint64_t seed, const std::function<void(SyntheticServer*)>&
                                     incident) {
    SyntheticServer server;
    Rng rng(seed);
    HealthMonitor monitor(server.AsSampler(), TestOptions());
    for (int round = 0; round < 40; ++round) {
      SteadyRound(&server, &rng, round);
      monitor.SampleOnce();
    }
    EXPECT_EQ(monitor.Snapshot().state, HealthState::kHealthy);
    incident(&server);
    monitor.SampleOnce();
    return monitor.Snapshot();
  };

  HealthSnapshot cold = judge(5, [](SyntheticServer* s) {
    s->Advance(100, 0.010, /*hit_rate=*/0.05, /*depth=*/2);
  });
  EXPECT_EQ(cold.state, HealthState::kDegraded);

  HealthSnapshot storm = judge(4, [](SyntheticServer* s) {
    s->Advance(100, 0.010, 0.9, /*depth=*/500, /*shed=*/400);
  });
  EXPECT_EQ(storm.state, HealthState::kUnhealthy);

  // 7 of 100 requests over the 50 ms objective against a 5% budget. At
  // 70 ms +-10% every slow request clears the objective's histogram bin.
  HealthSnapshot burn = judge(6, [](SyntheticServer* s) {
    s->Advance(93, 0.010, 0.9, /*depth=*/2);
    s->Advance(7, 0.070, 0.9, /*depth=*/2);
  });
  EXPECT_NEAR(burn.burn_rate, 1.4, 1e-9);
  EXPECT_EQ(burn.state, HealthState::kDegraded);
}

TEST(HealthMonitorTest, SloBurnDrivesUnhealthy) {
  SyntheticServer server;
  Rng rng(6);
  HealthMonitor::Options opts = TestOptions();
  HealthMonitor monitor(server.AsSampler(), opts);
  for (int round = 0; round < 40; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  ASSERT_EQ(monitor.Snapshot().state, HealthState::kHealthy);

  // Incident: every request now takes 10x the 50ms objective — the whole
  // interval violates, burning 1/error_budget = 20x the budget.
  server.Advance(100, /*latency_seconds=*/0.5, 0.9, /*depth=*/3);
  monitor.SampleOnce();

  HealthSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.state, HealthState::kUnhealthy);
  EXPECT_NEAR(snap.violation_fraction, 1.0, 1e-9);
  EXPECT_GE(snap.burn_rate, HealthMonitor::kBurnUnhealthy);
  // Latency mean jumped 50x too — the detector sees it.
  for (const MetricVerdict& v : snap.metrics) {
    if (v.name == "latency_mean") {
      EXPECT_TRUE(v.anomalous);
    }
  }

  // The transition ring recorded when the degradation started, with the
  // evidence of the moment.
  ASSERT_EQ(snap.transitions_total, 1u);
  ASSERT_EQ(snap.transitions.size(), 1u);
  const HealthTransition& t = snap.transitions[0];
  EXPECT_EQ(t.from, HealthState::kHealthy);
  EXPECT_EQ(t.to, HealthState::kUnhealthy);
  EXPECT_EQ(t.sample, 41u);
  EXPECT_GT(t.at_ns, 0u);
  EXPECT_GE(t.burn_rate, HealthMonitor::kBurnUnhealthy);

  // Recovery lands in the same ring; the ring is bounded by
  // kTransitionHistory while the total keeps counting.
  for (int round = 0; round < 40; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  HealthSnapshot after = monitor.Snapshot();
  EXPECT_EQ(after.state, HealthState::kHealthy);
  EXPECT_GE(after.transitions_total, 2u);
  EXPECT_LE(after.transitions.size(), HealthMonitor::kTransitionHistory);
  EXPECT_EQ(after.transitions.back().to, HealthState::kHealthy);
}

// The black-box dump a worsening transition freezes carries the monitor's
// own sample that judged it, and its delta over that sampling interval.
TEST(HealthMonitorTest, TransitionDumpCarriesTheJudgingSample) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Configure(FlightRecorder::Options{});
  fr.Enable();
  SyntheticServer server;
  Rng rng(6);
  HealthMonitor monitor(server.AsSampler(), TestOptions());
  for (int round = 0; round < 40; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  ASSERT_EQ(fr.Stats().dumps, 0u);

  server.Advance(100, /*latency_seconds=*/0.5, 0.9, /*depth=*/3);
  monitor.SampleOnce();
  fr.Disable();
  ASSERT_EQ(fr.Stats().dumps, 1u);
  const std::string dump = fr.LatestDumpJson();
  fr.Configure(FlightRecorder::Options{});
  const std::string expected =
      ",\"serve\":" + MetricsExporter::Describe(server.snap()).ToJson() +
      ",\"serve_delta\":{\"submitted\":100,\"admitted\":100,"
      "\"completed\":100,\"failed\":0,\"shed\":0,\"queue_depth\":3,";
  EXPECT_NE(dump.find(expected), std::string::npos) << dump;
}

TEST(HealthMonitorTest, WarmupNeverAlarmsEvenOnWildFirstSamples) {
  SyntheticServer server;
  HealthMonitor::Options opts = TestOptions();
  opts.warmup_samples = 12;
  HealthMonitor monitor(server.AsSampler(), opts);
  // Wildly different loads every round, all within warmup.
  for (int round = 0; round < 12; ++round) {
    server.Advance((round % 3) * 300 + 1, 0.001 * (1 + round * 7 % 13), 0.5,
                   static_cast<size_t>(round * 50));
    monitor.SampleOnce();
  }
  EXPECT_EQ(monitor.Snapshot().anomalies_total, 0u);
}

TEST(HealthMonitorTest, ExportsJsonAndPrometheus) {
  SyntheticServer server;
  Rng rng(8);
  HealthMonitor monitor(server.AsSampler(), TestOptions());
  for (int round = 0; round < 20; ++round) {
    SteadyRound(&server, &rng, round);
    monitor.SampleOnce();
  }
  HealthSnapshot snap = monitor.Snapshot();

  std::string json = MetricsExporter::Describe(snap).ToJson();
  EXPECT_NE(json.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"top_offender\":\"exec\""), std::string::npos);
  // The transition ring rides in the JSON (empty here: never degraded).
  EXPECT_NE(json.find("\"transitions_total\":0"), std::string::npos);
  EXPECT_NE(json.find("\"transitions\":[]"), std::string::npos);

  std::string prom = MetricsExporter::Describe(snap).ToPrometheus();
  EXPECT_NE(prom.find("tsdm_health_state 0"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_health_samples_total 20"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_health_metric_value{metric=\"cache_hit_rate\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("tsdm_health_slo_burn_rate"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_health_transitions_total 0"), std::string::npos);
}

TEST(HealthMonitorTest, BackgroundThreadSamplesAndSnapshotsConcurrently) {
  SyntheticServer scripted;
  // The sampler itself runs on the monitor thread; guard the scripted
  // state so the test's Advance calls race cleanly with it (a real
  // QueryServer::Stats has its own internal locking).
  std::mutex mu;
  HealthMonitor::Options opts = TestOptions();
  opts.sample_interval_seconds = 0.002;
  HealthMonitor monitor(
      [&] {
        std::unique_lock<std::mutex> lock(mu);
        return scripted.snap();
      },
      opts);
  ASSERT_TRUE(monitor.Start().ok());
  EXPECT_FALSE(monitor.Start().ok());  // double start rejected

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      HealthSnapshot snap = monitor.Snapshot();
      EXPECT_LE(static_cast<int>(snap.state), 2);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  Rng rng(9);
  for (int round = 0; round < 25; ++round) {
    {
      std::unique_lock<std::mutex> lock(mu);
      SteadyRound(&scripted, &rng, round);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  reader.join();
  monitor.Stop();
  monitor.Stop();  // idempotent

  EXPECT_GT(monitor.Snapshot().samples, 5u);
}

}  // namespace
}  // namespace tsdm
