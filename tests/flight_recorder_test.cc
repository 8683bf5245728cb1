// The flight recorder judged in isolation: retroactive retention (keep iff
// over-SLO / shed / errored / head-sampled), per-tenant reservoir eviction,
// the retention sweep and the late-span tap over spans recorded through the
// TraceRecorder, duplicate-completion defense, dump-on-worsening — and a
// multi-threaded retain/evict/dump race (the TSan/ASan gate target).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/serve/request_queue.h"

namespace tsdm {
namespace {

/// Resets the global recorders around every test: both are process
/// singletons, so tests must leave them disabled+empty. Spans are recorded
/// through the TraceRecorder, so the retention sweep and the late-span tap
/// are what capture them — the production path.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Configure(FlightRecorder::Options{});
  }
  void TearDown() override {
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Configure(FlightRecorder::Options{});
    TraceRecorder::Global().Disable();
  }

  static void Use(const FlightRecorder::Options& opts) {
    FlightRecorder::Global().Configure(opts);
    FlightRecorder::Global().Enable();
  }
};

/// A terminal answer with a scripted end-to-end latency (carried by the
/// queue/service split, as shed answers carry it in production).
RouteAnswer Answer(Status status, double e2e_seconds,
                   const std::string& tenant = "") {
  RouteAnswer a;
  a.status = std::move(status);
  a.queue_seconds = e2e_seconds / 2;
  a.service_seconds = e2e_seconds / 2;
  a.tenant_id = tenant;
  return a;
}

TraceEvent Span(uint64_t request_id, const std::string& name,
                uint64_t start_ns, uint64_t dur_ns) {
  TraceEvent ev;
  ev.name = name;
  ev.request_id = request_id;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.span_id = start_ns + 1;  // unique enough for a test
  return ev;
}

/// Records a closed root span of `request_id` through the TraceRecorder.
void RecordSpan(uint64_t request_id, const std::string& name,
                uint64_t start_ns, uint64_t dur_ns) {
  TraceRecorder::Global().RecordSpan(name, start_ns, start_ns + dur_ns,
                                     TraceContext{request_id, 0});
}

TEST_F(FlightRecorderTest, DisabledRecorderObservesNothing) {
  FlightRecorder::Global().Configure(FlightRecorder::Options{});
  ASSERT_FALSE(FlightRecorder::Enabled());
  FlightRecorder::MaybeRecordSpan(Span(1, "serve/exec", 10, 5));
  FlightRecorder::MaybeComplete(1, -1, Answer(Status::OK(), 1.0));
  FlightStatsSnapshot s = FlightRecorder::Global().Stats();
  EXPECT_EQ(s.observed, 0u);
  EXPECT_EQ(s.retained_records, 0u);
}

TEST_F(FlightRecorderTest, RetroactiveRetentionKeepsOnlyRemarkableRequests) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 0.010;
  opts.head_sample_every = 0;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();

  // Fast OK: unremarkable — observed, then discarded.
  fr.OnComplete(0, -1, Answer(Status::OK(), 0.001));
  // Over-SLO OK: tail evidence.
  fr.OnComplete(0, 3, Answer(Status::OK(), 0.020));
  // Shed (admission-control code): failure evidence.
  fr.OnComplete(0, -1,
                Answer(Status::ResourceExhausted("queue full"), 0.0005));
  // Error (any other non-OK): failure evidence.
  fr.OnComplete(0, -1, Answer(Status::Internal("model exploded"), 0.002));

  FlightStatsSnapshot s = fr.Stats();
  EXPECT_EQ(s.observed, 4u);
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_EQ(s.retained_slo, 1u);
  EXPECT_EQ(s.retained_shed, 1u);
  EXPECT_EQ(s.retained_error, 1u);
  EXPECT_EQ(s.retained_sample, 0u);
  EXPECT_EQ(s.retained_records, 3u);

  // Newest first; the retention metadata survives on each record.
  std::vector<FlightRecord> kept = fr.Retained(10);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].reason, FlightRetainReason::kError);
  EXPECT_EQ(kept[0].outcome, FlightOutcome::kFailed);
  EXPECT_EQ(kept[0].status_code, StatusCode::kInternal);
  EXPECT_EQ(kept[1].reason, FlightRetainReason::kShed);
  EXPECT_EQ(kept[1].outcome, FlightOutcome::kShed);
  EXPECT_EQ(kept[2].reason, FlightRetainReason::kSloBreach);
  EXPECT_EQ(kept[2].outcome, FlightOutcome::kCompleted);
  EXPECT_EQ(kept[2].shard, 3);
  EXPECT_NEAR(kept[2].e2e_seconds, 0.020, 1e-9);
  // Tenant normalizes like the serve tier's counters do.
  EXPECT_EQ(kept[0].tenant, "default");
  // Retention order is monotonic.
  EXPECT_GT(kept[0].seq, kept[1].seq);
  EXPECT_GT(kept[1].seq, kept[2].seq);
}

TEST_F(FlightRecorderTest, HeadSamplingKeepsOneInN) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 10.0;  // nothing breaches
  opts.head_sample_every = 4;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();
  for (int i = 0; i < 8; ++i) {
    fr.OnComplete(0, -1, Answer(Status::OK(), 0.001));
  }
  FlightStatsSnapshot s = fr.Stats();
  EXPECT_EQ(s.observed, 8u);
  EXPECT_EQ(s.retained_sample, 2u);
  EXPECT_EQ(s.discarded, 6u);
  for (const FlightRecord& rec : fr.Retained(10)) {
    EXPECT_EQ(rec.reason, FlightRetainReason::kHeadSample);
  }
}

TEST_F(FlightRecorderTest, SpansAccumulateIntoRetainedRecord) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 0.010;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();

  const uint64_t rid = 42;
  RecordSpan(rid, "serve/queue_wait", 100, 50);
  RecordSpan(rid, "serve/exec", 150, 80);

  fr.OnComplete(rid, 2, Answer(Status::OK(), 0.050));
  std::vector<FlightRecord> kept = fr.Retained(1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].request_id, rid);
  EXPECT_EQ(kept[0].shard, 2);
  ASSERT_EQ(kept[0].spans.size(), 2u);

  // A late span (the worker's exec span closes after the completion
  // callback) still lands on the retained record.
  RecordSpan(rid, "serve/late", 300, 10);
  EXPECT_EQ(fr.Retained(1)[0].spans.size(), 3u);

  // The Chrome export carries the request linkage for the retained trace.
  std::string json = fr.ToChromeTraceJson(8);
  EXPECT_NE(json.find("\"req\":42"), std::string::npos);
  EXPECT_NE(json.find("serve/queue_wait"), std::string::npos);
}

TEST_F(FlightRecorderTest, DiscardedRequestNeverGainsARecord) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 10.0;  // everything discards
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();

  const uint64_t rid = 7;
  RecordSpan(rid, "serve/exec", 10, 5);
  fr.OnComplete(rid, -1, Answer(Status::OK(), 0.001));
  EXPECT_EQ(fr.Stats().discarded, 1u);

  // A late span must not resurrect the discarded record.
  RecordSpan(rid, "serve/late", 30, 2);
  EXPECT_EQ(fr.Retained(10).size(), 0u);
}

TEST_F(FlightRecorderTest, PerRecordSpanCapCountsOverflow) {
  FlightRecorder::Options opts;
  opts.max_spans_per_record = 4;
  opts.slo_threshold_seconds = 0.0;  // retain everything
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();
  for (uint64_t i = 0; i < 6; ++i) {
    RecordSpan(9, "serve/path_cost", 10 * (i + 1), 5);
  }
  fr.OnComplete(9, -1, Answer(Status::OK(), 0.001));
  std::vector<FlightRecord> kept = fr.Retained(1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].spans.size(), 4u);
  EXPECT_EQ(kept[0].spans_dropped, 2u);
  EXPECT_EQ(fr.Stats().spans_captured, 4u);
  EXPECT_EQ(fr.Stats().spans_dropped, 2u);
}

TEST_F(FlightRecorderTest, DuplicateCompletionFirstWins) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 0.0;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();
  RecordSpan(5, "serve/exec", 10, 5);
  fr.OnComplete(5, 1, Answer(Status::OK(), 0.001));
  fr.OnComplete(5, 2, Answer(Status::Internal("late duplicate"), 0.002));
  std::vector<FlightRecord> kept = fr.Retained(10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].shard, 1);
  EXPECT_EQ(kept[0].status_code, StatusCode::kOk);
  // The duplicate is counted as a discard.
  EXPECT_EQ(fr.Stats().discarded, 1u);
}

TEST_F(FlightRecorderTest, NoisyTenantCannotEvictAnotherTenantsReserve) {
  FlightRecorder::Options opts;
  opts.capacity = 6;
  opts.reserved_per_tenant = 2;
  opts.slo_threshold_seconds = 0.0;  // retain everything
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();

  auto count = [&](const std::string& tenant) {
    size_t n = 0;
    for (const FlightRecord& rec : fr.Retained(100)) {
      if (rec.tenant == tenant) ++n;
    }
    return n;
  };

  // "noisy" fills the whole ring, then "quiet" retains a handful.
  for (int i = 0; i < 6; ++i) {
    fr.OnComplete(0, -1, Answer(Status::OK(), 0.001, "noisy"));
  }
  for (int i = 0; i < 4; ++i) {
    fr.OnComplete(0, -1, Answer(Status::OK(), 0.001, "quiet"));
  }
  EXPECT_EQ(fr.Stats().retained_records, 6u);
  EXPECT_EQ(count("quiet"), 4u);

  // A sustained noisy flood displaces quiet only down to its reserve —
  // after that, noisy evicts its own records.
  for (int i = 0; i < 40; ++i) {
    fr.OnComplete(0, -1, Answer(Status::OK(), 0.001, "noisy"));
  }
  EXPECT_EQ(fr.Stats().retained_records, 6u);
  EXPECT_EQ(count("quiet"), opts.reserved_per_tenant);
  EXPECT_EQ(count("noisy"), opts.capacity - opts.reserved_per_tenant);
  EXPECT_EQ(fr.Stats().evicted,
            fr.Stats().RetainedTotal() - fr.Stats().retained_records);
}

TEST_F(FlightRecorderTest, DumpFreezesOnWorseningTransitionsOnly) {
  FlightRecorder::Options opts;
  opts.slo_threshold_seconds = 0.0;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();

  // Scripted health-monitor samples: the dump's delta section must report
  // what changed over the sampling interval in which the state flipped.
  ServeStatsSnapshot before;
  before.submitted = 100;
  before.admitted = 90;
  before.completed = 80;
  ServeStatsSnapshot live = before;
  live.submitted = 160;
  live.admitted = 140;
  live.completed = 120;
  live.queue_depth = 12;

  fr.OnComplete(0, -1, Answer(Status::Internal("tail evidence"), 0.2));

  HealthTransition worse;
  worse.sample = 17;
  worse.from = HealthState::kHealthy;
  worse.to = HealthState::kDegraded;
  worse.top_offender = "exec";
  worse.burn_rate = 1.5;
  HealthSnapshot health;
  health.state = HealthState::kDegraded;
  fr.OnHealthTransition(worse, health, live, before);

  EXPECT_EQ(fr.Stats().dumps, 1u);
  std::string dump = fr.LatestDumpJson();
  EXPECT_NE(dump.find("\"kind\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(dump.find("\"dump_seq\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"from\":\"healthy\""), std::string::npos);
  EXPECT_NE(dump.find("\"to\":\"degraded\""), std::string::npos);
  EXPECT_NE(dump.find("\"top_offender\":\"exec\""), std::string::npos);
  EXPECT_NE(dump.find("\"submitted\":60"), std::string::npos);  // delta
  EXPECT_NE(dump.find("\"retained_records\":1"), std::string::npos);
  EXPECT_NE(dump.find("tail evidence"), std::string::npos);

  // Recovery changes no evidence: no new dump.
  HealthTransition recover;
  recover.from = HealthState::kDegraded;
  recover.to = HealthState::kHealthy;
  fr.OnHealthTransition(recover, health, live, before);
  EXPECT_EQ(fr.Stats().dumps, 1u);

  // A further escalation freezes the next dump, with a delta measured over
  // its own sampling interval.
  ServeStatsSnapshot later = live;
  later.submitted = 200;
  HealthTransition escalate;
  escalate.from = HealthState::kDegraded;
  escalate.to = HealthState::kUnhealthy;
  fr.OnHealthTransition(escalate, health, later, live);
  EXPECT_EQ(fr.Stats().dumps, 2u);
  std::string second = fr.LatestDumpJson();
  EXPECT_NE(second.find("\"dump_seq\":2"), std::string::npos);
  EXPECT_NE(second.find("\"to\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(second.find("\"submitted\":40"), std::string::npos);  // 200-160
}

// The race the sanitizer gates exist for: concurrent span recording and
// completions (retain + evict under ring pressure), a reader snapshotting
// retained traces and stats, and a dumper freezing black-box dumps — all
// against the same global recorder.
TEST_F(FlightRecorderTest, ConcurrentRetainEvictDumpIsRaceFree) {
  FlightRecorder::Options opts;
  opts.capacity = 32;
  opts.reserved_per_tenant = 4;
  opts.slo_threshold_seconds = 0.0;  // retain everything -> eviction churn
  opts.max_spans_per_record = 8;
  Use(opts);
  FlightRecorder& fr = FlightRecorder::Global();
  ServeStatsSnapshot serve;
  serve.submitted = 1;

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 400;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)fr.Retained(16);
      (void)fr.ToChromeTraceJson(8);
      (void)fr.Stats();
    }
  });
  std::thread dumper([&] {
    HealthTransition t;
    t.from = HealthState::kHealthy;
    t.to = HealthState::kDegraded;
    HealthSnapshot h;
    while (!stop.load(std::memory_order_relaxed)) {
      fr.OnHealthTransition(t, h, serve, ServeStatsSnapshot{});
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const uint64_t rid = 1 + static_cast<uint64_t>(w) * kPerWriter + i;
        RecordSpan(rid, "serve/exec", rid * 10, 5);
        RecordSpan(rid, "serve/path_cost", rid * 10 + 1, 2);
        RouteAnswer a = Answer(
            i % 7 == 0 ? Status::ResourceExhausted("shed") : Status::OK(),
            0.001, "tenant-" + std::to_string(w % 3));
        fr.OnComplete(rid, w, a);
        // Late span after the completion decided the record's fate.
        RecordSpan(rid, "serve/late", rid * 10 + 7, 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  dumper.join();

  FlightStatsSnapshot s = fr.Stats();
  constexpr uint64_t kTotal = static_cast<uint64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(s.observed, kTotal);
  // slo threshold 0 retains every completion: the books must balance.
  EXPECT_EQ(s.RetainedTotal(), kTotal);
  EXPECT_EQ(s.discarded, 0u);
  EXPECT_EQ(s.retained_records, opts.capacity);
  EXPECT_EQ(s.evicted, kTotal - opts.capacity);
  EXPECT_GT(s.dumps, 0u);
  EXPECT_NE(fr.LatestDumpJson(), "");
  // Every retained record carries its span tree.
  for (const FlightRecord& rec : fr.Retained(opts.capacity)) {
    EXPECT_GE(rec.spans.size(), 2u);
  }
}

}  // namespace
}  // namespace tsdm
