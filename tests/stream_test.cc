#include "src/stream/stream_buffer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/anomaly/detector.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/stream_bridge.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace tsdm {
namespace {

// ---------------------------------------------------------------- buffer

TEST(StreamBufferTest, RingWraparoundRetainsNewest) {
  StreamBuffer buf(1, 4, DropPolicy::kDropOldest);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(buf.Push(0, i, static_cast<double>(i)));
  }
  EXPECT_EQ(buf.SensorFill(0), 4u);
  std::vector<double> values;
  std::vector<int64_t> timestamps;
  buf.SnapshotSensor(0, &values, &timestamps);
  ASSERT_EQ(values.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(values[i], 6.0 + i);  // the last four, in order
    EXPECT_EQ(timestamps[i], 6 + i);
  }
  EXPECT_EQ(buf.SensorFill(0), 4u);  // polling all leaves retention full
  Tick t;
  while (buf.Poll(&t)) {
  }
  EXPECT_EQ(buf.SensorFill(0), 4u);
}

TEST(StreamBufferTest, DropNewestRejectsWhenFull) {
  StreamBuffer buf(1, 4, DropPolicy::kDropNewest);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(buf.Push(0, i, 1.0 + i));
  EXPECT_FALSE(buf.Push(0, 4, 5.0));  // rejected, ring keeps 1..4
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.accepted(), 4u);
  EXPECT_EQ(buf.SensorFill(0), 4u);  // a rejected tick is not retained
  Tick t;
  ASSERT_TRUE(buf.Poll(&t));
  EXPECT_DOUBLE_EQ(t.value, 1.0);  // the oldest survived
  // Polling frees a slot: the next push lands and overwrites the polled
  // tick, so the window still holds four.
  EXPECT_TRUE(buf.Push(0, 5, 6.0));
  EXPECT_EQ(buf.SensorFill(0), 4u);
  std::vector<double> values;
  buf.SnapshotSensor(0, &values);
  EXPECT_EQ(values, (std::vector<double>{2.0, 3.0, 4.0, 6.0}));
}

TEST(StreamBufferTest, DropOldestEvictsOldestUnconsumed) {
  StreamBuffer buf(1, 4, DropPolicy::kDropOldest);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(buf.Push(0, i, 1.0 + i));
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.accepted(), 5u);
  EXPECT_EQ(buf.NumUnconsumed(), 4u);
  Tick t;
  ASSERT_TRUE(buf.Poll(&t));
  EXPECT_DOUBLE_EQ(t.value, 2.0);  // tick 1 was evicted
}

TEST(StreamBufferTest, PerSensorFifoAndRoundRobinAcrossSensors) {
  StreamBuffer buf(3, 8, DropPolicy::kDropOldest);
  for (int i = 0; i < 4; ++i) {
    for (size_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(buf.Push(s, i, static_cast<double>(10 * s + i)));
    }
  }
  std::vector<int> next(3, 0);
  Tick t;
  size_t polled = 0;
  while (buf.Poll(&t)) {
    // Per-sensor order must be exactly FIFO regardless of interleaving.
    EXPECT_DOUBLE_EQ(t.value, 10.0 * t.sensor + next[t.sensor]);
    ++next[t.sensor];
    ++polled;
  }
  EXPECT_EQ(polled, 12u);
  for (int n : next) EXPECT_EQ(n, 4);
}

TEST(StreamBufferTest, SnapshotRetainsConsumedTicks) {
  StreamBuffer buf(1, 8, DropPolicy::kDropOldest);
  for (int i = 0; i < 5; ++i) buf.Push(0, i, 1.0 + i);
  Tick t;
  while (buf.Poll(&t)) {
  }
  EXPECT_EQ(buf.NumUnconsumed(), 0u);
  std::vector<double> values;
  buf.SnapshotSensor(0, &values);
  EXPECT_EQ(values.size(), 5u);  // retention survives consumption
}

TEST(StreamBufferTest, OutOfRangeSensorRejected) {
  StreamBuffer buf(2, 4);
  EXPECT_FALSE(buf.Push(2, 0, 1.0));
  EXPECT_EQ(buf.accepted(), 0u);
}

// Multi-producer ingestion with a concurrent consumer and snapshotter —
// the TSan target: every tick must be either polled or counted dropped.
TEST(StreamBufferTest, MultiProducerAccountingUnderConcurrency) {
  constexpr size_t kSensors = 8;
  constexpr int kProducers = 4;
  constexpr int kTicksPerProducer = 5000;
  StreamBuffer buf(kSensors, 64, DropPolicy::kDropOldest);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> polled{0};
  std::thread consumer([&] {
    Tick t;
    while (true) {
      if (buf.Poll(&t)) {
        polled.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        if (!buf.Poll(&t)) break;
        polled.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::thread snapshotter([&] {
    std::vector<double> values;
    while (!done.load(std::memory_order_acquire)) {
      for (size_t s = 0; s < kSensors; ++s) buf.SnapshotSensor(s, &values);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTicksPerProducer; ++i) {
        buf.Push(static_cast<size_t>(i) % kSensors, i,
                 static_cast<double>(p * kTicksPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  snapshotter.join();

  uint64_t total = static_cast<uint64_t>(kProducers) * kTicksPerProducer;
  EXPECT_EQ(buf.accepted(), total);  // kDropOldest always admits
  EXPECT_EQ(polled.load() + buf.dropped(), total);
}

// Poll order is cyclic from the cursor, and the cursor lands one past the
// sensor last polled. IngestService::ApplyTick and HealthMonitor see ticks
// in this order, so it is pinned exactly.
TEST(StreamBufferTest, PollOrderIsCyclicFromTheCursor) {
  StreamBuffer buf(8, 4);
  auto poll_sensor = [&buf] {
    Tick t;
    EXPECT_TRUE(buf.Poll(&t));
    return t.sensor;
  };
  for (size_t s : {5, 1, 3}) ASSERT_TRUE(buf.Push(s, 0, 1.0));
  std::vector<size_t> order = {poll_sensor()};
  for (size_t s : {0, 2}) ASSERT_TRUE(buf.Push(s, 0, 1.0));
  Tick t;
  while (buf.Poll(&t)) order.push_back(t.sensor);
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 3, 5, 0}));
  // The last tick polled was sensor 0, so the scan resumes at sensor 1.
  for (size_t s : {0, 1}) ASSERT_TRUE(buf.Push(s, 1, 1.0));
  EXPECT_EQ(poll_sensor(), 1u);
  EXPECT_EQ(poll_sensor(), 0u);
}

// stream_fanin's shape: three producers on disjoint sensor sets (sensor = p
// mod 3) and one consumer, with rings small enough that ticks are dropped.
void RunFanIn(DropPolicy policy) {
  constexpr size_t kSensors = 48;
  constexpr size_t kProducers = 3;
  constexpr int64_t kTicksPerSensor = 2000;
  StreamBuffer buf(kSensors, 8, policy);

  std::atomic<bool> done{false};
  uint64_t polled = 0;
  uint64_t order_violations = 0;
  std::thread consumer([&] {
    std::vector<int64_t> last(kSensors, -1);
    Tick t;
    for (;;) {
      if (!buf.Poll(&t)) {
        if (done.load(std::memory_order_acquire) && buf.NumUnconsumed() == 0) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      ++polled;
      if (t.timestamp <= last[t.sensor]) ++order_violations;
      last[t.sensor] = t.timestamp;
    }
  });
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&buf, p] {
      for (int64_t ts = 0; ts < kTicksPerSensor; ++ts) {
        for (size_t s = p; s < kSensors; s += kProducers) {
          buf.Push(s, ts, static_cast<double>(ts));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  const uint64_t pushed = kSensors * kTicksPerSensor;
  EXPECT_EQ(order_violations, 0u);
  if (policy == DropPolicy::kDropOldest) {
    EXPECT_EQ(buf.accepted(), pushed);
    EXPECT_EQ(polled + buf.dropped(), pushed);
  } else {
    EXPECT_EQ(buf.accepted() + buf.dropped(), pushed);
    EXPECT_EQ(polled, buf.accepted());
  }
}

TEST(StreamBufferTest, FanInDropOldestKeepsPerSensorOrderAndAccounts) {
  RunFanIn(DropPolicy::kDropOldest);
}

TEST(StreamBufferTest, FanInDropNewestKeepsPerSensorOrderAndAccounts) {
  RunFanIn(DropPolicy::kDropNewest);
}

// Many producers on one sensor, more of them than CPUs, so ring lock
// holders get preempted and waiters park; a consumer and a snapshotter
// share the ring. Each value encodes (producer, index): every producer's
// ticks must come out of the shared ring in the order it pushed them, and
// every push must be accounted as polled or dropped.
void RunSharedRing(DropPolicy policy) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int kProducers = static_cast<int>(std::max(2u, std::min(2 * hw, 16u)));
  constexpr int64_t kTicksPerProducer = 10000;
  constexpr size_t kCapacity = 16;
  StreamBuffer buf(1, kCapacity, policy);

  std::atomic<bool> done{false};
  uint64_t polled = 0;
  uint64_t order_violations = 0;
  std::thread consumer([&] {
    std::vector<int64_t> last(static_cast<size_t>(kProducers), -1);
    Tick t;
    for (;;) {
      if (!buf.Poll(&t)) {
        if (done.load(std::memory_order_acquire) && buf.NumUnconsumed() == 0) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      ++polled;
      const auto code = static_cast<int64_t>(t.value);
      const auto p = static_cast<size_t>(code / kTicksPerProducer);
      const int64_t index = code % kTicksPerProducer;
      if (p >= last.size() || t.timestamp != index || index <= last[p]) {
        ++order_violations;
      } else {
        last[p] = index;
      }
    }
  });
  uint64_t snapshot_violations = 0;
  std::thread snapshotter([&] {
    std::vector<double> values;
    std::vector<int64_t> timestamps;
    while (!done.load(std::memory_order_acquire)) {
      buf.SnapshotSensor(0, &values, &timestamps);
      if (values.size() > kCapacity || values.size() != timestamps.size()) {
        ++snapshot_violations;
      }
      // The window is oldest -> newest, so each producer's indices rise.
      std::vector<int64_t> last(static_cast<size_t>(kProducers), -1);
      for (double v : values) {
        const auto code = static_cast<int64_t>(v);
        const auto p = static_cast<size_t>(code / kTicksPerProducer);
        if (p >= last.size() || code % kTicksPerProducer <= last[p]) {
          ++snapshot_violations;
          break;
        }
        last[p] = code % kTicksPerProducer;
      }
      std::this_thread::yield();
    }
  });
  // Producers start together, so their pushes overlap.
  std::atomic<int> ready{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&buf, &ready, p, kProducers] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kProducers) {
        std::this_thread::yield();
      }
      for (int64_t i = 0; i < kTicksPerProducer; ++i) {
        buf.Push(0, i, static_cast<double>(p * kTicksPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  snapshotter.join();

  const uint64_t pushed = static_cast<uint64_t>(kProducers) * kTicksPerProducer;
  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(snapshot_violations, 0u);
  EXPECT_EQ(buf.NumUnconsumed(), 0u);
  EXPECT_EQ(buf.SensorFill(0), kCapacity);
  if (policy == DropPolicy::kDropOldest) {
    EXPECT_EQ(buf.accepted(), pushed);
    EXPECT_EQ(polled + buf.dropped(), pushed);
  } else {
    EXPECT_EQ(buf.accepted() + buf.dropped(), pushed);
    EXPECT_EQ(polled, buf.accepted());
  }
}

TEST(StreamBufferTest, SharedRingDropOldestKeepsPerProducerFifoAndAccounts) {
  RunSharedRing(DropPolicy::kDropOldest);
}

TEST(StreamBufferTest, SharedRingDropNewestKeepsPerProducerFifoAndAccounts) {
  RunSharedRing(DropPolicy::kDropNewest);
}

// A snapshot of a large ring holds its lock far longer than a locker spins,
// so producers pushing while it runs park on the lock word. Each unlock that
// finds parked waiters must wake one: a lost wake-up leaves a producer
// parked for good, which the watchdog reports instead of hanging.
TEST(StreamBufferTest, ProducersParkedBehindLongSnapshotsAreWoken) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int kProducers = static_cast<int>(std::max(2u, std::min(2 * hw, 16u)));
  constexpr int kSnapshots = 50;
  constexpr size_t kCapacity = size_t{1} << 17;
  StreamBuffer buf(1, kCapacity, DropPolicy::kDropOldest);
  for (size_t i = 0; i < kCapacity; ++i) buf.Push(0, 0, 0.0);

  std::atomic<bool> snapshots_done{false};
  std::atomic<int> finished{0};
  std::atomic<uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      uint64_t n = 0;
      while (!snapshots_done.load(std::memory_order_acquire)) {
        buf.Push(0, static_cast<int64_t>(n), 1.0);
        ++n;
      }
      pushed.fetch_add(n, std::memory_order_relaxed);
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  // Pauses between snapshots: back to back, the snapshotter would retake
  // the lock before a woken producer runs, and starve the producers.
  std::thread snapshotter([&] {
    std::vector<double> values;
    for (int i = 0; i < kSnapshots; ++i) {
      buf.SnapshotSensor(0, &values);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    snapshots_done.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load(std::memory_order_acquire) < kProducers) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "%d of %d producers still parked after 60 s\n",
                   kProducers - finished.load(), kProducers);
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : producers) t.join();
  snapshotter.join();
  EXPECT_EQ(buf.accepted(), kCapacity + pushed.load());
  EXPECT_EQ(buf.dropped(), pushed.load());  // the ring was full throughout
}

// -------------------------------------------------------------- pipeline

TEST(StreamPipelineTest, RequiresReset) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  TickRecord rec;
  EXPECT_EQ(pipeline.ProcessTick(&rec).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pipeline.Reset(2).ok());
  EXPECT_TRUE(pipeline.ProcessTick(Tick{0, 0, 1.0}).ok());
}

TEST(StreamPipelineTest, MetricsCoverEveryStageAndTick) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>()
      .Emplace<OnlineForecastStage>();
  ASSERT_TRUE(pipeline.Reset(2).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        pipeline.ProcessTick(Tick{static_cast<size_t>(i % 2), i, 0.5 * i})
            .ok());
  }
  EXPECT_EQ(pipeline.ticks_processed(), 100u);
  EXPECT_EQ(pipeline.tick_latency().count(), 100u);
  ASSERT_EQ(pipeline.metrics().stages().size(), 3u);
  for (const auto& [name, metrics] : pipeline.metrics().stages()) {
    EXPECT_EQ(metrics.invocations, 100u) << name;
    EXPECT_EQ(metrics.failures, 0u) << name;
    EXPECT_EQ(metrics.latency.count(), 100u) << name;
  }
}

TEST(StreamPipelineTest, StageFailureIsCountedAndReturned) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  ASSERT_TRUE(pipeline.Reset(1).ok());
  EXPECT_EQ(pipeline.ProcessTick(Tick{5, 0, 1.0}).code(),
            StatusCode::kOutOfRange);
  const auto& stages = pipeline.metrics().stages();
  EXPECT_EQ(stages.at("stream/stats").failures, 1u);
  EXPECT_EQ(pipeline.ticks_processed(), 0u);
}

// Stage latencies telescope: the stages of a tick share their boundary
// samples, so they add up to the tick's latency with nothing left over.
TEST(StreamPipelineTest, StageLatenciesAddUpToTickLatency) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>()
      .Emplace<OnlineForecastStage>();
  ASSERT_TRUE(pipeline.Reset(4).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        pipeline.ProcessTick(Tick{static_cast<size_t>(i % 4), i, 0.1 * i})
            .ok());
  }
  double stage_sum = 0.0;
  for (const auto& [name, metrics] : pipeline.metrics().stages()) {
    EXPECT_EQ(metrics.latency.count(), pipeline.tick_latency().count())
        << name;
    stage_sum += metrics.latency.total_seconds();
  }
  EXPECT_NEAR(stage_sum, pipeline.tick_latency().total_seconds(), 1e-9);
}

class FailingStage : public StreamStage {
 public:
  std::string Name() const override { return "test/failing"; }
  Status Reset(size_t) override { return Status::OK(); }
  Status OnTick(TickRecord*) override {
    return Status::Internal("failing stage");
  }
};

// A failed tick closes at the end of the stage that failed: its latency is
// the sum of the stages it attempted.
TEST(StreamPipelineTest, FailedTickLatencyIsSumOfAttemptedStages) {
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<FailingStage>()
      .Emplace<OnlineForecastStage>();
  ASSERT_TRUE(pipeline.Reset(4).ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(
        pipeline.ProcessTick(Tick{static_cast<size_t>(i % 4), i, 0.1 * i})
            .code(),
        StatusCode::kInternal);
  }
  const auto& stages = pipeline.metrics().stages();
  const LatencyHistogram& stats = stages.at("stream/stats").latency;
  const LatencyHistogram& failing = stages.at("test/failing").latency;
  EXPECT_EQ(stages.at("test/failing").failures, 1000u);
  EXPECT_EQ(stages.at("stream/forecast-holt").latency.count(), 0u);
  EXPECT_EQ(pipeline.tick_latency().count(), 1000u);
  EXPECT_NEAR(stats.total_seconds() + failing.total_seconds(),
              pipeline.tick_latency().total_seconds(), 1e-9);
}

TEST(StreamPipelineTest, DrainProcessesEverythingBuffered) {
  StreamBuffer buf(4, 32);
  for (int i = 0; i < 20; ++i) {
    buf.Push(static_cast<size_t>(i) % 4, i, static_cast<double>(i));
  }
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  ASSERT_TRUE(pipeline.Reset(4).ok());
  TickRecord rec;
  EXPECT_EQ(pipeline.Drain(&buf, &rec), 20u);
  EXPECT_EQ(buf.NumUnconsumed(), 0u);
}

// ------------------------------------------------- incremental == batch

std::vector<double> RandomWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 10.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Normal(0.05, 1.0);
    v[i] = x;
  }
  return v;
}

TEST(StreamPropertyTest, WelfordMatchesBatchStats) {
  std::vector<double> data = RandomWalk(500, 11);
  WelfordStatsStage stage;
  ASSERT_TRUE(stage.Reset(1).ok());
  TickRecord rec;
  for (size_t i = 0; i < data.size(); ++i) {
    rec.tick = Tick{0, static_cast<int64_t>(i), data[i]};
    ASSERT_TRUE(stage.OnTick(&rec).ok());
    // The record carries stats over the prefix [0, i] — compare against
    // the batch equivalents on the same prefix.
    std::vector<double> prefix(data.begin(), data.begin() + i + 1);
    EXPECT_EQ(rec.stat_count, i + 1);
    EXPECT_NEAR(rec.mean, Mean(prefix), 1e-9 * (1.0 + std::fabs(rec.mean)));
    EXPECT_NEAR(rec.stdev, Stdev(prefix), 1e-8 * (1.0 + rec.stdev));
  }
}

TEST(StreamPropertyTest, OnlineZScoreMatchesBatchPrefixDetector) {
  std::vector<double> data = RandomWalk(300, 12);
  OnlineAnomalyStage stage(OnlineAnomalyStage::Mode::kZScore);
  ASSERT_TRUE(stage.Reset(1).ok());
  TickRecord rec;
  for (size_t i = 0; i < data.size(); ++i) {
    rec.tick = Tick{0, static_cast<int64_t>(i), data[i]};
    ASSERT_TRUE(stage.OnTick(&rec).ok());
    if (i < 2) continue;  // batch detector needs >= 2 training points
    // The streaming score of tick i is exactly the batch ZScoreDetector
    // fitted on the prefix [0, i) and applied to data[i].
    ZScoreDetector batch;
    std::vector<double> prefix(data.begin(), data.begin() + i);
    ASSERT_TRUE(batch.Fit(prefix).ok());
    Result<std::vector<double>> score =
        batch.Score(std::vector<double>{data[i]});
    ASSERT_TRUE(score.ok());
    EXPECT_NEAR(rec.anomaly_score, (*score)[0],
                1e-8 * (1.0 + rec.anomaly_score))
        << "tick " << i;
  }
}

TEST(StreamPropertyTest, HoltForecastMatchesBatchRecursion) {
  std::vector<double> data = RandomWalk(200, 13);
  const double alpha = 0.3, beta = 0.1;
  OnlineForecastStage stage(alpha, beta);
  ASSERT_TRUE(stage.Reset(1).ok());
  // Reference: the textbook Holt recursion unrolled over the prefix.
  double level = 0.0, trend = 0.0;
  TickRecord rec;
  for (size_t i = 0; i < data.size(); ++i) {
    rec.tick = Tick{0, static_cast<int64_t>(i), data[i]};
    ASSERT_TRUE(stage.OnTick(&rec).ok());
    if (i == 0) {
      level = data[0];
      trend = 0.0;
      EXPECT_TRUE(std::isnan(rec.forecast));
    } else {
      EXPECT_NEAR(rec.forecast, level + trend, 1e-12 * (1.0 + std::fabs(level)));
      EXPECT_NEAR(rec.forecast_error, data[i] - (level + trend),
                  1e-9);
      double new_level = alpha * data[i] + (1.0 - alpha) * (level + trend);
      trend = beta * (new_level - level) + (1.0 - beta) * trend;
      level = new_level;
    }
    EXPECT_NEAR(rec.forecast_next, level + trend,
                1e-12 * (1.0 + std::fabs(level)));
  }
  EXPECT_NEAR(stage.ForecastNext(0), level + trend,
              1e-12 * (1.0 + std::fabs(level)));
}

TEST(StreamPropertyTest, MadModeFlagsInjectedSpike) {
  OnlineAnomalyStage stage(OnlineAnomalyStage::Mode::kMad,
                           /*threshold=*/8.0);
  ASSERT_TRUE(stage.Reset(1).ok());
  Rng rng(14);
  TickRecord rec;
  bool spike_flagged = false;
  uint64_t warmup_alarms = 0;  // EW scale estimate may misfire early on
  for (int i = 0; i < 400; ++i) {
    double value = 50.0 + rng.Normal(0.0, 1.0);
    if (i == 350) value += 80.0;  // the fault
    rec.tick = Tick{0, i, value};
    ASSERT_TRUE(stage.OnTick(&rec).ok());
    if (i == 50) warmup_alarms = stage.alarms();
    if (i == 350) {
      spike_flagged = rec.is_anomaly;
    } else if (i > 50) {
      EXPECT_FALSE(rec.is_anomaly) << "false alarm at tick " << i;
    }
  }
  EXPECT_TRUE(spike_flagged);
  EXPECT_EQ(stage.alarms() - warmup_alarms, 1u);
}

// ---------------------------------------------------------------- bridge

/// Builds the standard three-stage analytics pipeline used by the durable
/// ingestion tier, so snapshot/restore is proven on the exact stage set the
/// WAL replay path depends on.
void BuildAnalyticsPipeline(StreamPipeline* pipeline) {
  pipeline->Emplace<WelfordStatsStage>();
  pipeline->Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kMad, 6.0,
                                        0.05);
  pipeline->Emplace<OnlineForecastStage>(0.3, 0.1);
}

TEST(StreamStateTest, SnapshotRestoreRoundTripIsBitwiseExact) {
  const size_t kSensors = 3;
  const size_t kWarmup = 120;  // ticks before the snapshot
  const size_t kAfter = 200;   // ticks replayed on both sides of the fork
  std::vector<double> data = RandomWalk(kWarmup + kAfter, 77);

  StreamPipeline original;
  BuildAnalyticsPipeline(&original);
  ASSERT_TRUE(original.Reset(kSensors).ok());

  TickRecord rec;
  for (size_t i = 0; i < kWarmup; ++i) {
    rec.tick = {i % kSensors, static_cast<int64_t>(i), data[i]};
    ASSERT_TRUE(original.ProcessTick(&rec).ok());
  }

  std::vector<uint8_t> state;
  ASSERT_TRUE(original.SaveState(&state).ok());

  // Restore into an identically-constructed pipeline that never saw the
  // warmup ticks.
  StreamPipeline restored;
  BuildAnalyticsPipeline(&restored);
  ASSERT_TRUE(restored.Reset(kSensors).ok());
  ASSERT_TRUE(restored.RestoreState(state.data(), state.size()).ok());
  EXPECT_EQ(restored.ticks_processed(), kWarmup);

  // Both must now produce bitwise-identical records for every future tick:
  // same anomaly scores and alarm bits, same forecasts — the contract WAL
  // replay recovery is built on.
  TickRecord rec_a, rec_b;
  for (size_t i = kWarmup; i < kWarmup + kAfter; ++i) {
    rec_a.tick = {i % kSensors, static_cast<int64_t>(i), data[i]};
    rec_b.tick = rec_a.tick;
    ASSERT_TRUE(original.ProcessTick(&rec_a).ok());
    ASSERT_TRUE(restored.ProcessTick(&rec_b).ok());
    EXPECT_EQ(rec_a.stat_count, rec_b.stat_count) << i;
    EXPECT_EQ(std::memcmp(&rec_a.mean, &rec_b.mean, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&rec_a.stdev, &rec_b.stdev, sizeof(double)), 0)
        << i;
    EXPECT_EQ(std::memcmp(&rec_a.anomaly_score, &rec_b.anomaly_score,
                          sizeof(double)),
              0)
        << i;
    EXPECT_EQ(rec_a.is_anomaly, rec_b.is_anomaly) << i;
    EXPECT_EQ(std::memcmp(&rec_a.forecast_next, &rec_b.forecast_next,
                          sizeof(double)),
              0)
        << i;
  }

  // And the end states serialize identically.
  std::vector<uint8_t> end_a, end_b;
  ASSERT_TRUE(original.SaveState(&end_a).ok());
  ASSERT_TRUE(restored.SaveState(&end_b).ok());
  ASSERT_EQ(end_a.size(), end_b.size());
  EXPECT_EQ(std::memcmp(end_a.data(), end_b.data(), end_a.size()), 0);
}

TEST(StreamStateTest, ZScoreModeRoundTripsToo) {
  std::vector<double> data = RandomWalk(150, 21);
  StreamPipeline a, b;
  a.Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kZScore, 4.0);
  b.Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kZScore, 4.0);
  ASSERT_TRUE(a.Reset(2).ok());
  ASSERT_TRUE(b.Reset(2).ok());
  TickRecord rec;
  for (size_t i = 0; i < 100; ++i) {
    rec.tick = {i % 2, static_cast<int64_t>(i), data[i]};
    ASSERT_TRUE(a.ProcessTick(&rec).ok());
  }
  std::vector<uint8_t> state;
  ASSERT_TRUE(a.SaveState(&state).ok());
  ASSERT_TRUE(b.RestoreState(state.data(), state.size()).ok());
  TickRecord rec_a, rec_b;
  for (size_t i = 100; i < 150; ++i) {
    rec_a.tick = {i % 2, static_cast<int64_t>(i), data[i]};
    rec_b.tick = rec_a.tick;
    ASSERT_TRUE(a.ProcessTick(&rec_a).ok());
    ASSERT_TRUE(b.ProcessTick(&rec_b).ok());
    EXPECT_EQ(std::memcmp(&rec_a.anomaly_score, &rec_b.anomaly_score,
                          sizeof(double)),
              0)
        << i;
  }
}

TEST(StreamStateTest, RestoreRejectsMismatchedPipelines) {
  StreamPipeline source;
  BuildAnalyticsPipeline(&source);
  ASSERT_TRUE(source.Reset(2).ok());
  TickRecord rec;
  rec.tick = {0, 1, 5.0};
  ASSERT_TRUE(source.ProcessTick(&rec).ok());
  std::vector<uint8_t> state;
  ASSERT_TRUE(source.SaveState(&state).ok());

  // Different stage set.
  StreamPipeline fewer;
  fewer.Emplace<WelfordStatsStage>();
  ASSERT_TRUE(fewer.Reset(2).ok());
  EXPECT_EQ(fewer.RestoreState(state.data(), state.size()).code(),
            StatusCode::kInvalidArgument);

  // Same stage count, different anomaly mode (stage name differs).
  StreamPipeline wrong_mode;
  wrong_mode.Emplace<WelfordStatsStage>();
  wrong_mode.Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kZScore);
  wrong_mode.Emplace<OnlineForecastStage>();
  ASSERT_TRUE(wrong_mode.Reset(2).ok());
  EXPECT_EQ(wrong_mode.RestoreState(state.data(), state.size()).code(),
            StatusCode::kInvalidArgument);

  // Truncated and trailing-garbage blobs.
  StreamPipeline target;
  BuildAnalyticsPipeline(&target);
  ASSERT_TRUE(target.Reset(2).ok());
  EXPECT_EQ(target.RestoreState(state.data(), state.size() / 2).code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> padded = state;
  padded.push_back(0xAA);
  EXPECT_EQ(target.RestoreState(padded.data(), padded.size()).code(),
            StatusCode::kInvalidArgument);

  // An undamaged blob still restores after the failed attempts.
  EXPECT_TRUE(target.RestoreState(state.data(), state.size()).ok());
  EXPECT_EQ(target.ticks_processed(), 1u);
}

TEST(StreamBridgeTest, SnapshotRightAlignsAndPadsMissing) {
  StreamBuffer buf(3, 8, DropPolicy::kDropOldest);
  for (int i = 0; i < 6; ++i) buf.Push(0, 100 + i, 1.0 + i);
  for (int i = 0; i < 3; ++i) buf.Push(1, 103 + i, 10.0 + i);
  // sensor 2 stays silent.
  SensorGraph graph(3);
  PipelineContext ctx;
  ASSERT_TRUE(SnapshotToContext(buf, graph, &ctx).ok());
  ASSERT_EQ(ctx.data.NumSteps(), 6u);
  ASSERT_EQ(ctx.data.NumSensors(), 3u);
  // Sensor 0 fills every step; sensor 1 occupies the last three.
  EXPECT_DOUBLE_EQ(ctx.data.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ctx.data.At(5, 0), 6.0);
  EXPECT_TRUE(ctx.data.series().IsMissing(2, 1));
  EXPECT_DOUBLE_EQ(ctx.data.At(3, 1), 10.0);
  EXPECT_DOUBLE_EQ(ctx.data.At(5, 1), 12.0);
  for (size_t t = 0; t < 6; ++t) {
    EXPECT_TRUE(ctx.data.series().IsMissing(t, 2));
  }
  EXPECT_DOUBLE_EQ(ctx.metrics["stream_snapshot_steps"], 6.0);
  EXPECT_DOUBLE_EQ(ctx.metrics["stream_snapshot_missing"], 9.0);
  // Timestamps come from the longest ring.
  EXPECT_EQ(ctx.data.series().Timestamp(0), 100);
  EXPECT_EQ(ctx.data.series().Timestamp(5), 105);
}

TEST(StreamBridgeTest, GraphMismatchRejected) {
  StreamBuffer buf(3, 8);
  SensorGraph graph(2);
  PipelineContext ctx;
  EXPECT_EQ(SnapshotToContext(buf, graph, &ctx).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamBridgeTest, EmptyBufferYieldsEmptyContext) {
  StreamBuffer buf(2, 8);
  SensorGraph graph(2);
  PipelineContext ctx;
  ASSERT_TRUE(SnapshotToContext(buf, graph, &ctx).ok());
  EXPECT_EQ(ctx.data.NumSteps(), 0u);
}

TEST(StreamBridgeTest, SnapshotFeedsBatchPipeline) {
  constexpr size_t kSensors = 4;
  StreamBuffer buf(kSensors, 64, DropPolicy::kDropOldest);
  Rng rng(15);
  for (int i = 0; i < 64; ++i) {
    for (size_t s = 0; s < kSensors; ++s) {
      // Sensor 3 joins late: leading gap for the imputer to fill.
      if (s == 3 && i < 20) continue;
      buf.Push(s, i, 20.0 + std::sin(0.2 * i) + rng.Normal(0.0, 0.1));
    }
  }
  std::vector<SensorGraph::Sensor> positions;
  for (size_t s = 0; s < kSensors; ++s) {
    positions.push_back({static_cast<double>(s), 0.0});
  }
  SensorGraph graph = SensorGraph::KNearest(positions, 2, 1.0);
  PipelineContext ctx;
  ASSERT_TRUE(SnapshotToContext(buf, graph, &ctx).ok());
  EXPECT_GT(ctx.data.series().CountMissing(), 0u);

  Pipeline batch;
  batch.Emplace<ImputeStage>().Emplace<ForecastStage>(4, 8);
  PipelineReport report = batch.Run(&ctx);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(ctx.data.series().CountMissing(), 0u);
  EXPECT_EQ(ctx.artifacts.count("forecast/0"), 1u);
}

// The full streaming loop end to end: concurrent producers, one consumer
// pipeline, then a bridge snapshot — the integration surface the TSan gate
// exercises.
TEST(StreamIntegrationTest, ProducersPipelineAndSnapshotTogether) {
  constexpr size_t kSensors = 4;
  StreamBuffer buf(kSensors, 128, DropPolicy::kDropOldest);
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>()
      .Emplace<OnlineForecastStage>();
  ASSERT_TRUE(pipeline.Reset(kSensors).ok());

  std::atomic<bool> done{false};
  std::thread producer_a([&] {
    for (int i = 0; i < 2000; ++i) buf.Push(static_cast<size_t>(i) % 2, i, 1.0 * i);
  });
  std::thread producer_b([&] {
    for (int i = 0; i < 2000; ++i) {
      buf.Push(2 + static_cast<size_t>(i) % 2, i, 2.0 * i);
    }
  });
  size_t processed = 0;
  std::thread consumer([&] {
    TickRecord rec;
    while (true) {
      size_t n = pipeline.Drain(&buf, &rec);
      processed += n;
      if (n == 0) {
        if (done.load(std::memory_order_acquire)) {
          processed += pipeline.Drain(&buf, &rec);
          break;
        }
        std::this_thread::yield();
      }
    }
  });
  producer_a.join();
  producer_b.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(processed, pipeline.ticks_processed());
  EXPECT_EQ(processed + buf.dropped(), buf.accepted());

  SensorGraph graph(kSensors);
  PipelineContext ctx;
  ASSERT_TRUE(SnapshotToContext(buf, graph, &ctx).ok());
  EXPECT_EQ(ctx.data.NumSteps(), 128u);
}

}  // namespace
}  // namespace tsdm
