#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/histogram_ext.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/obs/metrics_export.h"
#include "src/sim/inject.h"
#include "src/sim/ts_gen.h"

namespace tsdm {
namespace {

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 51);
}

TEST(ThreadPoolTest, WorkerIdIsBoundedAndUnsetOffPool) {
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);
  ThreadPool pool(3);
  std::atomic<int> bad_ids{0};
  for (int i = 0; i < 60; ++i) {
    pool.Submit([&bad_ids] {
      int id = ThreadPool::CurrentWorkerId();
      if (id < 0 || id >= 3) bad_ids.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad_ids.load(), 0);
}

TEST(ThreadPoolTest, ResizeGrowsAndShrinks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.NumThreads(), 2);
  pool.Resize(6);
  EXPECT_EQ(pool.NumThreads(), 6);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);

  pool.Resize(1);
  EXPECT_EQ(pool.NumThreads(), 1);
  for (int i = 0; i < 100; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);

  // Resize clamps to at least one worker; a no-op resize is fine.
  pool.Resize(0);
  EXPECT_EQ(pool.NumThreads(), 1);
  pool.Resize(1);
  EXPECT_EQ(pool.NumThreads(), 1);
}

TEST(ThreadPoolTest, ResizeKeepsWorkerIdsDense) {
  ThreadPool pool(8);
  pool.Resize(3);
  std::atomic<int> bad_ids{0};
  for (int i = 0; i < 120; ++i) {
    pool.Submit([&bad_ids] {
      int id = ThreadPool::CurrentWorkerId();
      if (id < 0 || id >= 3) bad_ids.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad_ids.load(), 0);
}

TEST(ThreadPoolTest, SubmitDuringResizeLosesNoTasks) {
  // Producers hammer Submit while the control thread walks the pool size up
  // and down. Every submitted task must run exactly once; under TSan this
  // also shakes out data races between Resize and the worker loops.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> submitted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter, &submitted, &stop] {
      while (!stop.load()) {
        pool.Submit([&counter] { counter.fetch_add(1); });
        submitted.fetch_add(1);
      }
    });
  }
  const int sizes[] = {1, 7, 2, 5, 1, 8, 3};
  for (int n : sizes) {
    pool.Resize(n);
    EXPECT_EQ(pool.NumThreads(), n);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), submitted.load());
  EXPECT_GT(counter.load(), 0);
}

// --- LatencyHistogram / StageMetricsRegistry -----------------------------

TEST(LatencyHistogramTest, BasicStatsAndQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileSeconds(0.5), 0.0);
  for (int i = 0; i < 90; ++i) h.Add(0.001);
  for (int i = 0; i < 10; ++i) h.Add(0.1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.MinSeconds(), 0.001);
  EXPECT_DOUBLE_EQ(h.MaxSeconds(), 0.1);
  EXPECT_NEAR(h.MeanSeconds(), 0.0109, 1e-9);
  // p50 lands in the 1ms bin, p95 in the 100ms bin; bins are ~21% wide.
  EXPECT_NEAR(h.QuantileSeconds(0.5), 0.001, 0.0005);
  EXPECT_NEAR(h.QuantileSeconds(0.95), 0.1, 0.05);
  EXPECT_LE(h.QuantileSeconds(0.5), h.QuantileSeconds(0.95));
}

TEST(LatencyHistogramTest, MergeMatchesCombinedAdds) {
  LatencyHistogram a, b, combined;
  for (double v : {0.002, 0.004, 0.008}) {
    a.Add(v);
    combined.Add(v);
  }
  for (double v : {0.5, 1.5}) {
    b.Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.total_seconds(), combined.total_seconds());
  EXPECT_DOUBLE_EQ(a.MinSeconds(), combined.MinSeconds());
  EXPECT_DOUBLE_EQ(a.MaxSeconds(), combined.MaxSeconds());
  EXPECT_DOUBLE_EQ(a.QuantileSeconds(0.5), combined.QuantileSeconds(0.5));
}

TEST(StageMetricsRegistryTest, MergeAccumulatesPerStage) {
  StageMetricsRegistry a, b;
  a.ForStage("clean").invocations = 3;
  a.ForStage("clean").latency.Add(0.01);
  b.ForStage("clean").invocations = 2;
  b.ForStage("clean").failures = 1;
  b.ForStage("forecast").invocations = 5;
  a.Merge(b);
  EXPECT_EQ(a.ForStage("clean").invocations, 5u);
  EXPECT_EQ(a.ForStage("clean").failures, 1u);
  EXPECT_EQ(a.ForStage("forecast").invocations, 5u);
  EXPECT_NE(a.ToTable().find("clean"), std::string::npos);
}

// --- BatchExecutor -------------------------------------------------------

std::vector<PipelineContext> MakeShards(int num_shards, uint64_t base_seed) {
  std::vector<PipelineContext> shards(num_shards);
  CorrelatedFieldSpec spec;
  spec.grid_rows = 3;
  spec.grid_cols = 3;
  for (int i = 0; i < num_shards; ++i) {
    uint64_t seed = base_seed + static_cast<uint64_t>(i);
    shards[i].data = GenerateCorrelatedField(spec, 240, seed);
    Rng inject_rng(seed * 7919 + 1);
    InjectMissingMcar(&shards[i].data.series(), 0.15, &inject_rng);
  }
  return shards;
}

Pipeline MakeGovernanceForecastPipeline() {
  RangeRule range{-1000.0, 1000.0};
  Pipeline p;
  p.Emplace<AssessQualityStage>(range)
      .Emplace<CleanStage>(range)
      .Emplace<ImputeStage>()
      .Emplace<ForecastStage>(4, 8);
  return p;
}

TEST(BatchExecutorTest, DeterministicAcrossThreadCounts) {
  Pipeline pipeline = MakeGovernanceForecastPipeline();
  std::vector<PipelineContext> seq_shards = MakeShards(16, 100);
  std::vector<PipelineContext> par_shards = MakeShards(16, 100);

  ExecutorOptions seq_opts;
  seq_opts.num_threads = 1;
  BatchReport seq = BatchExecutor(seq_opts).Run(pipeline, &seq_shards);
  ExecutorOptions par_opts;
  par_opts.num_threads = 8;
  BatchReport par = BatchExecutor(par_opts).Run(pipeline, &par_shards);

  ASSERT_EQ(seq.shards.size(), 16u);
  ASSERT_EQ(par.shards.size(), 16u);
  EXPECT_EQ(seq.NumOk(), 16u);
  EXPECT_EQ(par.NumOk(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(par.shards[i].shard, i);
    ASSERT_EQ(seq.shards[i].report.stages.size(),
              par.shards[i].report.stages.size());
    for (size_t s = 0; s < seq.shards[i].report.stages.size(); ++s) {
      EXPECT_EQ(seq.shards[i].report.stages[s].status.code(),
                par.shards[i].report.stages[s].status.code());
    }
    // Shard work is single-threaded and seed-driven, so every context
    // metric and artifact must match bit-for-bit across thread counts.
    EXPECT_EQ(seq_shards[i].metrics, par_shards[i].metrics);
    EXPECT_EQ(seq_shards[i].artifacts, par_shards[i].artifacts);
  }
  // Aggregate invocation counts match too (timings of course differ).
  for (const auto& [name, m] : seq.metrics.stages()) {
    const auto& pm = par.metrics.stages();
    auto it = pm.find(name);
    ASSERT_NE(it, pm.end()) << name;
    EXPECT_EQ(m.invocations, it->second.invocations) << name;
    EXPECT_EQ(m.failures, it->second.failures) << name;
  }
}

/// Fails on shards whose context carries the poison marker.
class PoisonStage : public PipelineStage {
 public:
  std::string Name() const override { return "test/poison"; }
  Status Run(PipelineContext* context) override {
    if (context->notes.count("poison")) {
      return Status::Internal("poisoned shard");
    }
    return Status::OK();
  }
};

/// Records that the full pipeline reached its final stage.
class MarkerStage : public PipelineStage {
 public:
  std::string Name() const override { return "test/marker"; }
  Status Run(PipelineContext* context) override {
    context->metrics["reached_end"] = 1.0;
    return Status::OK();
  }
};

TEST(BatchExecutorTest, PoisonedShardIsQuarantinedOthersComplete) {
  Pipeline pipeline;
  pipeline.Emplace<PoisonStage>().Emplace<MarkerStage>();
  std::vector<PipelineContext> shards(16);
  shards[7].notes["poison"] = "1";

  ExecutorOptions opts;
  opts.num_threads = 4;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);

  EXPECT_EQ(report.NumOk(), 15u);
  EXPECT_EQ(report.NumQuarantined(), 1u);
  EXPECT_FALSE(report.AllOk());
  ASSERT_TRUE(report.shards[7].quarantined());
  // The quarantined shard preserves the failing stage's report...
  ASSERT_EQ(report.shards[7].report.stages.size(), 1u);
  EXPECT_EQ(report.shards[7].report.stages[0].index, 0u);
  EXPECT_EQ(report.shards[7].report.stages[0].status.code(),
            StatusCode::kInternal);
  // ...and never ran the rest of its pipeline.
  EXPECT_EQ(shards[7].metrics.count("reached_end"), 0u);
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i == 7) continue;
    EXPECT_FALSE(report.shards[i].quarantined()) << i;
    EXPECT_EQ(shards[i].metrics.at("reached_end"), 1.0) << i;
  }
  EXPECT_NE(report.ToString().find("quarantined shard 7"),
            std::string::npos);
}

/// Transient stage that fails until the per-shard attempt counter (kept in
/// the context, so it is thread-safe) reaches `succeed_on`.
class FlakyStage : public PipelineStage {
 public:
  explicit FlakyStage(int succeed_on) : succeed_on_(succeed_on) {}
  std::string Name() const override { return "test/flaky"; }
  bool Transient() const override { return true; }
  Status Run(PipelineContext* context) override {
    double attempt = ++context->metrics["flaky_attempts"];
    if (attempt < succeed_on_) {
      return Status::Internal("transient glitch");
    }
    return Status::OK();
  }

 private:
  int succeed_on_;
};

TEST(BatchExecutorTest, TransientStageSucceedsOnRetry) {
  Pipeline pipeline;
  pipeline.Emplace<FlakyStage>(2).Emplace<MarkerStage>();
  std::vector<PipelineContext> shards(8);

  ExecutorOptions opts;
  opts.num_threads = 4;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff_seconds = 0.0;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);

  EXPECT_EQ(report.NumOk(), 8u);
  for (const auto& sr : report.shards) {
    EXPECT_EQ(sr.report.stages[0].attempts, 2);
    EXPECT_TRUE(sr.report.stages[0].status.ok());
  }
  const auto& flaky = report.metrics.stages().at("test/flaky");
  EXPECT_EQ(flaky.invocations, 16u);  // 2 attempts x 8 shards
  EXPECT_EQ(flaky.failures, 8u);
  EXPECT_EQ(flaky.retries, 8u);
}

TEST(BatchExecutorTest, AttemptsTotalSurfacesRetryPressure) {
  Pipeline pipeline;
  pipeline.Emplace<FlakyStage>(2).Emplace<MarkerStage>();
  std::vector<PipelineContext> shards(8);

  ExecutorOptions opts;
  opts.num_threads = 4;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff_seconds = 0.0;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);

  ASSERT_EQ(report.NumOk(), 8u);
  // Each shard consumed 2 flaky attempts + 1 marker attempt.
  for (const auto& sr : report.shards) {
    EXPECT_EQ(sr.AttemptsTotal(), 3u) << sr.shard;
  }
  EXPECT_EQ(report.AttemptsTotal(), 24u);
  // The aggregate is derived from per-shard stage reports, so it must
  // agree with the independently accumulated invocation counters.
  uint64_t invocations = 0;
  for (const auto& [name, m] : report.metrics.stages()) {
    invocations += m.invocations;
  }
  EXPECT_EQ(report.AttemptsTotal(), invocations);
  // ...and it is what the Prometheus exporter surfaces.
  EXPECT_NE(MetricsExporter::Describe(report).ToPrometheus()
                .find("tsdm_batch_attempts_total 24\n"),
            std::string::npos);
}

TEST(BatchExecutorTest, RetriesExhaustedQuarantinesShard) {
  Pipeline pipeline;
  pipeline.Emplace<FlakyStage>(5);
  std::vector<PipelineContext> shards(2);

  ExecutorOptions opts;
  opts.num_threads = 2;
  opts.retry.max_attempts = 3;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);

  EXPECT_EQ(report.NumQuarantined(), 2u);
  for (const auto& sr : report.shards) {
    EXPECT_EQ(sr.report.stages[0].attempts, 3);
    EXPECT_FALSE(sr.report.stages[0].status.ok());
  }
}

TEST(BatchExecutorTest, NonTransientStageIsNeverRetried) {
  Pipeline pipeline;
  pipeline.Emplace<PoisonStage>();
  std::vector<PipelineContext> shards(1);
  shards[0].notes["poison"] = "1";

  ExecutorOptions opts;
  opts.retry.max_attempts = 5;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);
  EXPECT_EQ(report.shards[0].report.stages[0].attempts, 1);
  EXPECT_EQ(report.metrics.stages().at("test/poison").invocations, 1u);
}

TEST(BatchExecutorTest, OversubscriptionSmoke) {
  // 64 shards on 4 threads: every shard completes exactly once, in shard
  // order in the report, with the full stage chain recorded.
  Pipeline pipeline = MakeGovernanceForecastPipeline();
  std::vector<PipelineContext> shards = MakeShards(64, 900);
  ExecutorOptions opts;
  opts.num_threads = 4;
  BatchReport report = BatchExecutor(opts).Run(pipeline, &shards);

  ASSERT_EQ(report.shards.size(), 64u);
  EXPECT_EQ(report.NumOk(), 64u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(report.shards[i].shard, i);
    EXPECT_EQ(report.shards[i].report.stages.size(), 4u);
    EXPECT_EQ(shards[i].data.series().CountMissing(), 0u) << i;
  }
  const auto& impute = report.metrics.stages().at("governance/impute");
  EXPECT_EQ(impute.invocations, 64u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(BatchExecutorTest, EmptyBatchIsOk) {
  Pipeline pipeline = MakeGovernanceForecastPipeline();
  std::vector<PipelineContext> shards;
  BatchReport report = BatchExecutor().Run(pipeline, &shards);
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.shards.size(), 0u);
  EXPECT_EQ(report.AttemptsTotal(), 0u);
}

}  // namespace
}  // namespace tsdm
