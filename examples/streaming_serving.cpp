// Streaming serving: the Fig. 1 paradigm fed one tick at a time.
//
// Eight sensors stream observations into the per-sensor StreamBuffer
// rings; every tick is served by the StreamPipeline (incremental Welford
// stats -> online z-score anomaly -> Holt online forecast) with no heap
// allocation on the hot path. A spike injected into sensor 3 must raise a
// streaming alarm. Finally the live rings are snapshotted into a
// PipelineContext and the *batch* governance/analytics pipeline runs over
// the same data — one system, two serving modes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/analytics/anomaly/detector.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/core/stream_bridge.h"
#include "src/common/rng.h"
#include "src/obs/metrics_export.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

using namespace tsdm;

int main() {
  constexpr size_t kSensors = 8;
  constexpr size_t kSteps = 300;
  constexpr size_t kSpikeStep = 200;
  constexpr size_t kSpikeSensor = 3;

  // --- 1. The online half: rings + incremental stages -------------------
  StreamBuffer buffer(kSensors, /*capacity=*/128, DropPolicy::kDropOldest);
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kZScore,
                                   /*threshold=*/6.0)
      .Emplace<OnlineForecastStage>();
  if (!pipeline.Reset(kSensors).ok()) return 1;

  Rng rng(7);
  TickRecord rec;
  for (size_t step = 0; step < kSteps; ++step) {
    for (size_t s = 0; s < kSensors; ++s) {
      double value = 20.0 + 6.0 * std::sin(0.05 * static_cast<double>(step)) +
                     static_cast<double>(s) + rng.Normal(0.0, 0.4);
      if (step == kSpikeStep && s == kSpikeSensor) value += 60.0;  // fault
      buffer.Push(s, static_cast<int64_t>(step), value);
    }
    pipeline.Drain(&buffer, &rec);
  }

  const auto& anomaly =
      static_cast<const OnlineAnomalyStage&>(pipeline.StageAt(1));
  const auto& forecast =
      static_cast<const OnlineForecastStage&>(pipeline.StageAt(2));
  std::printf("ticks served:      %llu\n",
              static_cast<unsigned long long>(pipeline.ticks_processed()));
  std::printf("streaming alarms:  %llu (spike at step %zu, sensor %zu)\n",
              static_cast<unsigned long long>(anomaly.alarms()), kSpikeStep,
              kSpikeSensor);
  std::printf("next-tick forecast, sensor %zu: %.2f\n", kSpikeSensor,
              forecast.ForecastNext(kSpikeSensor));
  std::printf("\nper-stage streaming metrics:\n%s\n",
              pipeline.metrics().ToTable().c_str());

  // --- 2. The bridge: live rings -> batch PipelineContext ----------------
  std::vector<SensorGraph::Sensor> positions;
  for (size_t s = 0; s < kSensors; ++s) {
    positions.push_back({static_cast<double>(s % 4),
                         static_cast<double>(s / 4)});
  }
  SensorGraph graph = SensorGraph::KNearest(positions, 2, 1.0);
  PipelineContext ctx;
  if (!SnapshotToContext(buffer, graph, &ctx).ok()) return 1;
  std::printf("snapshot: %zu steps x %zu sensors (missing %.0f)\n",
              ctx.data.NumSteps(), ctx.data.NumSensors(),
              ctx.metrics["stream_snapshot_missing"]);

  // Batch detector over the raw snapshot without copying a channel: the
  // SeriesView entry point is shared by both serving modes.
  MadDetector detector;
  if (!detector.Fit(ctx.data.SensorView(kSpikeSensor).ToVector()).ok()) {
    return 1;
  }
  auto scores = detector.Score(ctx.data.SensorView(kSpikeSensor));
  if (!scores.ok()) return 1;
  double max_score = 0.0;
  for (double v : *scores) max_score = std::max(max_score, v);
  std::printf("batch MAD max score on sensor %zu snapshot: %.1f\n",
              kSpikeSensor, max_score);

  // --- 3. The offline half: the batch Fig. 1 pipeline over the snapshot -
  RangeRule plausible{-100.0, 200.0};
  Pipeline batch;
  batch.Emplace<AssessQualityStage>(plausible)
      .Emplace<CleanStage>(plausible)
      .Emplace<ImputeStage>()
      .Emplace<ForecastStage>(/*ar_order=*/8, /*horizon=*/12);
  PipelineReport report = batch.Run(&ctx);
  std::printf("%s", report.ToString().c_str());

  // --- 4. Observability: the same tick loop as a Prometheus scrape ------
  // Everything the stages recorded above is exportable without extra
  // bookkeeping; a serving process would return this from /metrics.
  std::printf("\nPrometheus exposition (excerpt):\n");
  std::string prom = MetricsExporter::Describe(pipeline).ToPrometheus();
  std::printf("%s", prom.substr(0, prom.find("# HELP tsdm_stage")).c_str());

  bool ok = report.ok() && anomaly.alarms() >= 1 &&
            pipeline.ticks_processed() == kSensors * kSteps;
  std::printf(ok ? "\nstreaming serving path OK\n"
                 : "\nstreaming serving path FAILED\n");
  return ok ? 0 : 1;
}
