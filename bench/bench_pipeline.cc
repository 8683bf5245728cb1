// F1 — The "Data-Governance-Analytics-Decision" paradigm (Fig. 1).
// End-to-end ablation on the traffic scenario: raw noisy/incomplete sensor
// data flows to a forecasting stage and a routing decision, with and
// without the governance stage in between. Expected shape: governance
// (cleaning + spatio-temporal imputation) reduces downstream forecast
// error, and a governed travel-cost model yields far better-calibrated
// on-time probabilities than one built from raw mis-attributed data —
// the paper's core thesis that value creation needs the whole chain.

#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "src/analytics/forecast/forecaster.h"
#include "src/analytics/forecast/metrics.h"
#include "src/core/pipeline.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/sim/inject.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/sim/traj_sim.h"
#include "src/spatial/shortest_path.h"

namespace {

using namespace tsdm;
using tsdm_bench::BenchReporter;
using tsdm_bench::Fmt;
using tsdm_bench::Stopwatch;
using tsdm_bench::Table;

/// Forecast MAE over all sensors after optionally running governance.
double PipelineForecastError(CorrelatedTimeSeries corrupted,
                             const CorrelatedTimeSeries& truth, bool governed,
                             int horizon) {
  PipelineContext ctx;
  ctx.data = std::move(corrupted);
  RangeRule range{0.0, 60.0};
  Pipeline pipeline;
  if (governed) {
    pipeline.Emplace<AssessQualityStage>(range)
        .Emplace<CleanStage>(range)
        .Emplace<ImputeStage>();
  } else {
    // Raw pipeline still needs *some* value in every cell to fit models;
    // zero-filling is what a governance-less system effectively does.
    for (size_t t = 0; t < ctx.data.NumSteps(); ++t) {
      for (size_t s = 0; s < ctx.data.NumSensors(); ++s) {
        if (ctx.data.series().IsMissing(t, s)) ctx.data.Set(t, s, 0.0);
      }
    }
  }
  pipeline.AddStage(std::make_unique<ForecastStage>(8, horizon));
  PipelineReport report = pipeline.Run(&ctx);
  if (!report.ok()) return -1.0;

  double err = 0.0;
  int scored = 0;
  size_t n = truth.NumSteps();
  for (size_t s = 0; s < truth.NumSensors(); ++s) {
    auto it = ctx.artifacts.find("forecast/" + std::to_string(s));
    if (it == ctx.artifacts.end()) continue;
    std::vector<double> actual;
    for (size_t t = n; t < n + static_cast<size_t>(horizon); ++t) {
      actual.push_back(truth.At(std::min(t, truth.NumSteps() - 1), s));
    }
    err += MeanAbsoluteError(actual, it->second);
    ++scored;
  }
  return scored > 0 ? err / scored : -1.0;
}

}  // namespace

int main() {
  Rng rng(2101);
  BenchReporter reporter("pipeline");
  Stopwatch total_watch;

  // --- Substrate --------------------------------------------------------
  GridNetworkSpec gspec;
  gspec.rows = 6;
  gspec.cols = 6;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator traffic(&net, TrafficSpec{});

  // --- Part 1: governance ablation on forecast quality ------------------
  Table fc_table("F1 governance ablation: per-sensor forecast MAE",
                 {"missing", "raw(zero-fill)", "governed"});
  std::vector<int> sensor_edges;
  for (int e = 0; e < 16; ++e) sensor_edges.push_back(e);
  const int kHorizon = 12;
  for (double missing : {0.1, 0.3, 0.5}) {
    // Truth = clean series extended past the training window.
    Rng gen_rng(42);
    CorrelatedTimeSeries full =
        traffic.GenerateEdgeSpeedSeries(sensor_edges, 288 + kHorizon, 300,
                                        &gen_rng);
    CorrelatedTimeSeries train(full.graph(),
                               full.series().Slice(0, 288));
    CorrelatedTimeSeries corrupted = train;
    // Half the loss is random, half sensor outages (contiguous blocks) —
    // the pattern zero-filling handles worst.
    InjectMissingMcar(&corrupted.series(), missing / 2.0, &rng);
    InjectMissingBlocks(&corrupted.series(), missing / 2.0, 24, &rng);
    // Some stuck-sensor outliers for the cleaner to catch.
    for (int k = 0; k < 40; ++k) {
      corrupted.Set(rng.Index(288), rng.Index(16), 250.0);
    }
    double raw = PipelineForecastError(corrupted, full, false, kHorizon);
    double governed = PipelineForecastError(corrupted, full, true, kHorizon);
    fc_table.Row({Fmt(missing, 1), raw < 0 ? "fail" : Fmt(raw),
                  governed < 0 ? "fail" : Fmt(governed)});
    std::string suffix = std::to_string(static_cast<int>(missing * 100));
    reporter.Metric("mae_raw_m" + suffix, raw);
    reporter.Metric("mae_governed_m" + suffix, governed);
  }

  // Throughput of the governed 4-stage pipeline itself (the number the
  // regression gate watches): repeated single-context runs per second.
  {
    Rng gen_rng(43);
    CorrelatedTimeSeries base =
        traffic.GenerateEdgeSpeedSeries(sensor_edges, 288, 300, &gen_rng);
    InjectMissingMcar(&base.series(), 0.2, &rng);
    RangeRule range{0.0, 60.0};
    constexpr int kRuns = 12;
    Stopwatch watch;
    for (int r = 0; r < kRuns; ++r) {
      PipelineContext ctx;
      ctx.data = base;
      Pipeline pipeline;
      pipeline.Emplace<AssessQualityStage>(range)
          .Emplace<CleanStage>(range)
          .Emplace<ImputeStage>()
          .Emplace<ForecastStage>(8, kHorizon);
      if (!pipeline.Run(&ctx).ok()) {
        std::printf("governed pipeline run failed\n");
        return 1;
      }
    }
    reporter.Metric("governed_runs_per_s", kRuns / watch.Seconds());
    reporter.Metric("bytes_processed",
                    static_cast<double>(kRuns) * 16 * 288 * 8);
  }

  // --- Part 2: decision quality with vs without governed cost model -----
  // Governed: travel-cost model trained on all trips. Ungoverned: the same
  // model trained on 15% of the trips with corrupted (noisy-attributed)
  // edge times — the effective result of skipping map matching and
  // cleaning.
  EdgeCentricModel governed_model(static_cast<int>(net.NumEdges()), 24);
  EdgeCentricModel raw_model(static_cast<int>(net.NumEdges()), 24);
  for (int i = 0; i < 900; ++i) {
    std::vector<int> p = RandomPath(net, 3, 20, &rng);
    if (p.empty()) continue;
    TripObservation trip;
    trip.edge_path = p;
    trip.depart_seconds = 8.0 * 3600;
    trip.edge_times = traffic.SamplePathEdgeTimes(p, trip.depart_seconds,
                                                  &rng);
    governed_model.AddTrip(trip);
    if (i % 7 == 0) {
      TripObservation noisy = trip;
      for (double& t : noisy.edge_times) {
        t *= rng.Uniform(0.4, 2.5);  // mis-attributed times
      }
      raw_model.AddTrip(noisy);
    }
  }
  if (!governed_model.Build(32).ok() || !raw_model.Build(32).ok()) {
    std::printf("cost model build failed\n");
    return 1;
  }

  Table dec_table("F1 cost-model calibration: |modeled - realized| "
                  "on-time probability (mean over candidates)",
                  {"od_pair", "governed", "raw"});
  Rng eval_rng(77);
  double total_governed = 0.0, total_raw = 0.0;
  int pairs_scored = 0;
  for (int pair = 0; pair < 8; ++pair) {
    int source = eval_rng.Index(static_cast<int>(net.NumNodes()));
    int target = eval_rng.Index(static_cast<int>(net.NumNodes()));
    if (source == target) continue;
    Result<std::vector<Path>> paths =
        KShortestPaths(net, source, target, 4, FreeFlowTimeCost(net));
    if (!paths.ok() || paths->empty()) continue;
    double governed_err = 0.0, raw_err = 0.0;
    int scored = 0;
    for (const Path& p : *paths) {
      Result<Histogram> governed_cost =
          governed_model.PathCostDistribution(p.edges, 8 * 3600);
      Result<Histogram> raw_cost =
          raw_model.PathCostDistribution(p.edges, 8 * 3600);
      if (!governed_cost.ok() || !raw_cost.ok()) continue;
      double deadline = governed_cost->Quantile(0.7);
      // Realized on-time probability under the ground-truth simulator.
      int hits = 0;
      const int kTrials = 500;
      for (int t = 0; t < kTrials; ++t) {
        if (traffic.SamplePathTime(p.edges, 8 * 3600, &eval_rng) <=
            deadline) {
          ++hits;
        }
      }
      double realized = static_cast<double>(hits) / kTrials;
      governed_err += std::fabs(governed_cost->Cdf(deadline) - realized);
      raw_err += std::fabs(raw_cost->Cdf(deadline) - realized);
      ++scored;
    }
    if (scored == 0) continue;
    dec_table.Row({std::to_string(source) + "->" + std::to_string(target),
                   Fmt(governed_err / scored), Fmt(raw_err / scored)});
    total_governed += governed_err / scored;
    total_raw += raw_err / scored;
    ++pairs_scored;
  }
  if (pairs_scored > 0) {
    dec_table.Row({"MEAN", Fmt(total_governed / pairs_scored),
                   Fmt(total_raw / pairs_scored)});
    reporter.Metric("calibration_err_governed",
                    total_governed / pairs_scored);
    reporter.Metric("calibration_err_raw", total_raw / pairs_scored);
  }
  std::printf("\nexpected shape: governed forecast MAE well below zero-fill "
              "at every missing rate (gap grows with the rate); the "
              "governed cost model's on-time probabilities are far better "
              "calibrated than the raw model's — Fig. 1's claim that the "
              "governance box is load-bearing for decisions.\n");
  reporter.Metric("wall_s", total_watch.Seconds());
  reporter.Write();
  return 0;
}
