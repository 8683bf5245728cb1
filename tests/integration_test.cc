/// End-to-end integration of the full Fig. 1 paradigm on the traffic
/// scenario from the paper's introduction: noisy multi-modal sensor data ->
/// governance (cleaning, map matching, imputation, uncertainty) ->
/// analytics (forecasting) -> decision (stochastic routing under a
/// deadline). Exercises the same flow the quickstart example demonstrates.

#include <cmath>

#include <gtest/gtest.h>

#include "src/analytics/forecast/forecaster.h"
#include "src/analytics/forecast/metrics.h"
#include "src/core/pipeline.h"
#include "src/decision/routing/stochastic_router.h"
#include "src/decision/uncertain/dominance.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/fusion/map_matcher.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/sim/inject.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/sim/traj_sim.h"

namespace tsdm {
namespace {

TEST(IntegrationTest, TrafficScenarioEndToEnd) {
  Rng rng(2025);

  // --- Substrate: city + ground-truth traffic --------------------------
  GridNetworkSpec gspec;
  gspec.rows = 6;
  gspec.cols = 6;
  gspec.diagonal_probability = 0.2;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator traffic(&net, TrafficSpec{});

  // --- Governance 1: map-match noisy GPS fleet into trips --------------
  HmmMapMatcher matcher(&net);
  EdgeCentricModel cost_model(static_cast<int>(net.NumEdges()), 24);
  int matched_trips = 0;
  for (int i = 0; i < 250; ++i) {
    std::vector<int> path = RandomPath(net, 4, 20, &rng);
    if (path.empty()) continue;
    GpsSpec gps;
    gps.noise_stddev = 12.0;
    SimulatedDrive drive = SimulateDrive(net, traffic, path, 8 * 3600, gps,
                                         &rng);
    if (drive.gps.NumPoints() < 3) continue;
    Result<MapMatchResult> match = matcher.Match(drive.gps);
    if (!match.ok()) continue;
    // Use the *matched* path with the realized per-edge times (as a loop
    // detector would attribute them).
    TripObservation trip;
    trip.edge_path = drive.edge_path;
    trip.depart_seconds = 8 * 3600;
    trip.edge_times = traffic.SamplePathEdgeTimes(path, 8 * 3600, &rng);
    cost_model.AddTrip(trip);
    ++matched_trips;
  }
  ASSERT_GT(matched_trips, 150);
  ASSERT_TRUE(cost_model.Build(32).ok());

  // --- Governance 2: sensor series quality + imputation ----------------
  std::vector<int> sensor_edges;
  for (int e = 0; e < 12; ++e) sensor_edges.push_back(e);
  PipelineContext ctx;
  ctx.data = traffic.GenerateEdgeSpeedSeries(sensor_edges, 288, 300, &rng);
  InjectMissingMcar(&ctx.data.series(), 0.15, &rng);
  RangeRule range{0.0, 50.0};
  Pipeline pipeline;
  pipeline.Emplace<AssessQualityStage>(range)
      .Emplace<CleanStage>(range)
      .Emplace<ImputeStage>()
      .Emplace<ForecastStage>(6, 12);
  PipelineReport report = pipeline.Run(&ctx);
  ASSERT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(ctx.data.series().CountMissing(), 0u);

  // --- Decision: stochastic routing under a deadline -------------------
  StochasticRouter router(
      &net, [&cost_model](const std::vector<int>& edges, double depart) {
        return cost_model.PathCostDistribution(edges, depart);
      });
  int source = 0, target = static_cast<int>(net.NumNodes()) - 1;
  Result<std::vector<RouteCandidate>> candidates =
      router.Candidates(source, target, 6, 8 * 3600);
  ASSERT_TRUE(candidates.ok());
  ASSERT_GE(candidates->size(), 2u);

  // FSD pruning keeps every utility's optimum.
  std::vector<Histogram> costs;
  for (const auto& c : *candidates) costs.push_back(c.cost);
  std::vector<int> survivors = FsdNonDominated(costs);
  ASSERT_FALSE(survivors.empty());
  RiskNeutralUtility neutral;
  ExponentialUtility averse(2.0, costs[0].Mean());
  for (const UtilityFunction* u :
       std::vector<const UtilityFunction*>{&neutral, &averse}) {
    int best = Decide(costs, DecisionRule::Utility(*u)).index;
    double eu_full = ExpectedUtility(costs[best], *u);
    double eu_survivors = -1e300;
    for (int s : survivors) {
      eu_survivors = std::max(eu_survivors, ExpectedUtility(costs[s], *u));
    }
    EXPECT_GE(eu_survivors, eu_full - 1e-9 * std::fabs(eu_full) - 1e-12);
  }

  // The chosen route actually arrives on time most often under ground
  // truth (Monte Carlo check against the simulator).
  double budget =
      costs[Decide(costs, DecisionRule::OnTime(1e18)).index].Quantile(0.9);
  int chosen = Decide(costs, DecisionRule::OnTime(budget)).index;
  ASSERT_GE(chosen, 0);
  int on_time = 0;
  const int kTrials = 300;
  for (int i = 0; i < kTrials; ++i) {
    double t = traffic.SamplePathTime((*candidates)[chosen].path.edges,
                                      8 * 3600, &rng);
    if (t <= budget) ++on_time;
  }
  EXPECT_GT(static_cast<double>(on_time) / kTrials, 0.5);
}

}  // namespace
}  // namespace tsdm
