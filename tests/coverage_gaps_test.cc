/// Targeted tests for public APIs not yet exercised elsewhere.

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/sensor_graph.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

TEST(HistogramTest, CdfOnGridMatchesPointwiseCdf) {
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.Normal(5, 2));
  Histogram h = *Histogram::FromSamples(samples, 32);
  std::vector<double> grid = {-1.0, 3.0, 5.0, 7.0, 20.0};
  std::vector<double> values = h.CdfOnGrid(grid);
  ASSERT_EQ(values.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(values[i], h.Cdf(grid[i]));
  }
}

TEST(SensorGraphTest, AdjacencyMatrixIsSymmetric) {
  SensorGraph g;
  for (int i = 0; i < 4; ++i) g.AddSensor(i, 0);
  g.AddEdge(0, 1, 0.5);
  g.AddEdge(1, 3, 2.0);
  Matrix a = g.AdjacencyMatrix();
  ASSERT_EQ(a.rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), a(c, r));
    }
  }
  EXPECT_DOUBLE_EQ(a(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(a(3, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 3), 0.0);
}

TEST(RoadNetworkTest, PathAggregatesMatchManualSums) {
  Rng rng(2);
  GridNetworkSpec spec;
  spec.rows = 3;
  spec.cols = 3;
  RoadNetwork net = GenerateGridNetwork(spec, &rng);
  std::vector<int> path = {0, 1, 2};
  double length = 0.0, time = 0.0;
  for (int eid : path) {
    length += net.edge(eid).length;
    time += net.FreeFlowTime(eid);
  }
  EXPECT_DOUBLE_EQ(net.PathLength(path), length);
  EXPECT_DOUBLE_EQ(net.PathFreeFlowTime(path), time);
  EXPECT_EQ(net.PathLength({}), 0.0);
}

TEST(TrafficSimTest, MeanEdgeTimeMatchesMonteCarlo) {
  Rng rng(3);
  GridNetworkSpec spec;
  RoadNetwork net = GenerateGridNetwork(spec, &rng);
  TrafficSimulator sim(&net, TrafficSpec{});
  double analytic = sim.MeanEdgeTime(0, 8 * 3600);
  double mc = 0.0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    mc += sim.SampleEdgeTime(0, 8 * 3600, &rng) / kTrials;
  }
  EXPECT_NEAR(mc, analytic, 0.05 * analytic);
}

TEST(DecideTest, EmptyInputHasNoWinner) {
  const std::vector<Histogram> none;
  EXPECT_EQ(Decide(none, DecisionRule::OnTime(100.0)).index, -1);
  RiskNeutralUtility u;
  EXPECT_EQ(Decide(none, DecisionRule::Utility(u)).index, -1);
}

TEST(UtilityTest, ExponentialUtilityIsMonotoneDecreasing) {
  for (double a : {-3.0, -0.5, 0.0, 0.5, 3.0}) {
    ExponentialUtility u(a, 100.0);
    double prev = u(0.0);
    for (double c = 10.0; c <= 300.0; c += 10.0) {
      double v = u(c);
      EXPECT_LT(v, prev) << "a=" << a << " c=" << c;
      prev = v;
    }
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(4);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
  // Degenerate all-zero weights fall back to the last index.
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(zeros), 1);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  std::vector<int> sample = rng.SampleWithoutReplacement(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

}  // namespace
}  // namespace tsdm
