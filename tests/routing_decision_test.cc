#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/decision/imitation/route_imitation.h"
#include "src/decision/multiobj/pareto.h"
#include "src/decision/personal/context_preference.h"
#include "src/decision/routing/stochastic_router.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/serve/query_service.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/sim/traj_sim.h"

namespace tsdm {
namespace {

class RoutingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(21);
    GridNetworkSpec spec;
    spec.rows = 6;
    spec.cols = 6;
    spec.diagonal_probability = 0.25;
    net_ = GenerateGridNetwork(spec, rng_.get());
    sim_ = std::make_unique<TrafficSimulator>(&net_, TrafficSpec{});
    model_ = std::make_unique<EdgeCentricModel>(
        static_cast<int>(net_.NumEdges()), 24);
    for (int i = 0; i < 600; ++i) {
      std::vector<int> p = RandomPath(net_, 3, 20, rng_.get());
      if (p.empty()) continue;
      TripObservation trip;
      trip.edge_path = p;
      trip.depart_seconds = 8.0 * 3600;
      trip.edge_times =
          sim_->SamplePathEdgeTimes(p, trip.depart_seconds, rng_.get());
      model_->AddTrip(trip);
    }
    ASSERT_TRUE(model_->Build(32).ok());
  }

  PathCostModel CostModel() {
    return [this](const std::vector<int>& edges, double depart) {
      return model_->PathCostDistribution(edges, depart);
    };
  }

  std::unique_ptr<Rng> rng_;
  RoadNetwork net_;
  std::unique_ptr<TrafficSimulator> sim_;
  std::unique_ptr<EdgeCentricModel> model_;
};

TEST_F(RoutingFixture, CandidatesHaveDistributions) {
  StochasticRouter router(&net_, CostModel());
  Result<std::vector<RouteCandidate>> candidates =
      router.Candidates(0, 35, 5, 8.0 * 3600);
  ASSERT_TRUE(candidates.ok());
  EXPECT_GE(candidates->size(), 2u);
  for (const auto& c : *candidates) {
    EXPECT_FALSE(c.path.edges.empty());
    EXPECT_GT(c.cost.Mean(), 0.0);
  }
}

TEST_F(RoutingFixture, TightDeadlineCanChangeTheChoice) {
  StochasticRouter router(&net_, CostModel());
  Result<std::vector<RouteCandidate>> candidates =
      router.Candidates(0, 35, 6, 8.0 * 3600);
  ASSERT_TRUE(candidates.ok());
  // With an extremely generous deadline every route is on time; with the
  // minimal mean the fastest-expected route should win a neutral utility.
  std::vector<Histogram> costs;
  for (const auto& c : *candidates) costs.push_back(c.cost);
  int by_deadline = Decide(costs, DecisionRule::OnTime(1e9)).index;
  EXPECT_GE(by_deadline, 0);
  RiskNeutralUtility neutral;
  int by_utility = Decide(costs, DecisionRule::Utility(neutral)).index;
  ASSERT_GE(by_utility, 0);
  double best_mean = (*candidates)[by_utility].cost.Mean();
  for (const auto& c : *candidates) {
    EXPECT_GE(c.cost.Mean(), best_mean - 1e-6);
  }
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// One bin over [lo, hi]: mean (lo + hi) / 2, Cdf linear from lo to hi.
Histogram Uniform(double lo, double hi) {
  Histogram h = *Histogram::Create(lo, hi, 1);
  h.Add(0.5 * (lo + hi));
  return h;
}

// Paths with distinct edge lists, so an answer's route names its index.
std::vector<Path> NumberedRoutes(size_t n) {
  std::vector<Path> routes(n);
  for (size_t i = 0; i < n; ++i) routes[i].edges = {static_cast<int>(i)};
  return routes;
}

// Means 200, 170, 160; P(cost <= 180) = 0.4, 0.75, 0.5625.
std::vector<Histogram> ThreeCandidates() {
  return {Uniform(100.0, 300.0), Uniform(150.0, 190.0), Uniform(0.0, 320.0)};
}

TEST(DecisionRuleTest, OnTimePicksTheLikeliestWithinTheBudget) {
  const std::vector<Histogram> costs = ThreeCandidates();
  const Decision d = Decide(costs, DecisionRule::OnTime(180.0));
  EXPECT_EQ(d.index, 1);
  EXPECT_EQ(d.score, 0.75);
  EXPECT_EQ(d.num_scored, 3);
}

TEST(DecisionRuleTest, MeanCostPicksTheLowestMean) {
  const std::vector<Histogram> costs = ThreeCandidates();
  const Decision d = Decide(costs, DecisionRule::MeanCost());
  EXPECT_EQ(d.index, 2);
  EXPECT_EQ(d.score, -160.0);
}

TEST(DecisionRuleTest, UtilityPicksTheHighestExpectedUtility) {
  const std::vector<Histogram> costs = ThreeCandidates();
  RiskNeutralUtility neutral;
  const Decision by_mean = Decide(costs, DecisionRule::Utility(neutral));
  EXPECT_EQ(by_mean.index, 2);
  EXPECT_EQ(by_mean.score, -160.0);
  // Only candidate 0's bin center (200) misses the deadline; candidates 1
  // and 2 tie at 1 and the lower index wins.
  DeadlineUtility on_time(180.0);
  EXPECT_EQ(Decide(costs, DecisionRule::Utility(on_time)).index, 1);
}

TEST(DecisionRuleTest, ExactTiesGoToTheLowestIndex) {
  const std::vector<Histogram> costs = {
      Uniform(100.0, 300.0), Uniform(150.0, 190.0), Uniform(150.0, 190.0),
      Uniform(100.0, 300.0)};
  RiskNeutralUtility neutral;
  for (const DecisionRule& rule :
       {DecisionRule::OnTime(180.0), DecisionRule::MeanCost(),
        DecisionRule::Utility(neutral)}) {
    EXPECT_EQ(Decide(costs, rule).index, 1);
  }
  const std::vector<Histogram> same(3, Uniform(100.0, 300.0));
  EXPECT_EQ(Decide(same, DecisionRule::OnTime(180.0)).index, 0);
  EXPECT_EQ(Decide(same, DecisionRule::MeanCost()).index, 0);
}

TEST(DecisionRuleTest, CandidateWithoutDistributionIsSkippedAndNotCounted) {
  const std::vector<Result<Histogram>> costs = {
      Status::NotFound("no coverage"), Uniform(150.0, 190.0),
      Status::NotFound("no coverage"), Uniform(100.0, 300.0)};
  const Decision d = Decide(costs, DecisionRule::MeanCost());
  EXPECT_EQ(d.index, 1);
  EXPECT_EQ(d.num_scored, 2);

  RouteQuery q;
  RouteAnswer answer;
  ScoreCandidates(q, NumberedRoutes(costs.size()), costs, &answer);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.route.edges, std::vector<int>{1});
  EXPECT_EQ(answer.num_candidates, 2);
  EXPECT_EQ(answer.cost_mean_seconds, 170.0);
  EXPECT_EQ(answer.on_time_probability, 0.0);
}

TEST(DecisionRuleTest, NoDistributionAtAllIsNotFound) {
  const std::vector<Result<Histogram>> costs = {
      Status::NotFound("no coverage"), Status::NotFound("no coverage")};
  EXPECT_EQ(Decide(costs, DecisionRule::MeanCost()).index, -1);

  RouteQuery q;
  RouteAnswer answer;
  ScoreCandidates(q, NumberedRoutes(costs.size()), costs, &answer);
  EXPECT_EQ(answer.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(answer.num_candidates, 0);
  EXPECT_TRUE(answer.route.edges.empty());

  RouteAnswer empty;
  ScoreCandidates(q, {}, {}, &empty);
  EXPECT_EQ(empty.status.code(), StatusCode::kNotFound);
}

TEST(DecisionRuleTest, ServeBudgetIsDeadlineMinusDeparture) {
  // The deadline is a time of day: evaluated at the deadline itself every
  // candidate would be on time and candidate 0 would win the tie.
  const std::vector<Histogram> hists = ThreeCandidates();
  const std::vector<Result<Histogram>> costs(hists.begin(), hists.end());
  RouteQuery q;
  q.depart_seconds = 10.0 * 3600;
  q.arrival_deadline_seconds = q.depart_seconds + 180.0;
  RouteAnswer answer;
  ScoreCandidates(q, NumberedRoutes(costs.size()), costs, &answer);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.route.edges, std::vector<int>{1});
  EXPECT_EQ(answer.on_time_probability, 0.75);
  EXPECT_EQ(answer.cost_mean_seconds, 170.0);
  EXPECT_EQ(answer.num_candidates, 3);
}

TEST_F(RoutingFixture, LibraryAndServeDecideAlike) {
  const double depart = 8.0 * 3600;
  StochasticRouter router(&net_, CostModel());
  Result<std::vector<RouteCandidate>> candidates =
      router.Candidates(0, 35, 6, depart);
  ASSERT_TRUE(candidates.ok());
  ASSERT_GE(candidates->size(), 2u);
  std::vector<Path> routes;
  std::vector<Histogram> costs;
  for (const RouteCandidate& c : *candidates) {
    routes.push_back(c.path);
    costs.push_back(c.cost);
  }
  const std::vector<Result<Histogram>> served(costs.begin(), costs.end());

  RouteQuery q;
  q.source = 0;
  q.target = 35;
  q.k = 6;
  q.depart_seconds = depart;
  q.arrival_deadline_seconds = depart + costs[0].Quantile(0.5);
  const double budget = q.arrival_deadline_seconds - q.depart_seconds;
  RouteAnswer on_time;
  ScoreCandidates(q, routes, served, &on_time);
  ASSERT_TRUE(on_time.status.ok());
  const Decision by_budget = Decide(costs, DecisionRule::OnTime(budget));
  ASSERT_GE(by_budget.index, 0);
  EXPECT_EQ(on_time.route.edges, routes[by_budget.index].edges);
  EXPECT_EQ(Bits(on_time.on_time_probability), Bits(by_budget.score));
  EXPECT_EQ(on_time.num_candidates, by_budget.num_scored);

  q.arrival_deadline_seconds = 0.0;
  RouteAnswer by_mean;
  ScoreCandidates(q, routes, served, &by_mean);
  ASSERT_TRUE(by_mean.status.ok());
  const Decision mean = Decide(costs, DecisionRule::MeanCost());
  ASSERT_GE(mean.index, 0);
  EXPECT_EQ(by_mean.route.edges, routes[mean.index].edges);
  EXPECT_EQ(Bits(by_mean.cost_mean_seconds), Bits(-mean.score));
}

TEST_F(RoutingFixture, SkylineContainsScalarizedOptimum) {
  std::vector<EdgeCostFn> criteria = {FreeFlowTimeCost(net_),
                                      LengthCost(net_)};
  Result<std::vector<SkylinePath>> skyline =
      SkylineRoutes(net_, 0, 35, criteria, 24);
  ASSERT_TRUE(skyline.ok());
  ASSERT_GE(skyline->size(), 1u);
  // Every returned path's costs must be mutually non-dominated.
  for (size_t i = 0; i < skyline->size(); ++i) {
    for (size_t j = 0; j < skyline->size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Dominates((*skyline)[i].costs, (*skyline)[j].costs));
    }
  }
  // Scalarized best among skyline equals scalarized best among K-shortest
  // candidates for time-heavy weights.
  std::vector<std::vector<double>> costs;
  for (const auto& sp : *skyline) costs.push_back(sp.costs);
  int best = ScalarizedBest(costs, {1.0, 0.001});
  ASSERT_GE(best, 0);
  Result<Path> sp_time = ShortestPath(net_, 0, 35, FreeFlowTimeCost(net_));
  ASSERT_TRUE(sp_time.ok());
  EXPECT_NEAR(costs[best][0], sp_time->cost, 1e-6);
}

TEST_F(RoutingFixture, SkylineValidatesInput) {
  EXPECT_FALSE(SkylineRoutes(net_, 0, 35, {}).ok());
  EXPECT_FALSE(
      SkylineRoutes(net_, -1, 35, {FreeFlowTimeCost(net_)}).ok());
}

TEST_F(RoutingFixture, ImitatorReproducesExpertDetours) {
  // Experts prefer a longer route along "green" edges; encode this by
  // generating expert paths under a cost that discounts arterials.
  auto expert_cost = [this](int eid) {
    const auto& e = net_.edge(eid);
    double t = net_.FreeFlowTime(eid);
    // Experts love high-speed edges even more than time-optimal.
    return e.free_flow_speed > 12.0 ? 0.5 * t : 1.5 * t;
  };
  RouteImitator imitator(&net_);
  std::vector<std::pair<int, int>> test_pairs;
  for (int i = 0; i < 80; ++i) {
    int s = rng_->Index(static_cast<int>(net_.NumNodes()));
    int t = rng_->Index(static_cast<int>(net_.NumNodes()));
    if (s == t) continue;
    Result<Path> p = ShortestPath(net_, s, t, expert_cost);
    if (!p.ok() || p->edges.size() < 3) continue;
    if (test_pairs.size() < 10) {
      test_pairs.push_back({s, t});
    }
    imitator.AddExpertPath(p->edges);
  }
  ASSERT_TRUE(imitator.Train().ok());

  double learned_overlap = 0.0, baseline_overlap = 0.0;
  int scored = 0;
  for (auto [s, t] : test_pairs) {
    Result<Path> expert = ShortestPath(net_, s, t, expert_cost);
    Result<Path> learned = imitator.Route(s, t);
    Result<Path> baseline =
        ShortestPath(net_, s, t, FreeFlowTimeCost(net_));
    if (!expert.ok() || !learned.ok() || !baseline.ok()) continue;
    learned_overlap +=
        RouteImitator::PathJaccard(learned->edges, expert->edges);
    baseline_overlap +=
        RouteImitator::PathJaccard(baseline->edges, expert->edges);
    ++scored;
  }
  ASSERT_GT(scored, 3);
  EXPECT_GE(learned_overlap, baseline_overlap);
}

TEST(ImitatorTest, TrainWithoutDataFails) {
  RoadNetwork net;
  net.AddNode(0, 0);
  net.AddNode(1, 1);
  net.AddEdge(0, 1, 10.0);
  RouteImitator imitator(&net);
  EXPECT_FALSE(imitator.Train().ok());
  EXPECT_FALSE(imitator.Route(0, 1).ok());
}

TEST(ImitatorTest, JaccardEdgeCases) {
  EXPECT_DOUBLE_EQ(RouteImitator::PathJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(RouteImitator::PathJaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(RouteImitator::PathJaccard({1}, {2}), 0.0);
}

TEST(PreferenceTest, ContextModelRecoversContextDependentWeights) {
  // Synthetic decision maker: weekday mornings minimize time (criterion 0),
  // weekends minimize scenic distance (criterion 1).
  Rng rng(31);
  ContextualPreferenceModel::Options copts;
  copts.num_criteria = 2;
  ContextualPreferenceModel contextual(copts);
  ContextualPreferenceModel::Options gopts;
  gopts.num_criteria = 2;
  gopts.contextual = false;
  ContextualPreferenceModel global(gopts);

  std::vector<ChoiceObservation> observations;
  for (int i = 0; i < 300; ++i) {
    ChoiceObservation obs;
    bool weekend = rng.Bernoulli(0.5);
    obs.context = DecisionContext::FromTime(
        weekend ? 12 * 3600 : 8 * 3600, weekend);
    for (int c = 0; c < 4; ++c) {
      obs.candidate_costs.push_back(
          {rng.Uniform(10, 100), rng.Uniform(10, 100)});
    }
    // True preference: weekday -> 0.9/0.1, weekend -> 0.1/0.9.
    std::vector<double> w =
        weekend ? std::vector<double>{0.1, 0.9}
                : std::vector<double>{0.9, 0.1};
    double best = 1e300;
    for (size_t c = 0; c < obs.candidate_costs.size(); ++c) {
      double v = w[0] * obs.candidate_costs[c][0] +
                 w[1] * obs.candidate_costs[c][1];
      if (v < best) {
        best = v;
        obs.chosen = static_cast<int>(c);
      }
    }
    observations.push_back(obs);
  }
  for (const auto& obs : observations) {
    contextual.AddObservation(obs);
    global.AddObservation(obs);
  }
  ASSERT_TRUE(contextual.Train().ok());
  ASSERT_TRUE(global.Train().ok());
  EXPECT_GT(contextual.TrainingAgreement(), global.TrainingAgreement());
  EXPECT_GT(contextual.TrainingAgreement(), 0.85);
}

TEST(PreferenceTest, UntrainedModelFails) {
  ContextualPreferenceModel model;
  EXPECT_FALSE(model.Train().ok());
  EXPECT_EQ(model.Choose(DecisionContext{}, {{1.0, 2.0}}), -1);
}

TEST(ContextTest, BucketsAreStable) {
  DecisionContext morning = DecisionContext::FromTime(8 * 3600, false);
  DecisionContext evening = DecisionContext::FromTime(20 * 3600, false);
  EXPECT_NE(morning.Index(), evening.Index());
  EXPECT_LT(morning.Index(), DecisionContext::kNumContexts);
  DecisionContext weekend = DecisionContext::FromTime(8 * 3600, true);
  EXPECT_NE(morning.Index(), weekend.Index());
}

}  // namespace
}  // namespace tsdm
