#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/decision/multiobj/pareto.h"
#include "src/decision/uncertain/dominance.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/uncertainty/histogram.h"

namespace tsdm {
namespace {

Histogram GaussianHist(double mean, double sd, int seed, int n = 4000) {
  Rng rng(seed);
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) samples.push_back(rng.Normal(mean, sd));
  return *Histogram::FromSamples(samples, 48);
}

TEST(UtilityTest, RiskNeutralIsNegativeMean) {
  Histogram h = GaussianHist(100.0, 10.0, 1);
  RiskNeutralUtility u;
  EXPECT_NEAR(ExpectedUtility(h, u), -100.0, 1.0);
}

TEST(UtilityTest, RiskAversePrefersLowVariance) {
  // Same mean, different spread: the risk-averse agent prefers the tight
  // one, the risk-neutral agent is indifferent.
  Histogram tight = GaussianHist(100.0, 2.0, 2);
  Histogram wide = GaussianHist(100.0, 25.0, 3);
  ExponentialUtility averse(2.0, 100.0);
  EXPECT_GT(ExpectedUtility(tight, averse), ExpectedUtility(wide, averse));
  RiskNeutralUtility neutral;
  EXPECT_NEAR(ExpectedUtility(tight, neutral),
              ExpectedUtility(wide, neutral), 3.0);
}

TEST(UtilityTest, RiskLovingPrefersTheGamble) {
  Histogram tight = GaussianHist(100.0, 2.0, 4);
  Histogram wide = GaussianHist(100.0, 25.0, 5);
  ExponentialUtility loving(-2.0, 100.0);
  EXPECT_GT(ExpectedUtility(wide, loving), ExpectedUtility(tight, loving));
}

TEST(UtilityTest, DeadlineUtilityIsOnTimeProbability) {
  Histogram h = GaussianHist(100.0, 10.0, 6);
  DeadlineUtility u(100.0);
  EXPECT_NEAR(ExpectedUtility(h, u), 0.5, 0.05);
  DeadlineUtility generous(200.0);
  EXPECT_NEAR(ExpectedUtility(h, generous), 1.0, 1e-6);
}

TEST(UtilityTest, DecidePicksDominantOption) {
  std::vector<Histogram> options = {GaussianHist(120.0, 5.0, 7),
                                    GaussianHist(100.0, 5.0, 8),
                                    GaussianHist(140.0, 5.0, 9)};
  RiskNeutralUtility u;
  EXPECT_EQ(Decide(options, DecisionRule::Utility(u)).index, 1);
  EXPECT_EQ(Decide(std::vector<Histogram>{}, DecisionRule::Utility(u)).index,
            -1);
}

TEST(DominanceTest, ClearlyBetterOptionPrunesWorse) {
  std::vector<Histogram> options = {GaussianHist(100.0, 5.0, 10),
                                    GaussianHist(160.0, 5.0, 11),
                                    GaussianHist(230.0, 5.0, 12)};
  std::vector<int> survivors = FsdNonDominated(options);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0], 0);
  PruneStats stats = FsdPruneStats(options);
  EXPECT_EQ(stats.survivors, 1);
  EXPECT_NEAR(stats.pruned_fraction, 2.0 / 3.0, 1e-9);
}

TEST(DominanceTest, CrossingCdfsBothSurvive) {
  // Low-mean/high-variance vs high-mean/low-variance: CDFs cross.
  std::vector<Histogram> options = {GaussianHist(100.0, 30.0, 13),
                                    GaussianHist(110.0, 2.0, 14)};
  std::vector<int> survivors = FsdNonDominated(options);
  EXPECT_EQ(survivors.size(), 2u);
}

TEST(DominanceTest, PruningNeverRemovesAnyUtilityOptimum) {
  // Core guarantee of [51]-[53]: for every monotone utility, the best
  // option survives FSD pruning.
  std::vector<Histogram> options;
  Rng rng(15);
  for (int i = 0; i < 12; ++i) {
    options.push_back(
        GaussianHist(100.0 + rng.Uniform(-30, 60), rng.Uniform(2, 30),
                     20 + i));
  }
  std::vector<int> survivors = FsdNonDominated(options);
  std::vector<const UtilityFunction*> utilities;
  RiskNeutralUtility neutral;
  ExponentialUtility averse(3.0, 100.0);
  ExponentialUtility loving(-3.0, 100.0);
  DeadlineUtility deadline(110.0);
  utilities = {&neutral, &averse, &loving, &deadline};
  for (const UtilityFunction* u : utilities) {
    int best = Decide(options, DecisionRule::Utility(*u)).index;
    double eu_full = ExpectedUtility(options[best], *u);
    double eu_survivors = -1e300;
    for (int s : survivors) {
      eu_survivors = std::max(eu_survivors, ExpectedUtility(options[s], *u));
    }
    EXPECT_GE(eu_survivors, eu_full - 1e-9 * std::fabs(eu_full) - 1e-12)
        << "utility " << u->Name() << " optimum pruned";
  }
}

TEST(ParetoTest, DominatesSemantics) {
  EXPECT_TRUE(Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));  // equal: no strict part
  EXPECT_FALSE(Dominates({1, 3}, {2, 2}));  // trade-off
  EXPECT_FALSE(Dominates({1}, {1, 2}));     // size mismatch
}

TEST(ParetoTest, FrontExcludesDominated) {
  std::vector<std::vector<double>> costs = {
      {1, 5}, {2, 2}, {5, 1}, {4, 4}, {6, 6}};
  std::vector<size_t> front = ParetoFront(costs);
  // {4,4} dominated by {2,2}; {6,6} dominated too.
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], 0u);
  EXPECT_EQ(front[1], 1u);
  EXPECT_EQ(front[2], 2u);
}

TEST(ParetoTest, ScalarizedBestRespectsWeights) {
  std::vector<std::vector<double>> costs = {{1, 10}, {10, 1}};
  EXPECT_EQ(ScalarizedBest(costs, {1.0, 0.01}), 0);
  EXPECT_EQ(ScalarizedBest(costs, {0.01, 1.0}), 1);
  EXPECT_EQ(ScalarizedBest({}, {1.0}), -1);
}

TEST(ParetoTest, ScalarizedChoiceIsOnTheFront) {
  Rng rng(16);
  std::vector<std::vector<double>> costs;
  for (int i = 0; i < 50; ++i) {
    costs.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  std::vector<size_t> front = ParetoFront(costs);
  for (double w = 0.05; w < 1.0; w += 0.17) {
    int best = ScalarizedBest(costs, {w, 1.0 - w});
    bool on_front = false;
    for (size_t f : front) on_front = on_front || static_cast<int>(f) == best;
    EXPECT_TRUE(on_front);
  }
}

}  // namespace
}  // namespace tsdm
