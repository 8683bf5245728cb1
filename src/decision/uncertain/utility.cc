#include "src/decision/uncertain/utility.h"

#include <cmath>
#include <cstdio>

namespace tsdm {

std::string ExponentialUtility::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s(a=%g)",
                a_ > 0.0 ? "risk-averse" : "risk-loving", a_);
  return buf;
}

double ExponentialUtility::operator()(double cost) const {
  double c = cost / scale_;
  if (std::fabs(a_) < 1e-12) return -c;
  return (1.0 - std::exp(a_ * c)) / a_;
}

std::string DeadlineUtility::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "deadline(%g)", deadline_);
  return buf;
}

double ExpectedUtility(const Histogram& cost,
                       const UtilityFunction& utility) {
  double acc = 0.0;
  for (int b = 0; b < cost.NumBins(); ++b) {
    double mass = cost.BinMass(b);
    if (mass > 0.0) acc += mass * utility(cost.BinCenter(b));
  }
  return acc;
}

double DecisionRule::Score(const Histogram& cost) const {
  if (kind == kOnTime) return cost.Cdf(budget_seconds);
  if (kind == kMeanCost) return -cost.Mean();
  return ExpectedUtility(cost, *utility);
}

namespace {

const Histogram* CostOf(const Histogram& cost) { return &cost; }
const Histogram* CostOf(const Result<Histogram>& cost) {
  return cost.ok() ? &cost.value() : nullptr;
}

// The one loop body behind both Decide overloads.
template <typename Cost>
Decision DecideOver(const std::vector<Cost>& costs, const DecisionRule& rule) {
  Decision decision;
  for (size_t i = 0; i < costs.size(); ++i) {
    const Histogram* cost = CostOf(costs[i]);
    if (cost == nullptr) continue;
    ++decision.num_scored;
    const double score = rule.Score(*cost);
    if (decision.index < 0 || score > decision.score) {
      decision.index = static_cast<int>(i);
      decision.score = score;
    }
  }
  return decision;
}

}  // namespace

Decision Decide(const std::vector<Histogram>& costs, const DecisionRule& rule) {
  return DecideOver(costs, rule);
}

Decision Decide(const std::vector<Result<Histogram>>& costs,
                const DecisionRule& rule) {
  return DecideOver(costs, rule);
}

}  // namespace tsdm
