#ifndef TSDM_DECISION_UNCERTAIN_UTILITY_H_
#define TSDM_DECISION_UNCERTAIN_UTILITY_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/governance/uncertainty/histogram.h"

namespace tsdm {

/// A utility function over a *cost* outcome (e.g. travel time in seconds):
/// monotonically non-increasing in cost. Risk preferences (§II-D Decision
/// Making under Uncertainty) are encoded via curvature.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;
  virtual std::string Name() const = 0;
  virtual double operator()(double cost) const = 0;
};

/// u(c) = -c: the risk-neutral expected-cost minimizer.
class RiskNeutralUtility : public UtilityFunction {
 public:
  std::string Name() const override { return "risk-neutral"; }
  double operator()(double cost) const override { return -cost; }
};

/// CARA utility u(c) = (1 - exp(a c)) / a, decreasing in c.
/// a > 0: risk-averse (tail costs hurt disproportionately);
/// a < 0: risk-loving. `scale` normalizes costs before exponentiation so
/// the parameter is comparable across problems.
class ExponentialUtility : public UtilityFunction {
 public:
  ExponentialUtility(double a, double scale = 1.0) : a_(a), scale_(scale) {}
  std::string Name() const override;
  double operator()(double cost) const override;

 private:
  double a_;
  double scale_;
};

/// u(c) = 1 when c <= deadline else 0: expected utility is the on-time
/// arrival probability — the tutorial's canonical routing objective.
class DeadlineUtility : public UtilityFunction {
 public:
  explicit DeadlineUtility(double deadline) : deadline_(deadline) {}
  std::string Name() const override;
  double operator()(double cost) const override {
    return cost <= deadline_ ? 1.0 : 0.0;
  }

 private:
  double deadline_;
};

/// E[u(X)] under a histogram cost distribution.
double ExpectedUtility(const Histogram& cost, const UtilityFunction& utility);

/// What Decide maximizes over one candidate's cost distribution.
struct DecisionRule {
  enum Kind { kOnTime, kMeanCost, kExpectedUtility };

  /// P(cost <= budget): the budget is a travel time (a deadline minus the
  /// departure), not a time of day.
  static DecisionRule OnTime(double budget) { return {kOnTime, budget}; }
  /// -E[cost].
  static DecisionRule MeanCost() { return {kMeanCost}; }
  /// E[u(cost)]; `utility` must outlive the rule.
  static DecisionRule Utility(const UtilityFunction& utility) {
    return {kExpectedUtility, 0.0, &utility};
  }

  /// Higher is better.
  double Score(const Histogram& cost) const;

  Kind kind;
  double budget_seconds = 0.0;
  const UtilityFunction* utility = nullptr;
};

/// What Decide chose: the winner's index (-1 when no candidate had a cost
/// distribution), its score, and how many candidates had one.
struct Decision {
  int index = -1;
  double score = 0.0;
  int num_scored = 0;
};

/// The decision step (§II-D) of the routing library and the serving tier.
/// Scans the candidates in order; one without a distribution (a failed
/// Result) is skipped and not counted. Strict `>` keeps the first best, so
/// exact ties go to the lowest index and no merge order changes the answer.
Decision Decide(const std::vector<Histogram>& costs, const DecisionRule& rule);
Decision Decide(const std::vector<Result<Histogram>>& costs,
                const DecisionRule& rule);

}  // namespace tsdm

#endif  // TSDM_DECISION_UNCERTAIN_UTILITY_H_
