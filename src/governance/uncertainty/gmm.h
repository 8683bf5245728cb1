#ifndef TSDM_GOVERNANCE_UNCERTAINTY_GMM_H_
#define TSDM_GOVERNANCE_UNCERTAINTY_GMM_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace tsdm {

/// A univariate Gaussian mixture — the paper's second distribution
/// representation for uncertainty quantification (§II-B). Fit with EM.
class GaussianMixture {
 public:
  struct Component {
    double weight = 0.0;
    double mean = 0.0;
    double stddev = 1.0;
  };

  GaussianMixture() = default;
  explicit GaussianMixture(std::vector<Component> components)
      : components_(std::move(components)) {}

  /// Fits a k-component mixture by EM, initialized from quantile-spread
  /// means. Requires samples.size() >= k and k >= 1.
  static Result<GaussianMixture> Fit(const std::vector<double>& samples,
                                     int k, int max_iterations = 100,
                                     double tolerance = 1e-6);

  int NumComponents() const { return static_cast<int>(components_.size()); }
  const Component& component(int i) const { return components_[i]; }

  double Pdf(double x) const;
  double Cdf(double x) const;
  double Mean() const;
  double Sample(Rng* rng) const;

  /// Average log-likelihood of the samples under the mixture.
  double AverageLogLikelihood(const std::vector<double>& samples) const;

 private:
  std::vector<Component> components_;
};

}  // namespace tsdm

#endif  // TSDM_GOVERNANCE_UNCERTAINTY_GMM_H_
