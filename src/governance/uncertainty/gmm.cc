#include "src/governance/uncertainty/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/stats.h"

namespace tsdm {

namespace {

double NormalPdf(double x, double mean, double stddev) {
  double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) / (stddev * std::sqrt(2.0 * M_PI));
}

double NormalCdf(double x, double mean, double stddev) {
  return 0.5 * std::erfc(-(x - mean) / (stddev * std::sqrt(2.0)));
}

}  // namespace

Result<GaussianMixture> GaussianMixture::Fit(
    const std::vector<double>& samples, int k, int max_iterations,
    double tolerance) {
  if (k < 1) return Status::InvalidArgument("GMM: k must be >= 1");
  if (static_cast<int>(samples.size()) < k) {
    return Status::InvalidArgument("GMM: fewer samples than components");
  }
  double sd = Stdev(samples);
  if (sd <= 0.0) sd = 1e-3;

  // Initialize means at spread quantiles, equal weights, pooled stddev.
  std::vector<Component> comps(k);
  for (int j = 0; j < k; ++j) {
    double q = (j + 0.5) / k;
    comps[j].mean = Quantile(samples, q);
    comps[j].stddev = sd / std::sqrt(static_cast<double>(k));
    comps[j].weight = 1.0 / k;
  }

  size_t n = samples.size();
  std::vector<double> resp(n * k, 0.0);
  double prev_ll = -std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < max_iterations; ++iter) {
    // E step.
    double ll = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (int j = 0; j < k; ++j) {
        double p = comps[j].weight *
                   NormalPdf(samples[i], comps[j].mean, comps[j].stddev);
        resp[i * k + j] = p;
        total += p;
      }
      if (total <= 1e-300) {
        // Degenerate point: spread responsibility evenly.
        for (int j = 0; j < k; ++j) resp[i * k + j] = 1.0 / k;
        total = 1.0;
        ll += std::log(1e-300);
      } else {
        for (int j = 0; j < k; ++j) resp[i * k + j] /= total;
        ll += std::log(total);
      }
    }
    // M step.
    for (int j = 0; j < k; ++j) {
      double nj = 0.0, sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        nj += resp[i * k + j];
        sum += resp[i * k + j] * samples[i];
      }
      if (nj < 1e-9) {
        comps[j].weight = 1e-9;
        continue;
      }
      comps[j].weight = nj / static_cast<double>(n);
      comps[j].mean = sum / nj;
      double var = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double d = samples[i] - comps[j].mean;
        var += resp[i * k + j] * d * d;
      }
      comps[j].stddev = std::max(1e-4, std::sqrt(var / nj));
    }
    if (std::fabs(ll - prev_ll) < tolerance * n) break;
    prev_ll = ll;
  }
  // Renormalize weights.
  double wsum = 0.0;
  for (const auto& c : comps) wsum += c.weight;
  for (auto& c : comps) c.weight /= wsum;
  return GaussianMixture(std::move(comps));
}

double GaussianMixture::Pdf(double x) const {
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight * NormalPdf(x, c.mean, c.stddev);
  }
  return acc;
}

double GaussianMixture::Cdf(double x) const {
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight * NormalCdf(x, c.mean, c.stddev);
  }
  return acc;
}

double GaussianMixture::Mean() const {
  double acc = 0.0;
  for (const auto& c : components_) acc += c.weight * c.mean;
  return acc;
}

double GaussianMixture::Sample(Rng* rng) const {
  std::vector<double> weights(components_.size());
  for (size_t i = 0; i < components_.size(); ++i) {
    weights[i] = components_[i].weight;
  }
  const Component& c = components_[rng->Categorical(weights)];
  return rng->Normal(c.mean, c.stddev);
}

double GaussianMixture::AverageLogLikelihood(
    const std::vector<double>& samples) const {
  if (samples.empty()) return 0.0;
  double acc = 0.0;
  for (double s : samples) acc += std::log(std::max(Pdf(s), 1e-300));
  return acc / static_cast<double>(samples.size());
}

}  // namespace tsdm
