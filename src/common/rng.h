#ifndef TSDM_COMMON_RNG_H_
#define TSDM_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace tsdm {

/// Deterministic random number generator used throughout the library so that
/// simulations, tests, and benchmarks are reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  int Index(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian sample; `stddev` 0 gives `mean`. A standard normal draw is
  /// scaled here, as std::normal_distribution(mean, stddev) scales it, so
  /// the samples and the engine draws are the same, but stddev 0 does not
  /// break that class's precondition (stddev > 0).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential sample with the given rate (lambda).
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Poisson sample with the given mean.
  int Poisson(double mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Gamma sample with the given shape and scale.
  double Gamma(double shape, double scale) {
    return std::gamma_distribution<double>(shape, scale)(engine_);
  }

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Returns the last index if weights sum to zero.
  int Categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return static_cast<int>(weights.size()) - 1;
    double u = Uniform(0.0, total);
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (u < acc) return static_cast<int>(i);
    }
    return static_cast<int>(weights.size()) - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<int> SampleWithoutReplacement(int n, int k) {
    std::vector<int> idx(n);
    for (int i = 0; i < n; ++i) idx[i] = i;
    Shuffle(&idx);
    if (k < n) idx.resize(k);
    return idx;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace tsdm

#endif  // TSDM_COMMON_RNG_H_
