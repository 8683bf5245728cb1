#include "src/governance/uncertainty/histogram.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tsdm {

Result<Histogram> Histogram::Create(double lo, double hi, int bins) {
  if (!(lo < hi)) {
    return Status::InvalidArgument("Histogram: lo must be < hi");
  }
  if (bins < 1) return Status::InvalidArgument("Histogram: bins must be >=1");
  Histogram h;
  h.lo_ = lo;
  h.hi_ = hi;
  h.mass_.assign(bins, 0.0);
  return h;
}

Result<Histogram> Histogram::FromSamples(const std::vector<double>& samples,
                                         int bins) {
  if (samples.empty()) {
    return Status::InvalidArgument("Histogram: empty sample set");
  }
  double lo = *std::min_element(samples.begin(), samples.end());
  double hi = *std::max_element(samples.begin(), samples.end());
  if (lo == hi) {
    lo -= 0.5;
    hi += 0.5;
  } else {
    double pad = (hi - lo) * 0.01;
    lo -= pad;
    hi += pad;
  }
  Result<Histogram> h = Create(lo, hi, bins);
  if (!h.ok()) return h;
  for (double s : samples) h->Add(s);
  return h;
}

Histogram Histogram::PointMass(double value) {
  Histogram h;
  h.lo_ = value - 0.5;
  h.hi_ = value + 0.5;
  h.mass_.assign(1, 1.0);
  h.total_ = 1.0;
  return h;
}

double Histogram::BinWidth() const {
  return (hi_ - lo_) / static_cast<double>(mass_.size());
}

double Histogram::BinCenter(int b) const {
  return lo_ + (b + 0.5) * BinWidth();
}

double Histogram::BinMass(int b) const {
  return total_ > 0.0 ? mass_[b] / total_ : 0.0;
}

void Histogram::Add(double value, double weight) {
  if (mass_.empty()) return;
  int b = static_cast<int>((value - lo_) / BinWidth());
  b = std::clamp(b, 0, NumBins() - 1);
  mass_[b] += weight;
  total_ += weight;
}

double Histogram::Mean() const {
  if (total_ <= 0.0) return 0.0;
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) acc += BinMass(b) * BinCenter(b);
  return acc;
}

double Histogram::Variance() const {
  if (total_ <= 0.0) return 0.0;
  double m = Mean();
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) {
    double d = BinCenter(b) - m;
    acc += BinMass(b) * d * d;
  }
  return acc;
}

double Histogram::Stdev() const { return std::sqrt(Variance()); }

double Histogram::Cdf(double x) const {
  if (total_ <= 0.0) return 0.0;
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  double w = BinWidth();
  int b = std::clamp(static_cast<int>((x - lo_) / w), 0, NumBins() - 1);
  double acc = 0.0;
  for (int i = 0; i < b; ++i) acc += BinMass(i);
  // Linear interpolation within the bin.
  double frac = (x - (lo_ + b * w)) / w;
  acc += BinMass(b) * std::clamp(frac, 0.0, 1.0);
  return acc;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  if (total_ <= 0.0) return lo_;
  double acc = 0.0;
  double w = BinWidth();
  for (int b = 0; b < NumBins(); ++b) {
    double m = BinMass(b);
    if (acc + m >= q) {
      double frac = m > 0.0 ? (q - acc) / m : 0.0;
      return lo_ + (b + frac) * w;
    }
    acc += m;
  }
  return hi_;
}

double Histogram::Sample(Rng* rng) const {
  if (total_ <= 0.0) return lo_;
  double u = rng->Uniform(0.0, total_);
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) {
    acc += mass_[b];
    if (u < acc) {
      double w = BinWidth();
      return lo_ + b * w + rng->Uniform(0.0, w);
    }
  }
  return hi_;
}

Histogram Histogram::Convolve(const Histogram& other, int result_bins) const {
  double new_lo = lo_ + other.lo_;
  double new_hi = hi_ + other.hi_;
  Result<Histogram> out = Create(new_lo, new_hi, result_bins);
  Histogram result = out.ok() ? *out : PointMass(new_lo);
  if (total_ <= 0.0 || other.total_ <= 0.0) return result;
  // The same pairs in the same order as a per-pair
  // result.Add(BinCenter(a) + other.BinCenter(b), pa * pb), with the same
  // expressions, so every sum, product and bin index is bit for bit what
  // Add gives; only the loop-invariant work (other's bin centres and
  // masses, the result's bin width) is done once.
  std::vector<std::pair<double, double>> rhs;  // (centre, mass) of used bins
  rhs.reserve(other.mass_.size());
  for (int b = 0; b < other.NumBins(); ++b) {
    const double pb = other.BinMass(b);
    if (!(pb <= 0.0)) rhs.emplace_back(other.BinCenter(b), pb);
  }
  const double lo = result.lo_;
  const double width = result.BinWidth();
  const int last = result.NumBins() - 1;
  double* mass = result.mass_.data();
  double total = result.total_;
  for (int a = 0; a < NumBins(); ++a) {
    const double pa = BinMass(a);
    if (pa <= 0.0) continue;
    const double ca = BinCenter(a);
    for (const auto& [cb, pb] : rhs) {
      const double weight = pa * pb;
      const int bin = static_cast<int>((ca + cb - lo) / width);
      mass[std::clamp(bin, 0, last)] += weight;
      total += weight;
    }
  }
  result.total_ = total;
  return result;
}

Histogram Histogram::Shifted(double offset) const {
  Histogram out = *this;
  out.lo_ += offset;
  out.hi_ += offset;
  return out;
}

std::vector<double> Histogram::CdfOnGrid(
    const std::vector<double>& grid) const {
  std::vector<double> out(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) out[i] = Cdf(grid[i]);
  return out;
}

bool Histogram::DominatesForMinimization(const Histogram& other,
                                         double tolerance) const {
  // Decide dominance exactly for the mass-at-bin-center representation
  // that ExpectedUtility integrates over: compare the step CDFs
  // P(X <= x) at every mass point of either histogram. This guarantees
  // that pruning never removes an expected-utility optimum for any
  // monotone utility (the correctness contract of FSD pruning).
  std::vector<double> grid;
  grid.reserve(NumBins() + other.NumBins());
  for (int b = 0; b < NumBins(); ++b) grid.push_back(BinCenter(b));
  for (int b = 0; b < other.NumBins(); ++b) grid.push_back(other.BinCenter(b));
  std::sort(grid.begin(), grid.end());

  auto step_cdf = [](const Histogram& h, double x) {
    double acc = 0.0;
    for (int b = 0; b < h.NumBins(); ++b) {
      if (h.BinCenter(b) <= x + 1e-12) acc += h.BinMass(b);
    }
    return acc;
  };
  bool strict = false;
  for (double x : grid) {
    double fa = step_cdf(*this, x);
    double fb = step_cdf(other, x);
    if (fa < fb - tolerance) return false;
    if (fa > fb + tolerance) strict = true;
  }
  return strict;
}

}  // namespace tsdm
