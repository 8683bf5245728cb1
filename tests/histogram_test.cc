#include "src/governance/uncertainty/histogram.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/histogram_ext.h"
#include "src/common/stats.h"
#include "src/obs/metrics_export.h"

namespace tsdm {
namespace {

TEST(HistogramTest, CreateValidation) {
  EXPECT_FALSE(Histogram::Create(1.0, 1.0, 10).ok());
  EXPECT_FALSE(Histogram::Create(2.0, 1.0, 10).ok());
  EXPECT_FALSE(Histogram::Create(0.0, 1.0, 0).ok());
  EXPECT_TRUE(Histogram::Create(0.0, 1.0, 10).ok());
  EXPECT_FALSE(Histogram::FromSamples({}, 10).ok());
}

TEST(HistogramTest, MeanVarianceApproximateSamples) {
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Normal(10.0, 2.0));
  Result<Histogram> h = Histogram::FromSamples(samples, 64);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->Mean(), 10.0, 0.1);
  EXPECT_NEAR(h->Stdev(), 2.0, 0.1);
}

TEST(HistogramTest, CdfAndQuantileAreInverse) {
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) samples.push_back(rng.Uniform(0.0, 100.0));
  Result<Histogram> h = Histogram::FromSamples(samples, 50);
  ASSERT_TRUE(h.ok());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    double x = h->Quantile(q);
    EXPECT_NEAR(h->Cdf(x), q, 0.03);
  }
  EXPECT_EQ(h->Cdf(h->lo() - 1.0), 0.0);
  EXPECT_EQ(h->Cdf(h->hi() + 1.0), 1.0);
}

TEST(HistogramTest, PointMassBehaves) {
  Histogram p = Histogram::PointMass(5.0);
  EXPECT_NEAR(p.Mean(), 5.0, 1e-9);
  EXPECT_EQ(p.Variance(), 0.0);
  EXPECT_EQ(p.Cdf(4.0), 0.0);
  EXPECT_EQ(p.Cdf(6.0), 1.0);
}

TEST(HistogramTest, SamplesFollowDistribution) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.Normal(0.0, 1.0));
  Result<Histogram> h = Histogram::FromSamples(samples, 40);
  ASSERT_TRUE(h.ok());
  std::vector<double> drawn;
  for (int i = 0; i < 5000; ++i) drawn.push_back(h->Sample(&rng));
  EXPECT_NEAR(Mean(drawn), 0.0, 0.1);
  EXPECT_NEAR(Stdev(drawn), 1.0, 0.1);
}

TEST(HistogramTest, ConvolutionAddsMeansAndVariances) {
  Rng rng(4);
  std::vector<double> a, b;
  for (int i = 0; i < 20000; ++i) {
    a.push_back(rng.Normal(5.0, 1.0));
    b.push_back(rng.Normal(7.0, 2.0));
  }
  Result<Histogram> ha = Histogram::FromSamples(a, 64);
  Result<Histogram> hb = Histogram::FromSamples(b, 64);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  Histogram sum = ha->Convolve(*hb, 96);
  EXPECT_NEAR(sum.Mean(), 12.0, 0.2);
  // Var = 1 + 4 under independence.
  EXPECT_NEAR(sum.Variance(), 5.0, 0.5);
}

TEST(HistogramTest, ShiftedMovesSupport) {
  Histogram p = Histogram::PointMass(3.0);
  Histogram q = p.Shifted(2.0);
  EXPECT_NEAR(q.Mean(), 5.0, 1e-9);
}

TEST(HistogramTest, DominanceForMinimization) {
  // A uniformly on [0,10] vs B uniformly on [5,15]: A dominates B.
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(rng.Uniform(0.0, 10.0));
    b.push_back(rng.Uniform(5.0, 15.0));
  }
  Histogram ha = *Histogram::FromSamples(a, 32);
  Histogram hb = *Histogram::FromSamples(b, 32);
  EXPECT_TRUE(ha.DominatesForMinimization(hb));
  EXPECT_FALSE(hb.DominatesForMinimization(ha));
}

TEST(HistogramTest, OverlappingDistributionsDoNotDominate) {
  // A tight around 10 vs B wide around 10: neither dominates.
  Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(rng.Normal(10.0, 0.5));
    b.push_back(rng.Normal(10.0, 3.0));
  }
  Histogram ha = *Histogram::FromSamples(a, 32);
  Histogram hb = *Histogram::FromSamples(b, 32);
  EXPECT_FALSE(ha.DominatesForMinimization(hb));
  EXPECT_FALSE(hb.DominatesForMinimization(ha));
}

// --- Convolve differential test ------------------------------------------
// Convolve hoists its loop invariants out of the bin-pair loop; it must give
// exactly what the original per-pair loop below gives, bit for bit.

Histogram ReferenceConvolve(const Histogram& x, const Histogram& y,
                            int result_bins) {
  double new_lo = x.lo() + y.lo();
  double new_hi = x.hi() + y.hi();
  Result<Histogram> out = Histogram::Create(new_lo, new_hi, result_bins);
  Histogram result = out.ok() ? *out : Histogram::PointMass(new_lo);
  if (x.TotalWeight() <= 0.0 || y.TotalWeight() <= 0.0) return result;
  for (int a = 0; a < x.NumBins(); ++a) {
    double pa = x.BinMass(a);
    if (pa <= 0.0) continue;
    for (int b = 0; b < y.NumBins(); ++b) {
      double pb = y.BinMass(b);
      if (pb <= 0.0) continue;
      result.Add(x.BinCenter(a) + y.BinCenter(b), pa * pb);
    }
  }
  return result;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when `got` equals `want` bit for bit; otherwise what differs.
std::string ConvolveDiff(const Histogram& want, const Histogram& got) {
  if (!SameBits(want.lo(), got.lo())) return "lo";
  if (!SameBits(want.hi(), got.hi())) return "hi";
  if (!SameBits(want.TotalWeight(), got.TotalWeight())) return "total";
  if (want.NumBins() != got.NumBins()) return "bin count";
  for (int b = 0; b < want.NumBins(); ++b) {
    if (!SameBits(want.BinMass(b), got.BinMass(b))) {
      return "mass of bin " + std::to_string(b);
    }
  }
  return "";
}

/// A random histogram: random range and bin count, random weights, about a
/// third of the bins left empty, and a few samples outside the range that
/// clamp into the edge bins.
Histogram RandomHistogram(Rng* rng) {
  const double lo = rng->Uniform(-50.0, 50.0);
  const double hi = lo + rng->Uniform(0.01, 100.0);
  const int bins = rng->Index(2) == 0 ? 32 : 64;
  Histogram h = *Histogram::Create(lo, hi, bins);
  for (int b = 0; b < bins; ++b) {
    if (rng->Index(3) == 0) continue;
    h.Add(h.BinCenter(b), rng->Uniform(1e-6, 10.0));
  }
  h.Add(lo - 1.0, rng->Uniform(0.0, 1.0));
  h.Add(hi + 1.0, rng->Uniform(0.0, 1.0));
  return h;
}

TEST(HistogramConvolveTest, MatchesPerPairLoopBitForBit) {
  Rng rng(2026);
  std::vector<Histogram> shapes;
  for (int i = 0; i < 40; ++i) shapes.push_back(RandomHistogram(&rng));
  shapes.push_back(Histogram::PointMass(0.0));
  shapes.push_back(Histogram::PointMass(17.25));
  shapes.push_back(*Histogram::Create(0.0, 5.0, 32));  // no mass at all
  int pairs = 0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Histogram& x = shapes[i];
    const Histogram& y = shapes[(i * 7 + 3) % shapes.size()];
    for (int result_bins : {0, 1, 32, 64, 96}) {
      for (const auto& [a, b] : {std::pair{&x, &y}, std::pair{&y, &x}}) {
        EXPECT_EQ(ConvolveDiff(ReferenceConvolve(*a, *b, result_bins),
                               a->Convolve(*b, result_bins)),
                  "")
            << "shape " << i << " result_bins " << result_bins;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, 430);
}

// Property sweep over bin counts: total mass conserved, CDF monotone.
class HistogramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPropertyTest, MassNormalizedAndCdfMonotone) {
  Rng rng(GetParam());
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.Gamma(2.0, 3.0));
  Result<Histogram> h = Histogram::FromSamples(samples, GetParam() * 8);
  ASSERT_TRUE(h.ok());
  double total = 0.0;
  for (int b = 0; b < h->NumBins(); ++b) total += h->BinMass(b);
  EXPECT_NEAR(total, 1.0, 1e-9);
  double prev = -1.0;
  for (double x = h->lo(); x <= h->hi(); x += (h->hi() - h->lo()) / 37) {
    double c = h->Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, HistogramPropertyTest,
                         ::testing::Values(1, 2, 4, 8, 16));

// --- LatencyHistogram edge cases -----------------------------------------
// The exporter serializes these values straight into JSON/Prometheus, so
// the empty and boundary cases must be finite (never NaN/inf) and sane.

TEST(LatencyHistogramEdgeTest, ZeroSamplesIsNanFreeEverywhere) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total_seconds(), 0.0);
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  EXPECT_EQ(h.MinSeconds(), 0.0);
  EXPECT_EQ(h.MaxSeconds(), 0.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    double v = h.QuantileSeconds(q);
    EXPECT_FALSE(std::isnan(v)) << q;
    EXPECT_EQ(v, 0.0) << q;
  }
  std::string json = MetricsExporter::LatencyToJson(h);
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json,
            "{\"count\":0,\"mean_s\":0,\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,"
            "\"min_s\":0,\"max_s\":0}");
}

TEST(LatencyHistogramEdgeTest, SingleSampleClampsEveryQuantileToIt) {
  LatencyHistogram h;
  h.Add(0.003);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.MeanSeconds(), 0.003);
  EXPECT_DOUBLE_EQ(h.MinSeconds(), 0.003);
  EXPECT_DOUBLE_EQ(h.MaxSeconds(), 0.003);
  // Quantiles clamp to the observed [min, max], so with one sample every
  // quantile is exactly that sample — no bin-midpoint smearing.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.QuantileSeconds(q), 0.003) << q;
  }
}

TEST(LatencyHistogramEdgeTest, ValueBeyondLastBinKeepsExactExtremes) {
  LatencyHistogram h;
  h.Add(500.0);  // beyond kMaxSeconds = 100s: clamps into the last bin
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.MaxSeconds(), 500.0);  // exact max survives clamping
  EXPECT_DOUBLE_EQ(h.QuantileSeconds(0.99), 500.0);

  h.Add(0.5);
  // p50 comes from the 0.5s bin (~21% resolution); p99 from the overflow
  // bin, clamped into the observed range.
  EXPECT_NEAR(h.QuantileSeconds(0.5), 0.5, 0.15);
  double p99 = h.QuantileSeconds(0.99);
  EXPECT_GE(p99, LatencyHistogram::kMaxSeconds * 0.5);
  EXPECT_LE(p99, 500.0);
  EXPECT_FALSE(std::isnan(p99));
}

TEST(LatencyHistogramEdgeTest, NegativeAndSubMicrosecondValuesClampLow) {
  LatencyHistogram h;
  h.Add(-1.0);   // nonsense input clamps to 0
  h.Add(1e-9);   // below kMinSeconds lands in the first bin
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.MinSeconds(), 0.0);
  double p50 = h.QuantileSeconds(0.5);
  EXPECT_FALSE(std::isnan(p50));
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, LatencyHistogram::kMinSeconds);
}

TEST(LatencyHistogramEdgeTest, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram empty, loaded;
  loaded.Add(0.004);
  LatencyHistogram merged = loaded;
  merged.Merge(empty);  // no-op
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_DOUBLE_EQ(merged.MinSeconds(), 0.004);
  EXPECT_DOUBLE_EQ(merged.MaxSeconds(), 0.004);

  LatencyHistogram other;
  other.Merge(loaded);  // empty absorbs loaded: min must not stick at 0
  EXPECT_EQ(other.count(), 1u);
  EXPECT_DOUBLE_EQ(other.MinSeconds(), 0.004);
  EXPECT_DOUBLE_EQ(other.QuantileSeconds(0.5), 0.004);
}

}  // namespace
}  // namespace tsdm
