#include "gpu/sampler.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace gpuvar {
namespace {

TEST(StreamingQuantile, ExactMinMaxMean) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  q.add(10.0, 1.0);
  q.add(20.0, 1.0);
  q.add(90.0, 2.0);
  EXPECT_DOUBLE_EQ(q.min(), 10.0);
  EXPECT_DOUBLE_EQ(q.max(), 90.0);
  EXPECT_DOUBLE_EQ(q.mean(), (10.0 + 20.0 + 180.0) / 4.0);
  EXPECT_DOUBLE_EQ(q.total_weight(), 4.0);
}

TEST(StreamingQuantile, WeightedMedian) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  q.add(10.0, 1.0);
  q.add(50.0, 10.0);  // dominates
  q.add(90.0, 1.0);
  EXPECT_NEAR(q.median(), 50.0, 0.1);
}

TEST(StreamingQuantile, MedianAtResolution) {
  StreamingQuantile q(0.0, 10.0, 0.5);
  for (int i = 0; i < 100; ++i) q.add(3.0, 1.0);
  EXPECT_NEAR(q.median(), 3.0, 0.5);
}

TEST(StreamingQuantile, QuantilesMonotone) {
  StreamingQuantile q(0.0, 100.0, 0.1);
  for (int i = 1; i <= 100; ++i) q.add(i, 1.0);
  EXPECT_LE(q.quantile(0.25), q.quantile(0.5));
  EXPECT_LE(q.quantile(0.5), q.quantile(0.75));
  EXPECT_NEAR(q.quantile(0.25), 25.0, 1.1);
}

TEST(StreamingQuantile, EmptyThrows) {
  StreamingQuantile q(0.0, 1.0, 0.1);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.median(), std::invalid_argument);
  EXPECT_THROW(q.mean(), std::invalid_argument);
}

TEST(StreamingQuantile, ZeroWeightIgnored) {
  StreamingQuantile q(0.0, 1.0, 0.1);
  q.add(0.5, 0.0);
  EXPECT_TRUE(q.empty());
}

// ---- sparse span vs. the dense grid -----------------------------------
// StreamingQuantile stores only the bins add() touched. This reference
// keeps the whole zeroed grid and scans all of it, the way the
// estimator is defined; every quantile must match it bit for bit.

class DenseQuantile {
 public:
  DenseQuantile(double lo, double hi, double resolution)
      : lo_(lo),
        resolution_(resolution),
        weights_(static_cast<std::size_t>(std::ceil((hi - lo) / resolution)) +
                     1,
                 0.0) {}

  void add(double value, double weight) {
    if (total_ == 0.0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    auto idx = static_cast<long long>(std::floor((value - lo_) / resolution_));
    idx = std::clamp<long long>(idx, 0,
                                static_cast<long long>(weights_.size()) - 1);
    weights_[static_cast<std::size_t>(idx)] += weight;
    total_ += weight;
  }

  double quantile(double q) const {
    const double target = q * total_;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      acc += weights_[i];
      if (acc >= target) {
        const double center =
            lo_ + (static_cast<double>(i) + 0.5) * resolution_;
        return std::clamp(center, min_, max_);
      }
    }
    return max_;
  }

 private:
  double lo_, resolution_;
  std::vector<double> weights_;
  double total_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Feeds both estimators the same (value, weight) stream, then compares
/// quantiles at `qs` bit for bit.
void expect_matches_dense(const std::vector<std::pair<double, double>>& adds,
                          std::initializer_list<double> qs) {
  StreamingQuantile sparse(0.0, 100.0, 0.5);
  DenseQuantile dense(0.0, 100.0, 0.5);
  for (const auto& [v, w] : adds) {
    sparse.add(v, w);
    dense.add(v, w);
  }
  for (double q : qs) {
    EXPECT_EQ(bits(sparse.quantile(q)), bits(dense.quantile(q)))
        << "q=" << q << ": sparse " << sparse.quantile(q) << " vs dense "
        << dense.quantile(q);
  }
}

TEST(StreamingQuantile, ClampedValuesMatchDenseGrid) {
  // Below lo lands in bin 0, above hi in the last bin; min/max stay
  // exact, so the clamped centers come back as the true extremes.
  expect_matches_dense({{-7.0, 1.0}, {250.0, 2.0}, {50.0, 0.5}},
                       {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
  expect_matches_dense({{-1e9, 3.0}}, {0.0, 0.5, 1.0});
  expect_matches_dense({{1e9, 3.0}}, {0.0, 0.5, 1.0});
}

TEST(StreamingQuantile, SpanGrowsLeftMatchesDenseGrid) {
  // The first value pins the span's base; a later, smaller one must
  // extend it to the left without moving any stored weight.
  expect_matches_dense({{80.0, 1.0}, {20.0, 1.0}, {80.2, 2.0}, {5.0, 0.25}},
                       {0.0, 0.1, 0.3, 0.5, 0.7, 1.0});
  StreamingQuantile q(0.0, 100.0, 0.5);
  q.add(80.0, 1.0);
  q.add(20.0, 3.0);
  EXPECT_DOUBLE_EQ(q.median(), 20.25);  // center of [20, 20.5)
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 80.0);
}

TEST(StreamingQuantile, ZeroHalfAndOneMatchDenseGrid) {
  // q = 0 meets its zero target at grid bin 0, whatever the span;
  // clamped to min it reads as the smallest value seen.
  expect_matches_dense({{42.0, 1.0}}, {0.0, 0.5, 1.0});
  expect_matches_dense({{42.0, 1.0}, {43.0, 1.0}, {60.0, 1.0}},
                       {0.0, 0.5, 1.0});
  StreamingQuantile q(0.0, 100.0, 0.5);
  q.add(42.0, 1.0);
  q.add(60.0, 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 60.0);
}

TEST(StreamingQuantile, RandomStreamsMatchDenseGrid) {
  // Runs of small steps in both directions with occasional jumps
  // outside the grid, like a DVFS trace with clamped outliers.
  Rng rng(0x5A3, "sampler/sparse");
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<double, double>> adds;
    double v = rng.uniform(-10.0, 110.0);
    for (int i = 0; i < 200; ++i) {
      v += rng.uniform(-3.0, 3.0);
      if (rng.uniform() < 0.02) v = rng.uniform(-50.0, 150.0);
      adds.emplace_back(v, rng.uniform(1e-4, 1e-2));
    }
    expect_matches_dense(adds, {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0});
  }
}

TEST(Sampler, SummaryAggregatesSpans) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  s.record_span(Seconds{1.0}, Seconds{1.0}, MegaHertz{1300.0}, Watts{300.0}, Celsius{70.0});
  const auto sum = s.summary();
  EXPECT_DOUBLE_EQ(sum.duration.value(), 2.0);
  EXPECT_DOUBLE_EQ(sum.energy.value(), 590.0);
  EXPECT_DOUBLE_EQ(sum.freq.min, 1300.0);
  EXPECT_DOUBLE_EQ(sum.freq.max, 1400.0);
  EXPECT_NEAR(sum.power.mean, 295.0, 1e-9);
  EXPECT_NEAR(sum.temp.mean, 65.0, 1e-9);
}

TEST(Sampler, MedianIsTimeWeighted) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{9.0}, MegaHertz{1500.0}, Watts{100.0}, Celsius{50.0});
  s.record_span(Seconds{9.0}, Seconds{1.0}, MegaHertz{1000.0}, Watts{300.0}, Celsius{90.0});
  const auto sum = s.summary();
  EXPECT_NEAR(sum.freq.median, 1500.0, 1.0);
  EXPECT_NEAR(sum.power.median, 100.0, 0.5);
}

TEST(Sampler, NoSeriesByDefault) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  EXPECT_TRUE(s.series().empty());
}

TEST(Sampler, SeriesDecimatedAtInterval) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{0.1};
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  // 10 samples at 0.0, 0.1, ..., 0.9.
  EXPECT_EQ(s.series().size(), 10u);
  EXPECT_DOUBLE_EQ(s.series()[0].t.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.series()[1].freq.value(), 1400.0);
}

TEST(Sampler, SeriesIntervalClampedToProfilerFloor) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{1e-6};  // below the 1 ms nvprof floor
  Sampler s(opts);
  EXPECT_DOUBLE_EQ(s.options().series_interval.value(), kMinSamplingInterval.value());
}

TEST(Sampler, SeriesRespectsCap) {
  SamplerOptions opts;
  opts.keep_series = true;
  opts.series_interval = Seconds{0.001};
  opts.max_series_samples = 100;
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{10.0}, MegaHertz{1.0}, Watts{1.0}, Celsius{1.0});
  EXPECT_EQ(s.series().size(), 100u);
}

TEST(Sampler, ResetClearsEverything) {
  SamplerOptions opts;
  opts.keep_series = true;
  Sampler s(opts);
  s.record_span(Seconds{0.0}, Seconds{1.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0});
  s.reset();
  EXPECT_TRUE(s.series().empty());
  EXPECT_DOUBLE_EQ(s.summary().duration.value(), 0.0);
}

TEST(Sampler, ZeroDurationSpanIgnored) {
  Sampler s;
  s.record_span(Seconds{0.0}, Seconds{0.0}, MegaHertz{1.0}, Watts{1.0}, Celsius{1.0});
  EXPECT_DOUBLE_EQ(s.summary().duration.value(), 0.0);
}

}  // namespace
}  // namespace gpuvar
