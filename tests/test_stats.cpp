#include <gtest/gtest.h>

#include <cmath>

#include "util/deterministic_rng.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/step_function.hpp"
#include "util/timeseries.hpp"

namespace arcadia {
namespace {

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.25);
  for (int i = 0; i < 100; ++i) e.add(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.initialized());
  e.add(3.0);
  EXPECT_DOUBLE_EQ(e.value(), 3.0);
  e.add(4.0);
  EXPECT_NEAR(e.value(), 0.1 * 4.0 + 0.9 * 3.0, 1e-12);
}

// ---- StepFunction ----

TEST(StepFunctionTest, InitialValueBeforeFirstStep) {
  StepFunction f(1.5);
  f.step(SimTime::seconds(10), 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::zero()), 1.5);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(9.999)), 1.5);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(10)), 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(100)), 3.0);
}

TEST(StepFunctionTest, OutOfOrderInsertionSorts) {
  StepFunction f(0.0);
  f.step(SimTime::seconds(20), 2.0);
  f.step(SimTime::seconds(10), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(15)), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(25)), 2.0);
}

TEST(StepFunctionTest, ReplaceAtSameInstant) {
  StepFunction f(0.0);
  f.step(SimTime::seconds(5), 1.0);
  f.step(SimTime::seconds(5), 9.0);
  EXPECT_DOUBLE_EQ(f.value_at(SimTime::seconds(5)), 9.0);
  EXPECT_EQ(f.steps().size(), 1u);
}

TEST(StepFunctionTest, NextChangeAfter) {
  StepFunction f(0.0);
  f.step(SimTime::seconds(10), 1.0);
  f.step(SimTime::seconds(20), 2.0);
  EXPECT_EQ(f.next_change_after(SimTime::zero()), SimTime::seconds(10));
  EXPECT_EQ(f.next_change_after(SimTime::seconds(10)), SimTime::seconds(20));
  EXPECT_TRUE(f.next_change_after(SimTime::seconds(20)).is_infinite());
}

TEST(StepFunctionTest, IntegralAcrossSteps) {
  // Figure 7-style schedule: 0 until 120, 9.95 until 600, 5 until 1200.
  StepFunction f(0.0);
  f.step(SimTime::seconds(120), 9.95);
  f.step(SimTime::seconds(600), 5.0);
  double integral = f.integrate(SimTime::zero(), SimTime::seconds(1200));
  EXPECT_NEAR(integral, 9.95 * 480 + 5.0 * 600, 1e-6);
}

TEST(StepFunctionTest, IntegralEmptyRange) {
  StepFunction f(2.0);
  EXPECT_DOUBLE_EQ(f.integrate(SimTime::seconds(5), SimTime::seconds(5)), 0.0);
  EXPECT_DOUBLE_EQ(f.integrate(SimTime::seconds(9), SimTime::seconds(5)), 0.0);
}

// ---- TimeSeries ----

TEST(TimeSeriesTest, AppendMonotonicEnforced) {
  TimeSeries ts("x");
  ts.append(SimTime::seconds(1), 1.0);
  ts.append(SimTime::seconds(1), 2.0);  // equal time allowed
  EXPECT_THROW(ts.append(SimTime::zero(), 0.0), Error);
}

TEST(TimeSeriesTest, EmptySeriesHasNoEndpointTimes) {
  // Regression: these used to return SimTime::zero() when empty, which made
  // "no data yet" indistinguishable from a genuine t=0 sample.
  TimeSeries ts("x");
  EXPECT_FALSE(ts.first_time().has_value());
  EXPECT_FALSE(ts.last_time().has_value());
  ts.append(SimTime::zero(), 7.0);  // a real t=0 sample is distinguishable
  ASSERT_TRUE(ts.first_time().has_value());
  EXPECT_EQ(*ts.first_time(), SimTime::zero());
  ts.append(SimTime::seconds(3), 8.0);
  EXPECT_EQ(*ts.first_time(), SimTime::zero());
  EXPECT_EQ(*ts.last_time(), SimTime::seconds(3));
}

TEST(TimeSeriesTest, ValueAtSampleAndHold) {
  TimeSeries ts("x");
  ts.append(SimTime::seconds(10), 1.0);
  ts.append(SimTime::seconds(20), 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::seconds(5), -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::seconds(10)), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::seconds(15)), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::seconds(25)), 2.0);
}

TEST(TimeSeriesTest, FractionAboveThreshold) {
  TimeSeries ts("x");
  ts.append(SimTime::zero(), 1.0);
  ts.append(SimTime::seconds(50), 3.0);  // above from 50..100
  double frac = ts.fraction_above(2.0, SimTime::zero(), SimTime::seconds(100));
  EXPECT_NEAR(frac, 0.5, 1e-9);
}

TEST(TimeSeriesTest, FirstCrossing) {
  TimeSeries ts("x");
  ts.append(SimTime::seconds(1), 0.5);
  ts.append(SimTime::seconds(2), 2.5);
  EXPECT_EQ(ts.first_crossing(2.0), SimTime::seconds(2));
  EXPECT_TRUE(ts.first_crossing(10.0).is_infinite());
}

TEST(TimeSeriesTest, ResampleMeansBuckets) {
  TimeSeries ts("x");
  for (int i = 0; i < 10; ++i) {
    ts.append(SimTime::seconds(i), static_cast<double>(i));
  }
  TimeSeries rs = ts.resample(SimTime::seconds(5));
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_DOUBLE_EQ(rs.points()[0].second, 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(rs.points()[1].second, 7.0);  // mean of 5..9
}

TEST(TimeSeriesTest, WindowedMeanMatchesBruteForce) {
  Rng rng(3);
  TimeSeries ts("x");
  SimTime t = SimTime::zero();
  for (int i = 0; i < 200; ++i) {
    t += SimTime::seconds(rng.uniform(0.1, 2.0));
    ts.append(t, rng.uniform(0.0, 10.0));
  }
  const SimTime window = SimTime::seconds(30);
  const SimTime step = SimTime::seconds(5);
  TimeSeries wm = ts.windowed_mean(window, step, SimTime::zero(), t);
  for (const auto& [wt, wv] : wm.points()) {
    double sum = 0.0;
    int n = 0;
    for (const auto& [pt, pv] : ts.points()) {
      if (pt > wt - window && pt <= wt) {
        sum += pv;
        ++n;
      }
    }
    if (n > 0) {
      EXPECT_NEAR(wv, sum / n, 1e-9) << "at t=" << wt.as_seconds();
    }
  }
}

TEST(TimeSeriesTest, MeanMaxMinOverRange) {
  TimeSeries ts("x");
  ts.append(SimTime::seconds(1), 1.0);
  ts.append(SimTime::seconds(2), 5.0);
  ts.append(SimTime::seconds(3), 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(SimTime::seconds(1), SimTime::seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ts.max_over(SimTime::seconds(1), SimTime::seconds(3)), 5.0);
  EXPECT_DOUBLE_EQ(ts.min_over(SimTime::seconds(2), SimTime::seconds(3)), 3.0);
}

// ---- RNG ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedBounds) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_int(7)];
  for (int c : counts) EXPECT_GT(c, 700);  // crude uniformity check
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, LognormalTargetsMean) {
  Rng rng(21);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_with_mean(20.0, 0.5);
  EXPECT_NEAR(sum / n, 20.0, 0.5);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace arcadia
