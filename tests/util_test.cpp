// Unit tests for util: status, bits, rng, stats, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/bits.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace aethereal {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = ResourceExhaustedError("no free slots");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: no free slots");
}

TEST(Status, StreamInsertion) {
  std::ostringstream oss;
  oss << NotFoundError("ni 7");
  EXPECT_EQ(oss.str(), "NOT_FOUND: ni 7");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bits, MaskAndExtract) {
  EXPECT_EQ(BitMask(0), 0u);
  EXPECT_EQ(BitMask(5), 0x1Fu);
  EXPECT_EQ(BitMask(32), 0xFFFFFFFFu);
  EXPECT_EQ(ExtractBits(0xABCD1234u, 8, 8), 0x12u);
}

TEST(Bits, DepositRoundTrips) {
  std::uint32_t w = 0;
  w = DepositBits(w, 4, 8, 0xAB);
  EXPECT_EQ(ExtractBits(w, 4, 8), 0xABu);
  // Depositing elsewhere leaves the field untouched.
  w = DepositBits(w, 16, 4, 0x5);
  EXPECT_EQ(ExtractBits(w, 4, 8), 0xABu);
  EXPECT_EQ(ExtractBits(w, 16, 4), 0x5u);
}

TEST(Bits, BitsFor) {
  EXPECT_EQ(BitsFor(2), 1);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(256), 8);
}

TEST(Bits, RoundUp) {
  EXPECT_EQ(RoundUp(0, 3), 0);
  EXPECT_EQ(RoundUp(1, 3), 3);
  EXPECT_EQ(RoundUp(3, 3), 3);
  EXPECT_EQ(RoundUp(7, 3), 9);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(0.25));
  // Mean of geometric (failures before success) = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Stats, Summary) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  // Unbiased sample stddev: sqrt(((1.5^2+0.5^2)*2) / (4-1)) = sqrt(5/3).
  EXPECT_NEAR(s.StdDev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, StdDevUsesSampleVariance) {
  // Regression: StdDev once divided by n (population variance), biasing
  // every confidence half-width low. The unbiased estimator divides by
  // n-1; a single sample has no spread estimate at all.
  Stats s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
  s.Add(9.0);
  // Two samples at distance 2: variance (1+1)/(2-1) = 2.
  EXPECT_DOUBLE_EQ(s.StdDev(), std::sqrt(2.0));
}

TEST(Stats, SortedRangePercentilesSeeOnlyTheRange) {
  Stats s;
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0}) s.Add(v);
  const auto sorted = s.SortedRange(2, 7);  // {9,3,7,2,8} sorted
  EXPECT_EQ(sorted, (std::vector<double>{2.0, 3.0, 7.0, 8.0, 9.0}));
  // Nearest rank over the five range samples only: the whole population's
  // extremes (1 and 9 at indices 1 and 2) must not leak in below index 2.
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 95.0), 9.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 99.0), 9.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 100.0), 9.0);
}

TEST(Stats, Percentile) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  std::ostringstream oss;
  t.Print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Fmt(static_cast<std::int64_t>(42)), "42");
}

}  // namespace
}  // namespace aethereal
