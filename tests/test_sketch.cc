#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "sketch/fm_sketch.h"
#include "util/rng.h"

namespace netclus::sketch {
namespace {

TEST(FmSketch, EmptyEstimatesZero) {
  FmSketch sk(30);
  EXPECT_DOUBLE_EQ(sk.Estimate(), 0.0);
  EXPECT_TRUE(sk.IsEmpty());
}

TEST(FmSketch, AddIsIdempotent) {
  FmSketch a(30), b(30);
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t x = 0; x < 100; ++x) a.Add(x);
  }
  for (uint64_t x = 0; x < 100; ++x) b.Add(x);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

class FmAccuracy : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(FmAccuracy, EstimateWithinExpectedError) {
  const auto [copies, n] = GetParam();
  FmSketch sk(copies);
  for (uint64_t x = 0; x < n; ++x) sk.Add(x * 0x9e3779b9ULL + 12345);
  const double estimate = sk.Estimate();
  // FM error is multiplicative; allow generous slack scaled by the
  // theoretical standard error, plus extra for small f.
  const double tolerance = 4.0 * FmSketch::StandardErrorFraction(copies) + 0.35;
  EXPECT_NEAR(estimate / static_cast<double>(n), 1.0, tolerance)
      << "f=" << copies << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FmAccuracy,
    ::testing::Combine(::testing::Values(10u, 30u, 64u, 128u),
                       ::testing::Values(100ull, 1000ull, 20000ull)));

TEST(FmSketch, ErrorShrinksWithMoreCopies) {
  // Mean absolute relative error over several trials must shrink from f=2
  // to f=64.
  auto mean_error = [](uint32_t copies) {
    double total = 0.0;
    const int trials = 12;
    for (int t = 0; t < trials; ++t) {
      FmSketch sk(copies, 1000 + t);
      const uint64_t n = 5000;
      for (uint64_t x = 0; x < n; ++x) sk.Add(x + t * 1000000ULL);
      total += std::abs(sk.Estimate() / n - 1.0);
    }
    return total / trials;
  };
  EXPECT_LT(mean_error(64), mean_error(2));
}

TEST(FmSketch, MergeEqualsUnionSemantics) {
  FmSketch a(30), b(30), both(30);
  for (uint64_t x = 0; x < 500; ++x) {
    a.Add(x);
    both.Add(x);
  }
  for (uint64_t x = 300; x < 900; ++x) {
    b.Add(x);
    both.Add(x);
  }
  FmSketch merged = a.Union(b);
  EXPECT_DOUBLE_EQ(merged.Estimate(), both.Estimate());
  // UnionEstimate agrees without materializing.
  EXPECT_DOUBLE_EQ(a.UnionEstimate(b), both.Estimate());
  // Merge in place agrees too.
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), both.Estimate());
}

TEST(FmSketch, UnionIsMonotone) {
  FmSketch a(30), b(30);
  for (uint64_t x = 0; x < 1000; ++x) a.Add(x);
  for (uint64_t x = 1000; x < 1400; ++x) b.Add(x);
  EXPECT_GE(a.UnionEstimate(b), a.Estimate());
  EXPECT_GE(a.UnionEstimate(b), b.Estimate());
}

TEST(FmSketch, DisjointUnionApproximatesSum) {
  FmSketch a(128), b(128);
  for (uint64_t x = 0; x < 4000; ++x) a.Add(x);
  for (uint64_t x = 100000; x < 104000; ++x) b.Add(x);
  const double est = a.UnionEstimate(b);
  EXPECT_NEAR(est / 8000.0, 1.0, 0.45);
}

TEST(FmSketch, ClearResets) {
  FmSketch sk(16);
  sk.Add(1);
  EXPECT_FALSE(sk.IsEmpty());
  sk.Clear();
  EXPECT_TRUE(sk.IsEmpty());
  EXPECT_DOUBLE_EQ(sk.Estimate(), 0.0);
}

TEST(FmSketch, MemoryIsLogarithmicNotLinear) {
  // The point of the sketch (Sec. 3.5): O(f) 32-bit words regardless of how
  // many elements were inserted.
  FmSketch sk(30);
  const uint64_t before = sk.MemoryBytes();
  for (uint64_t x = 0; x < 100000; ++x) sk.Add(x);
  EXPECT_EQ(sk.MemoryBytes(), before);
  EXPECT_EQ(sk.MemoryBytes(), 30u * sizeof(uint32_t));
}

TEST(FmSketch, DifferentSeedsGiveIndependentEstimates) {
  FmSketch a(8, 1), b(8, 2);
  for (uint64_t x = 0; x < 1000; ++x) {
    a.Add(x);
    b.Add(x);
  }
  // Estimates differ (independent hash families) but both are in range.
  EXPECT_GT(a.Estimate(), 100.0);
  EXPECT_GT(b.Estimate(), 100.0);
}

TEST(FmSketchDeath, MergeRequiresSameShape) {
  FmSketch a(8, 1), b(16, 1), c(8, 2);
  EXPECT_DEATH(a.Merge(b), "Check failed");
  EXPECT_DEATH(a.Merge(c), "Check failed");
}

// The per-copy bits Add has always set: copy i hashes the element with
// SplitMix64 under SplitMix64(seed + golden * (i + 1)). Sketches feed GDSP's
// FM strategy and FM-greedy, so these bits must never change.
uint32_t ReferenceBit(uint64_t element, uint64_t seed, size_t copy) {
  const uint64_t h = util::SplitMix64(
      element ^ util::SplitMix64(seed + 0x9e3779b97f4a7c15ULL * (copy + 1)));
  const int pos = h == 0 ? 31 : std::min(31, std::countr_zero(h));
  return 1u << pos;
}

TEST(FmSketch, AddSetsTheReferenceBits) {
  for (const uint64_t seed : {0x5eedf00d5eedf00dULL, 1ULL, 12345ULL}) {
    FmSketch sk(30, seed);
    std::vector<uint32_t> want(30, 0u);
    for (uint64_t x = 0; x < 500; ++x) {
      const uint64_t element = x * 0x9e3779b9ULL + (x & 7);
      sk.Add(element);
      for (size_t i = 0; i < want.size(); ++i) {
        want[i] |= ReferenceBit(element, seed, i);
      }
      ASSERT_EQ(sk.words(), want) << "seed=" << seed << " element=" << element;
    }
  }
}

TEST(FmSketch, AddEqualsOrOfElementMask) {
  const FmSketch empty(30, 99);
  FmSketch added = empty;
  FmSketch masked = empty;
  std::vector<uint32_t> mask(30);
  for (uint64_t element = 0; element < 2000; element += 3) {
    added.Add(element);
    empty.ElementMask(element, mask.data());
    for (size_t i = 0; i < mask.size(); ++i) {
      EXPECT_EQ(mask[i], ReferenceBit(element, 99, i));
    }
    masked.AddMask(mask.data());
    ASSERT_EQ(added.words(), masked.words()) << "element=" << element;
  }
  // Copies share the salts of the sketch they were copied from, and a copy
  // fills exactly like a freshly constructed sketch.
  EXPECT_TRUE(empty.IsEmpty());
  FmSketch fresh(30, 99);
  for (uint64_t element = 0; element < 2000; element += 3) fresh.Add(element);
  EXPECT_EQ(fresh.words(), added.words());
}

}  // namespace
}  // namespace netclus::sketch
