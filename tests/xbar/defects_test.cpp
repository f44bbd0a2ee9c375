#include "xbar/defects.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "scenario/defect_model.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(DefectMap, StartsClean) {
  DefectMap map(4, 6);
  EXPECT_EQ(map.stuckOpenCount(), 0u);
  EXPECT_EQ(map.stuckClosedCount(), 0u);
  EXPECT_EQ(map.type(0, 0), DefectType::None);
}

TEST(DefectMap, SetAndQueryTypes) {
  DefectMap map(3, 3);
  map.setType(0, 1, DefectType::StuckOpen);
  map.setType(2, 2, DefectType::StuckClosed);
  EXPECT_EQ(map.type(0, 1), DefectType::StuckOpen);
  EXPECT_EQ(map.type(2, 2), DefectType::StuckClosed);
  EXPECT_TRUE(map.isStuckOpen(0, 1));
  EXPECT_TRUE(map.isStuckClosed(2, 2));
  map.setType(0, 1, DefectType::None);
  EXPECT_EQ(map.type(0, 1), DefectType::None);
}

TEST(DefectMap, PoisoningQueriesFollowStuckClosed) {
  DefectMap map(3, 4);
  map.setType(1, 2, DefectType::StuckClosed);
  EXPECT_TRUE(map.rowPoisoned(1));
  EXPECT_FALSE(map.rowPoisoned(0));
  EXPECT_TRUE(map.colPoisoned(2));
  EXPECT_FALSE(map.colPoisoned(3));
  // Stuck-open does not poison lines.
  map.setType(0, 0, DefectType::StuckOpen);
  EXPECT_FALSE(map.rowPoisoned(0));
  EXPECT_FALSE(map.colPoisoned(0));
}

TEST(DefectMap, SampleIsDeterministicAndCalibrated) {
  Rng a(12), b(12);
  const DefectMap m1 = IidBernoulli(0.1, 0.02).sample(100, 100, a);
  const DefectMap m2 = IidBernoulli(0.1, 0.02).sample(100, 100, b);
  EXPECT_EQ(m1.stuckOpenCount(), m2.stuckOpenCount());
  EXPECT_EQ(m1.stuckClosedCount(), m2.stuckClosedCount());
  EXPECT_NEAR(static_cast<double>(m1.stuckOpenCount()) / 10000.0, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(m1.stuckClosedCount()) / 10000.0, 0.02, 0.01);
}

// Independent oracle for the dense sampler: the per-crosspoint definition
// (one Rng::uniform() per crosspoint, row-major, open below the open rate,
// closed below the summed rate). IidBernoulli::generate must reproduce it
// map for map and leave the generator at the same position.
DefectMap referenceSample(std::size_t rows, std::size_t cols, double open, double closed,
                          Rng& rng) {
  DefectMap map(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u = rng.uniform();
      if (u < open)
        map.setType(r, c, DefectType::StuckOpen);
      else if (u < open + closed)
        map.setType(r, c, DefectType::StuckClosed);
    }
  }
  return map;
}

void expectMatchesReference(std::size_t rows, std::size_t cols, double open, double closed,
                            std::uint64_t seed) {
  Rng viaReference(seed), viaSampler(seed);
  const DefectMap expected = referenceSample(rows, cols, open, closed, viaReference);
  DefectMap actual(3, 200);  // stale contents must not leak into the result
  actual.setType(2, 199, DefectType::StuckClosed);
  IidBernoulli(open, closed).generate(rows, cols, viaSampler, actual);
  const std::string where = std::to_string(rows) + "x" + std::to_string(cols) +
                            " open=" + std::to_string(open) +
                            " closed=" + std::to_string(closed) +
                            " seed=" + std::to_string(seed);
  EXPECT_EQ(actual.openBits(), expected.openBits()) << where;
  EXPECT_EQ(actual.closedBits(), expected.closedBits()) << where;
  EXPECT_EQ(viaSampler(), viaReference()) << where;
}

TEST(IidBernoulli, MatchesPerCrosspointReferenceAcrossShapes) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {7, 1}, {7, 63}, {7, 64}, {7, 65}, {7, 130}, {1, 1}, {1, 65}, {1, 130}, {130, 1}, {0, 9},
      {9, 0}};
  for (const auto& [rows, cols] : shapes)
    for (const std::uint64_t seed : {1ull, 0xfeedull, 0x9e3779b97f4a7c15ull})
      expectMatchesReference(rows, cols, 0.1, 0.0, seed);
}

TEST(IidBernoulli, MatchesPerCrosspointReferenceAroundLaneTails) {
  // Rng::belowMasks scores four draws per step where it can and the rest one
  // by one: every tail length (0-3) after every lane count, at the first
  // word, a full word plus a tail and two words plus a tail, on one row, a
  // few rows and a full word of rows.
  const std::size_t cols[] = {2, 3, 4, 5, 7, 8, 9, 44, 61, 62, 67, 68, 69, 131, 132};
  for (const std::size_t rows : {1u, 3u, 64u})
    for (const std::size_t c : cols)
      for (const std::uint64_t seed : {5ull, 0x9e3779b97f4a7c15ull})
        expectMatchesReference(rows, c, 0.12, 0.03, seed);
}

TEST(IidBernoulli, MatchesPerCrosspointReferenceAcrossRates) {
  const std::pair<double, double> rates[] = {
      {0.0, 0.0}, {1e-9, 0.0}, {0.1, 0.0}, {0.25, 0.0}, {0.5, 0.0}, {1.0, 0.0},
      {0.0, 1.0}, {0.12, 0.03}};
  for (const auto& [open, closed] : rates)
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{5, 65}, {13, 130}, {1, 63}, {64, 1}})
      for (const std::uint64_t seed : {3ull, 42ull})
        expectMatchesReference(rows, cols, open, closed, seed);
}

TEST(IidBernoulli, ThresholdsAreExactAtDrawnUniforms) {
  // Each rate equals a uniform the stream draws (or sits one ulp above it),
  // so that crosspoint lies exactly on the threshold: u < p must decide it
  // the same way as the reference, for the open and the closed threshold.
  Rng probe(11);
  for (std::size_t i = 0; i < 40; ++i) {
    const double u = probe.uniform();
    for (const double p : {u, std::nextafter(u, 1.0)}) {
      expectMatchesReference(4, 10, p, 0.0, 11);
      expectMatchesReference(4, 10, 0.0, p, 11);
    }
  }
}

TEST(DefectMap, SampleRejectsBadRates) {
  Rng rng(1);
  EXPECT_THROW(IidBernoulli(-0.1).sample(2, 2, rng), InvalidArgument);
  EXPECT_THROW(IidBernoulli(0.7, 0.5).sample(2, 2, rng), InvalidArgument);
}

TEST(CrossbarMatrix, CleanMapIsAllFunctional) {
  const DefectMap map(3, 5);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_EQ(cm.count(), 15u);
}

TEST(CrossbarMatrix, StuckOpenClearsSingleCell) {
  DefectMap map(3, 3);
  map.setType(1, 1, DefectType::StuckOpen);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_FALSE(cm.test(1, 1));
  EXPECT_EQ(cm.count(), 8u);
}

TEST(CrossbarMatrix, StuckClosedClearsRowAndColumn) {
  DefectMap map(4, 4);
  map.setType(1, 2, DefectType::StuckClosed);
  const BitMatrix cm = crossbarMatrix(map);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FALSE(cm.test(1, c));
  for (std::size_t r = 0; r < 4; ++r) EXPECT_FALSE(cm.test(r, 2));
  EXPECT_EQ(cm.count(), 9u);  // 16 - 4 - 4 + 1
}

TEST(CrossbarMatrix, MatchesFig8Pattern) {
  // Build the Fig. 8(b) CM: 6x10 with specific stuck-open zeros.
  DefectMap map(6, 10);
  const std::pair<int, int> zeros[] = {{0, 1}, {0, 3}, {0, 8}, {2, 0}, {2, 1},
                                       {3, 1}, {3, 4}, {5, 3}, {5, 7}};
  for (const auto& [r, c] : zeros) map.setType(r, c, DefectType::StuckOpen);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_EQ(cm.count(), 60u - 9u);
  EXPECT_FALSE(cm.test(0, 1));
  EXPECT_TRUE(cm.test(1, 1));
}

}  // namespace
}  // namespace mcx
