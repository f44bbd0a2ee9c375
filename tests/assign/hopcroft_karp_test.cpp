#include "assign/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include "assign/munkres.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(HopcroftKarp, EmptyGraph) {
  const BitMatrix g(3, 3);
  const MatchingResult r = hopcroftKarp(g);
  EXPECT_EQ(r.size, 0u);
  EXPECT_FALSE(r.perfectForLeft(3));
}

TEST(HopcroftKarp, PerfectMatchingOnPermutation) {
  BitMatrix g(4, 4);
  g.set(0, 2);
  g.set(1, 0);
  g.set(2, 3);
  g.set(3, 1);
  const MatchingResult r = hopcroftKarp(g);
  EXPECT_EQ(r.size, 4u);
  EXPECT_TRUE(r.perfectForLeft(4));
  EXPECT_EQ(r.matchOfLeft, (std::vector<std::size_t>{2, 0, 3, 1}));
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // 0-{0,1}, 1-{0}: greedy 0->0 must be undone.
  BitMatrix g(2, 2);
  g.set(0, 0);
  g.set(0, 1);
  g.set(1, 0);
  const MatchingResult r = hopcroftKarp(g);
  EXPECT_EQ(r.size, 2u);
  EXPECT_EQ(r.matchOfLeft[0], 1u);
  EXPECT_EQ(r.matchOfLeft[1], 0u);
}

TEST(HopcroftKarp, DetectsHallViolation) {
  // Three left vertices share two right neighbors.
  BitMatrix g(3, 3);
  for (std::size_t l = 0; l < 3; ++l) {
    g.set(l, 0);
    g.set(l, 1);
  }
  const MatchingResult r = hopcroftKarp(g);
  EXPECT_EQ(r.size, 2u);
}

TEST(HopcroftKarp, RectangularRightSurplus) {
  BitMatrix g(2, 5);
  g.set(0, 4);
  g.set(1, 4);
  g.set(1, 2);
  const MatchingResult r = hopcroftKarp(g);
  EXPECT_EQ(r.size, 2u);
  EXPECT_TRUE(r.perfectForLeft(2));
}

TEST(HopcroftKarp, AgreesWithMunkresFeasibilityOnRandom) {
  Rng rng(77);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniformInt(0, 8));
    BitMatrix g(n, n);
    CostMatrix cost(n, n, 1);
    for (std::size_t l = 0; l < n; ++l)
      for (std::size_t r = 0; r < n; ++r)
        if (rng.bernoulli(0.35)) {
          g.set(l, r);
          cost.at(l, r) = 0;
        }
    const bool hkPerfect = hopcroftKarp(g).perfectForLeft(n);
    const bool munkresPerfect = munkresSolve(cost).cost == 0;
    EXPECT_EQ(hkPerfect, munkresPerfect) << "rep=" << rep;
  }
}

TEST(HopcroftKarp, WarmStartMatchesColdStartSize) {
  // The greedy maximal seed can change WHICH maximum matching comes out,
  // never its size — the success set of every mapper is warm/cold
  // invariant (the committed bench success counts rely on this).
  Rng rng(91);
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t rows = 1 + rng.uniformInt(0, 30);
    const std::size_t cols = 1 + rng.uniformInt(0, 40);
    BitMatrix adj(rows, cols);
    const double density = rng.uniform() * 0.6;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        if (rng.bernoulli(density)) adj.set(r, c);
    const MatchingResult cold = hopcroftKarp(adj, /*warmStart=*/false);
    const MatchingResult warm = hopcroftKarp(adj, /*warmStart=*/true);
    EXPECT_EQ(warm.size, cold.size) << "rep=" << rep;
    // The warm matching must still be a real matching on real edges.
    std::vector<bool> used(cols, false);
    std::size_t matched = 0;
    for (std::size_t l = 0; l < rows; ++l) {
      const std::size_t r = warm.matchOfLeft[l];
      if (r == MatchingResult::kUnmatched) continue;
      ++matched;
      ASSERT_TRUE(adj.test(l, r)) << "rep=" << rep;
      ASSERT_FALSE(used[r]) << "rep=" << rep;
      used[r] = true;
    }
    EXPECT_EQ(matched, warm.size) << "rep=" << rep;
  }
}

TEST(HopcroftKarp, WarmStartPerfectOnCleanAdjacency) {
  // All-ones adjacency (the clean crossbar): the greedy seed alone is a
  // perfect matching and no augmentation phases run.
  const BitMatrix adj(70, 70, true);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_TRUE(r.perfectForLeft(70));
  for (std::size_t l = 0; l < 70; ++l) EXPECT_EQ(r.matchOfLeft[l], l);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  Rng rng(78);
  BitMatrix g(40, 50);
  std::vector<std::vector<bool>> adj(40, std::vector<bool>(50, false));
  for (std::size_t l = 0; l < 40; ++l)
    for (std::size_t r = 0; r < 50; ++r)
      if (rng.bernoulli(0.2)) {
        g.set(l, r);
        adj[l][r] = true;
      }
  const MatchingResult m = hopcroftKarp(g);
  std::vector<bool> rightUsed(50, false);
  std::size_t matched = 0;
  for (std::size_t l = 0; l < 40; ++l) {
    const std::size_t r = m.matchOfLeft[l];
    if (r == MatchingResult::kUnmatched) continue;
    ++matched;
    EXPECT_TRUE(adj[l][r]);          // only real edges
    EXPECT_FALSE(rightUsed[r]);      // injective
    rightUsed[r] = true;
  }
  EXPECT_EQ(matched, m.size);
}

}  // namespace
}  // namespace mcx
