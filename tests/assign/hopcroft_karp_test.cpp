#include "assign/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assign/munkres.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

/// Kuhn's augmenting-path matching, one edge at a time: the size reference.
std::size_t kuhnSize(const BitMatrix& adj) {
  std::vector<std::size_t> owner(adj.cols(), MatchingResult::kUnmatched);
  std::vector<bool> visited;
  const auto augment = [&](auto&& self, std::size_t l) -> bool {
    for (std::size_t r = 0; r < adj.cols(); ++r) {
      if (!adj.test(l, r) || visited[r]) continue;
      visited[r] = true;
      if (owner[r] == MatchingResult::kUnmatched || self(self, owner[r])) {
        owner[r] = l;
        return true;
      }
    }
    return false;
  };
  std::size_t size = 0;
  for (std::size_t l = 0; l < adj.rows(); ++l) {
    visited.assign(adj.cols(), false);
    if (augment(augment, l)) ++size;
  }
  return size;
}

/// The layered Hopcroft-Karp walked edge by edge: the optional greedy seed
/// (each row takes its first free column), a BFS that layers every
/// reachable row, and a DFS that steps through a column if it is free or
/// its partner is on the next layer, dropping rows whose DFS fails.
/// hopcroftKarp must return exactly this matching, so every mapper's row
/// assignment stays what the edge-by-edge walk gives.
std::vector<std::size_t> edgeWalkMatching(const BitMatrix& adj, bool warmStart) {
  constexpr std::size_t kNone = MatchingResult::kUnmatched;
  std::vector<std::size_t> matchL(adj.rows(), kNone), matchR(adj.cols(), kNone);
  std::vector<std::size_t> dist(adj.rows());
  if (warmStart)
    for (std::size_t l = 0; l < adj.rows(); ++l)
      for (std::size_t r = 0; r < adj.cols(); ++r)
        if (adj.test(l, r) && matchR[r] == kNone) {
          matchL[l] = r;
          matchR[r] = l;
          break;
        }
  const auto bfs = [&] {
    std::vector<std::size_t> queue;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      dist[l] = matchL[l] == kNone ? 0 : kNone;
      if (matchL[l] == kNone) queue.push_back(l);
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (std::size_t r = 0; r < adj.cols(); ++r) {
        if (!adj.test(queue[head], r)) continue;
        const std::size_t next = matchR[r];
        if (next == kNone) {
          found = true;
        } else if (dist[next] == kNone) {
          dist[next] = dist[queue[head]] + 1;
          queue.push_back(next);
        }
      }
    return found;
  };
  const auto dfs = [&](auto&& self, std::size_t l) -> bool {
    for (std::size_t r = 0; r < adj.cols(); ++r) {
      if (!adj.test(l, r)) continue;
      const std::size_t next = matchR[r];
      if (next == kNone || (dist[next] == dist[l] + 1 && self(self, next))) {
        matchL[l] = r;
        matchR[r] = l;
        return true;
      }
    }
    dist[l] = kNone;
    return false;
  };
  while (bfs())
    for (std::size_t l = 0; l < adj.rows(); ++l)
      if (matchL[l] == kNone) dfs(dfs, l);
  return matchL;
}

/// Warm and cold hopcroftKarp on @p adj: the Kuhn size, a valid matching
/// on real edges, and exactly the edge-by-edge walk's matching.
void expectMatchesReferences(const BitMatrix& adj, const std::string& label) {
  const std::size_t size = kuhnSize(adj);
  for (const bool warm : {true, false}) {
    const MatchingResult m = hopcroftKarp(adj, warm);
    EXPECT_EQ(m.size, size) << label << " warm=" << warm;
    ASSERT_EQ(m.matchOfLeft.size(), adj.rows()) << label;
    std::vector<bool> used(adj.cols(), false);
    std::size_t matched = 0;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      const std::size_t r = m.matchOfLeft[l];
      if (r == MatchingResult::kUnmatched) continue;
      ++matched;
      ASSERT_LT(r, adj.cols()) << label;
      ASSERT_TRUE(adj.test(l, r)) << label << " warm=" << warm;
      ASSERT_FALSE(used[r]) << label << " warm=" << warm;
      used[r] = true;
    }
    EXPECT_EQ(matched, m.size) << label << " warm=" << warm;
    EXPECT_EQ(m.matchOfLeft, edgeWalkMatching(adj, warm)) << label << " warm=" << warm;
  }
}

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

TEST(HopcroftKarp, WordBoundariesAgainstReferences) {
  // Column counts on both sides of every 64-bit word boundary, rows below,
  // at and above the column count, densities from nearly empty to nearly
  // full.
  Rng rng(2018);
  for (const std::size_t cols : {1, 63, 64, 65, 127, 128, 130, 200}) {
    for (const std::size_t rows : {cols / 2 + 1, cols, cols + 3}) {
      for (const double density : {0.02, 0.1, 0.3, 0.6, 0.95}) {
        BitMatrix adj(rows, cols);
        for (std::size_t l = 0; l < rows; ++l)
          for (std::size_t r = 0; r < cols; ++r)
            if (rng.bernoulli(density)) adj.set(l, r);
        expectMatchesReferences(adj, std::to_string(rows) + "x" + std::to_string(cols) +
                                         " p=" + std::to_string(density));
      }
    }
  }
}

TEST(HopcroftKarp, NearPerfectAdjacenciesAgainstReferences) {
  // The Monte Carlo regime: an all-ones adjacency (a clean crossbar) minus
  // a few dead columns and a few tight rows whose only candidates the
  // greedy seed has often handed to earlier rows, so the seed leaves rows
  // unmatched and the augmenting search has to repair them.
  Rng rng(84);
  std::size_t seedShort = 0;
  std::size_t cases = 0;
  for (const std::size_t cols : {63, 64, 65, 127, 128, 130, 200}) {
    for (int rep = 0; rep < 6; ++rep) {
      const std::size_t rows = cols - rng.uniformInt(0, 2);
      BitMatrix adj(rows, cols, true);
      const std::size_t deadCols = rng.uniformInt(0, 2);
      for (std::size_t k = 0; k < deadCols; ++k) adj.setCol(rng.uniformInt(0, cols - 1), false);
      const std::size_t tightRows = rng.uniformInt(1, 8);
      for (std::size_t k = 0; k < tightRows; ++k) {
        const std::size_t l = rng.uniformInt(rows / 2, rows - 1);
        adj.setRow(l, false);
        for (std::size_t keep = rng.uniformInt(1, 3); keep > 0; --keep)
          adj.set(l, rng.uniformInt(0, cols - 1));
      }
      std::size_t seedSize = 0;  // the greedy seed: each row takes its first free column
      std::vector<bool> taken(cols, false);
      for (std::size_t l = 0; l < rows; ++l)
        for (std::size_t r = 0; r < cols; ++r)
          if (adj.test(l, r) && !taken[r]) {
            taken[r] = true;
            ++seedSize;
            break;
          }
      const std::size_t unmatched = rows - seedSize;
      if (unmatched >= 1 && unmatched <= 8) ++seedShort;
      ++cases;
      expectMatchesReferences(adj, std::to_string(rows) + "x" + std::to_string(cols) +
                                       " rep=" + std::to_string(rep));
    }
  }
  // The family must actually sit in that regime, not in the seed-perfect one.
  EXPECT_GE(seedShort * 2, cases);
}

}  // namespace
}  // namespace mcx
