// Cube-and-conquer driver: split generation, deterministic winner rule,
// pool-vs-sequential equivalence, and cancellation.
#include "sat/cube.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mc/cancel.hpp"
#include "mc/executor.hpp"
#include "sat/cnf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcx::sat {
namespace {

BitMatrix randomAdjacency(Rng& rng, std::size_t rows, std::size_t cols, double density) {
  BitMatrix adj(rows, cols, false);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.uniform() < density) adj.set(i, j);
  return adj;
}

TEST(SatTestCube, DepthZeroYieldsSingleEmptyCube) {
  Cnf cnf;
  const Var a = cnf.addVar();
  cnf.addClause({a});
  const std::vector<Cube> cubes = generateCubes(cnf, 0, cnf.numVars());
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_TRUE(cubes[0].lits.empty());
}

TEST(SatTestCube, DepthSaturatesAtOccurringVariables) {
  Cnf cnf;
  const Var a = cnf.addVar();
  cnf.addVar();  // never occurs
  cnf.addClause({a});
  const std::vector<Cube> cubes = generateCubes(cnf, 4, cnf.numVars());
  ASSERT_EQ(cubes.size(), 2u) << "only one variable occurs: depth saturates at 1";
  EXPECT_EQ(cubes[0].lits, std::vector<Lit>{a}) << "cube 0 is the all-positive branch";
  EXPECT_EQ(cubes[1].lits, std::vector<Lit>{-a});
}

TEST(SatTestCube, SplitPrefersHighestOccurrence) {
  Cnf cnf;
  const Var a = cnf.addVar();
  const Var b = cnf.addVar();
  const Var c = cnf.addVar();
  cnf.addClause({a, b});
  cnf.addClause({-b, c});
  cnf.addClause({b, c});
  const std::vector<Cube> cubes = generateCubes(cnf, 1, cnf.numVars());
  ASSERT_EQ(cubes.size(), 2u);
  EXPECT_EQ(varOf(cubes[0].lits[0]), b) << "b occurs three times, the contention maximum";
}

TEST(SatTestCube, MatchingSplitUsesDistinctRowsAndColumns) {
  // A dense adjacency: plain occurrence counting would pick same-row
  // variables (adjacent indices); the matching-aware overload must not.
  Rng rng(5);
  const BitMatrix adj = randomAdjacency(rng, 8, 8, 0.9);
  const MatchingCnf enc = encodeMatching(adj);
  const std::vector<Cube> cubes = generateCubes(enc, 3);
  ASSERT_EQ(cubes.size(), 8u);
  std::set<std::uint32_t> rows;
  std::set<std::uint32_t> cols;
  for (const Lit l : cubes[0].lits) {
    const auto [i, j] = enc.pairOf[static_cast<std::size_t>(varOf(l)) - 1];
    rows.insert(i);
    cols.insert(j);
  }
  EXPECT_EQ(rows.size(), 3u) << "split variables must come from distinct FM rows";
  EXPECT_EQ(cols.size(), 3u) << "split variables must come from distinct CM rows";
}

TEST(SatTestCube, RequiresAtLeastOneCube) {
  Cnf cnf;
  cnf.addVar();
  EXPECT_THROW(solveCubes(cnf, {}, {}), InvalidArgument);
}

TEST(SatTestCube, AllCubesUnsatProvesUnsat) {
  // 3 rows competing for 2 usable columns: Hall violation, every cube must
  // refute and the aggregate must be a proof, not a guess.
  BitMatrix adj(3, 3, false);
  for (std::size_t i = 0; i < 3; ++i) {
    adj.set(i, 0);
    adj.set(i, 1);
  }
  const MatchingCnf enc = encodeMatching(adj);
  const std::vector<Cube> cubes = generateCubes(enc, 2);
  const CubeOutcome out = solveCubes(enc.cnf, cubes, {});
  EXPECT_EQ(out.verdict, Verdict::Unsat);
  EXPECT_EQ(out.cubesSolved, cubes.size());
  EXPECT_FALSE(out.interrupted);
}

TEST(SatTestCube, PoolAndSequentialAgreeOnWinnerAndModel) {
  // The determinism contract: winning cube, model, and verdict identical
  // with no pool, a small pool, and a big pool — across a batch of random
  // feasible and infeasible instances.
  Rng rng(11);
  ExecutorPool small(2);
  ExecutorPool big(8);
  int satSeen = 0;
  int unsatSeen = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const BitMatrix adj = randomAdjacency(rng, 7, 7, 0.25 + 0.4 * rng.uniform());
    const MatchingCnf enc = encodeMatching(adj);
    if (enc.trivialUnsat) continue;
    const std::vector<Cube> cubes = generateCubes(enc, 2);
    const CubeOutcome seq = solveCubes(enc.cnf, cubes, {});
    const CubeOutcome par2 = solveCubes(enc.cnf, cubes, {}, &small);
    const CubeOutcome par8 = solveCubes(enc.cnf, cubes, {}, &big);
    ASSERT_EQ(seq.verdict, par2.verdict) << "rep " << rep;
    ASSERT_EQ(seq.verdict, par8.verdict) << "rep " << rep;
    if (seq.verdict == Verdict::Sat) {
      ++satSeen;
      EXPECT_EQ(seq.winningCube, par2.winningCube) << "rep " << rep;
      EXPECT_EQ(seq.winningCube, par8.winningCube) << "rep " << rep;
      EXPECT_EQ(seq.model, par2.model) << "rep " << rep;
      EXPECT_EQ(seq.model, par8.model) << "rep " << rep;
    } else {
      ++unsatSeen;
    }
  }
  EXPECT_GT(satSeen, 5);
  EXPECT_GT(unsatSeen, 5);
}

TEST(SatTestCube, FiredTokenYieldsInterruptedUnknown) {
  Rng rng(3);
  const BitMatrix adj = randomAdjacency(rng, 6, 6, 0.5);
  const MatchingCnf enc = encodeMatching(adj);
  CancelToken token;
  token.cancel();
  SolverOptions base;
  base.cancel = &token;
  const CubeOutcome out = solveCubes(enc.cnf, generateCubes(enc, 2), base);
  EXPECT_EQ(out.verdict, Verdict::Unknown);
  EXPECT_TRUE(out.interrupted);
}

TEST(SatTestCube, BudgetExhaustionIsNotInterrupted) {
  // A formula hard enough that 1-conflict budgets cannot resolve it: the
  // outcome must be Unknown with interrupted=false (budget, not cancel).
  BitMatrix adj(8, 8, true);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 2; j < 8; ++j) adj.reset(i, j);  // 4 rows into 2 columns
  const MatchingCnf enc = encodeMatching(adj);
  SolverOptions base;
  base.conflictLimit = 1;
  const CubeOutcome out = solveCubes(enc.cnf, generateCubes(enc, 1), base);
  EXPECT_NE(out.verdict, Verdict::Sat);
  if (out.verdict == Verdict::Unknown) {
    EXPECT_FALSE(out.interrupted);
  }
}

}  // namespace
}  // namespace mcx::sat
