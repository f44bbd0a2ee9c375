#include "map/matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(RowMatching, RequiredOneNeedsFunctionalCell) {
  BitMatrix fm(1, 4), cm(2, 4, true);
  fm.set(0, 2);
  EXPECT_TRUE(rowMatches(fm, 0, cm, 0));
  cm.reset(1, 2);
  EXPECT_FALSE(rowMatches(fm, 0, cm, 1));
}

TEST(RowMatching, ZerosMatchAnything) {
  BitMatrix fm(1, 4), cm(1, 4);  // CM fully stuck-open
  EXPECT_TRUE(rowMatches(fm, 0, cm, 0));
}

TEST(MatchingMatrix, ZeroMeansCompatible) {
  BitMatrix fm(2, 3), cm(2, 3, true);
  fm.set(0, 0);
  fm.set(1, 2);
  cm.reset(0, 0);  // kills fm row 0 on cm row 0
  const CostMatrix m = buildMatchingMatrix(buildCandidateAdjacency(fm, cm));
  EXPECT_EQ(m.at(0, 0), 1);
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.at(1, 0), 0);
  EXPECT_EQ(m.at(1, 1), 0);
}

TEST(MatchingMatrix, RowSubsets) {
  // A sub-problem (FM row 2 against CM rows 0 and 2) reads its costs off
  // the full matrix.
  BitMatrix fm(3, 2), cm(3, 2, true);
  fm.set(2, 1);
  cm.reset(0, 1);
  const CostMatrix m = buildMatchingMatrix(buildCandidateAdjacency(fm, cm));
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(2, 0), 1);
  EXPECT_EQ(m.at(2, 2), 0);
}

TEST(VerifyMapping, AcceptsValidRejectsInvalid) {
  const Cover cover = parseSop("x1 + x2");
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  BitMatrix cm(3, fm.cols(), true);

  MappingResult ok;
  ok.success = true;
  ok.rowAssignment = {0, 1, 2};
  EXPECT_TRUE(verifyMapping(fm, cm, ok));

  MappingResult dup = ok;
  dup.rowAssignment = {0, 0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, dup));

  MappingResult wrongSize = ok;
  wrongSize.rowAssignment = {0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, wrongSize));

  MappingResult notSuccess = ok;
  notSuccess.success = false;
  EXPECT_FALSE(verifyMapping(fm, cm, notSuccess));

  cm.reset(1, fm.colOfPosLiteral(0));  // row 1 cannot host product x1 (row 0)
  MappingResult broken = ok;
  broken.rowAssignment = {1, 0, 2};
  EXPECT_FALSE(verifyMapping(fm, cm, broken));
}

TEST(VerifyMapping, HonorsInputPermutation) {
  const Cover cover = parseSop("x1", 2);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  BitMatrix cm(2, fm.cols(), true);
  cm.reset(0, fm.colOfPosLiteral(0));  // x1's own column is dead on row 0

  MappingResult direct;
  direct.success = true;
  direct.rowAssignment = {0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, direct));

  MappingResult permuted = direct;
  permuted.inputPermutation = {1, 0};  // route x1 through pair 1
  EXPECT_TRUE(verifyMapping(fm, cm, permuted));
}

TEST(CandidateAdjacency, AgreesWithRowMatches) {
  Rng rng(21);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t rows = 3 + rep % 5;
    const std::size_t cols = 70;  // multi-word rows
    BitMatrix fm(rows, cols), cm(rows + 2, cols);
    for (std::size_t r = 0; r < fm.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) fm.set(r, c, rng.bernoulli(0.2));
    for (std::size_t r = 0; r < cm.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) cm.set(r, c, rng.bernoulli(0.8));
    const BitMatrix adjacency = buildCandidateAdjacency(fm, cm);
    ASSERT_EQ(adjacency.rows(), fm.rows());
    ASSERT_EQ(adjacency.cols(), cm.rows());
    for (std::size_t i = 0; i < fm.rows(); ++i)
      for (std::size_t j = 0; j < cm.rows(); ++j)
        EXPECT_EQ(adjacency.test(i, j), rowMatches(fm, i, cm, j));
  }
}

TEST(MatchingMatrix, AdjacencyOverloadMatchesDirectConstruction) {
  Rng rng(5);
  BitMatrix fm(4, 9), cm(6, 9);
  for (std::size_t r = 0; r < fm.rows(); ++r)
    for (std::size_t c = 0; c < fm.cols(); ++c) fm.set(r, c, rng.bernoulli(0.3));
  for (std::size_t r = 0; r < cm.rows(); ++r)
    for (std::size_t c = 0; c < cm.cols(); ++c) cm.set(r, c, rng.bernoulli(0.7));
  const CostMatrix viaAdj = buildMatchingMatrix(buildCandidateAdjacency(fm, cm));
  ASSERT_EQ(viaAdj.rows(), fm.rows());
  ASSERT_EQ(viaAdj.cols(), cm.rows());
  for (std::size_t i = 0; i < fm.rows(); ++i)
    for (std::size_t j = 0; j < cm.rows(); ++j)
      EXPECT_EQ(viaAdj.at(i, j), rowMatches(fm, i, cm, j) ? 0 : 1);
}

TEST(FeasibleAssignment, HopcroftKarpAgreesWithMunkresOnRandomMatrices) {
  // Property: on a random 0/1 adjacency, the Hopcroft-Karp fast path reports
  // feasible exactly when Munkres finds a zero-cost assignment.
  Rng rng(31337);
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniformInt(0, 7));
    const std::size_t m = n + static_cast<std::size_t>(rng.uniformInt(0, 4));
    const double density = 0.1 + 0.8 * rng.uniform();
    BitMatrix adjacency(n, m);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (rng.bernoulli(density)) adjacency.set(i, j);

    const FeasibleAssignment fast = solveFeasibleAssignment(adjacency);
    const AssignmentResult exact = munkresSolve(buildMatchingMatrix(adjacency));
    EXPECT_EQ(fast.success, exact.cost == 0) << "rep=" << rep;

    if (fast.success) {
      // The returned assignment must be a valid system of distinct
      // representatives over set adjacency bits.
      ASSERT_EQ(fast.assignment.size(), n);
      std::vector<bool> used(m, false);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(fast.assignment[i], m);
        EXPECT_TRUE(adjacency.test(i, fast.assignment[i])) << "rep=" << rep;
        EXPECT_FALSE(used[fast.assignment[i]]) << "rep=" << rep;
        used[fast.assignment[i]] = true;
      }
    }
  }
}

TEST(CandidateAdjacency, ZeroColumnRowsFitEverything) {
  // Empty rows are subsets of anything: the oracle and the context agree.
  const BitMatrix fm(3, 0), cm(4, 0);
  const BitMatrix full = buildCandidateAdjacency(fm, cm);
  EXPECT_EQ(full.count(), 3u * 4u);
  MappingContext ctx;
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), full);
}

TEST(FeasibleAssignment, EmptyRowFailsBeforeSolving) {
  BitMatrix adjacency(3, 4, true);
  adjacency.setRow(1, false);
  EXPECT_FALSE(solveFeasibleAssignment(adjacency).success);
}

TEST(FeasibleAssignment, MoreRowsThanColumnsIsInfeasible) {
  const BitMatrix adjacency(4, 3, true);
  EXPECT_FALSE(solveFeasibleAssignment(adjacency).success);
}

// --- MappingContext: the adjacency read off the CM -------------------------

BitMatrix randomBits(std::size_t rows, std::size_t cols, double density, Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.bernoulli(density)) m.set(r, c);
  return m;
}

TEST(MappingContext, IncrementalAdjacencyBitIdenticalToFullRebuild) {
  // The context's CM-transpose build must agree with the pairwise fit-test
  // oracle on any (fm, cm): CMs derived from defect samples (stuck-closed
  // poisoning included) and CMs that come from no DefectMap, empty FM rows,
  // zero-column FMs, and dimensions straddling word boundaries.
  Rng rng(53);
  MappingContext reused;  // one context across every shape below
  const auto expectOracle = [&](const BitMatrix& fm, const BitMatrix& cm,
                                const std::string& where) {
    const BitMatrix full = buildCandidateAdjacency(fm, cm);
    MappingContext fresh;
    ASSERT_EQ(fresh.candidateAdjacency(fm, cm), full) << where;
    ASSERT_EQ(reused.candidateAdjacency(fm, cm), full) << where;
  };
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t fmRows = 1 + rng.uniformInt(0, 40);
    const std::size_t cols = 1 + rng.uniformInt(0, 130);
    const std::size_t cmRows = fmRows + rng.uniformInt(0, 8);
    const BitMatrix fm = randomBits(fmRows, cols, 0.1, rng);  // some rows all-zero
    const double open = rng.uniform() * 0.3;
    const double closed = rng.bernoulli(0.5) ? rng.uniform() * 0.05 : 0.0;
    const DefectMap defects = IidBernoulli(open, closed).sample(cmRows, cols, rng);
    expectOracle(fm, crossbarMatrix(defects),
                 "defects rep=" + std::to_string(rep) + " fm=" + std::to_string(fmRows) + "x" +
                     std::to_string(cols) +
                     " closed=" + std::to_string(defects.stuckClosedCount()));
  }
  for (int rep = 0; rep < 200; ++rep) {
    // A CM no DefectMap produced: random cells, random all-zero rows and
    // columns, and row counts on both sides of a word boundary.
    const std::size_t cmRows = rep % 4 == 3 ? 1 + rng.uniformInt(0, 140) : 63 + rep % 4;
    const std::size_t cols = rep % 10 == 0 ? 0 : 1 + rng.uniformInt(0, 130);
    const std::size_t fmRows = 1 + rng.uniformInt(0, cmRows - 1);
    const BitMatrix fm = randomBits(fmRows, cols, rng.uniform() * 0.2, rng);
    BitMatrix cm = randomBits(cmRows, cols, 0.6 + rng.uniform() * 0.4, rng);
    for (std::size_t r = 0; r < cmRows; ++r)
      if (rng.bernoulli(0.1)) cm.setRow(r, false);
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.bernoulli(0.1)) cm.setCol(c, false);
    expectOracle(fm, cm,
                 "raw rep=" + std::to_string(rep) + " fm=" + std::to_string(fmRows) + "x" +
                     std::to_string(cols) + " cm rows=" + std::to_string(cmRows));
  }
  // The column-permutation mapper hands one context a fresh permuted FM
  // per attempt.
  RandomSopOptions opts;
  opts.nin = 9;
  opts.nout = 2;
  opts.products = 20;
  const FunctionMatrix fm = buildFunctionMatrix(randomSop(opts, rng));
  const BitMatrix cm = crossbarMatrix(IidBernoulli(0.15, 0.01).sample(fm.rows(), fm.cols(), rng));
  std::vector<std::size_t> perm(fm.nin());
  for (std::size_t v = 0; v < perm.size(); ++v) perm[v] = v;
  for (int attempt = 0; attempt < 20; ++attempt) {
    rng.shuffle(perm);
    const FunctionMatrix permuted = fm.withInputPermutation(perm);
    expectOracle(permuted.bits(), cm, "permutation attempt=" + std::to_string(attempt));
  }
}

TEST(MappingContext, UnregisteredSampleFallsBackToFullRebuild) {
  // The context needs nothing but (fm, cm): no sample is ever registered.
  BitMatrix fm(3, 10), cm(4, 10, true);
  fm.set(0, 7);
  cm.reset(2, 7);
  MappingContext ctx;
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm, cm);
  EXPECT_EQ(adjacency, buildCandidateAdjacency(fm, cm));
}

TEST(MappingContext, RebindsWhenFmContentChangesAtTheSameAddress) {
  // Context reuse: the same FM object mutated in place between calls (the
  // shape of a new FM reallocated at the old one's address) must never be
  // served a stale adjacency.
  Rng rng(61);
  const BitMatrix cm = crossbarMatrix(IidBernoulli(0.2, 0.02).sample(8, 40, rng));
  BitMatrix fm(6, 40);
  for (std::size_t c = 0; c < 40; c += 3) fm.set(1, c);
  MappingContext ctx;
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
  // Same address, same dims, different bits: the context must notice.
  for (std::size_t c = 0; c < 40; c += 2) fm.set(4, c);
  fm.reset(1, 0);
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
}

}  // namespace
}  // namespace mcx
