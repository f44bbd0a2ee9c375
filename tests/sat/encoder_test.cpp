// Matching encoder: exhaustive cross-checks against brute-force matching
// and Hopcroft-Karp, model round-trips, and the SAT => feasible property.
#include "sat/cnf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "logic/sop_parser.hpp"
#include "map/matching.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx::sat {
namespace {

BitMatrix adjacencyFromMask(std::size_t rows, std::size_t cols, std::uint32_t mask) {
  BitMatrix adj(rows, cols, false);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if ((mask >> (i * cols + j)) & 1) adj.set(i, j);
  return adj;
}

/// Brute force: does an injective row -> column assignment exist along set
/// adjacency bits? (rows <= cols, all rows must be assigned.)
bool bruteForceMatch(const BitMatrix& adj) {
  std::vector<std::size_t> cols(adj.cols());
  std::iota(cols.begin(), cols.end(), 0);
  do {
    bool ok = true;
    for (std::size_t i = 0; i < adj.rows() && ok; ++i) ok = adj.test(i, cols[i]);
    if (ok) return true;
  } while (std::next_permutation(cols.begin(), cols.end()));
  return false;
}

/// Decoded assignment is valid: in-range, on set bits, pairwise distinct.
void expectValidAssignment(const BitMatrix& adj, const std::vector<std::size_t>& assignment) {
  ASSERT_EQ(assignment.size(), adj.rows());
  std::vector<std::uint8_t> used(adj.cols(), 0);
  for (std::size_t i = 0; i < adj.rows(); ++i) {
    ASSERT_LT(assignment[i], adj.cols());
    EXPECT_TRUE(adj.test(i, assignment[i])) << "row " << i;
    EXPECT_FALSE(used[assignment[i]]) << "column reused at row " << i;
    used[assignment[i]] = 1;
  }
}

Verdict verdictOf(const BitMatrix& adj, std::vector<std::size_t>* assignment = nullptr) {
  const MatchingCnf enc = encodeMatching(adj);
  if (enc.trivialUnsat) return Verdict::Unsat;
  const SolveResult r = solve(enc.cnf);
  if (r.verdict == Verdict::Sat && assignment != nullptr) {
    EXPECT_TRUE(decodeModel(enc, r.model, *assignment));
  }
  return r.verdict;
}

TEST(SatTestEncoder, EmptyRowIsTrivialUnsat) {
  BitMatrix adj(2, 2, false);
  adj.set(0, 0);
  const MatchingCnf enc = encodeMatching(adj);
  EXPECT_TRUE(enc.trivialUnsat);
  EXPECT_TRUE(enc.cnf.hasEmptyClause());
  EXPECT_EQ(solve(enc.cnf).verdict, Verdict::Unsat);
}

TEST(SatTestEncoder, SingleCandidateBecomesUnit) {
  // Stuck-closed poisoning folds into the adjacency as shrunken candidate
  // sets; a row left with one candidate must pin it in every model.
  BitMatrix adj(2, 2, true);
  adj.reset(0, 1);  // row 0 can only sit on column 0
  std::vector<std::size_t> assignment;
  ASSERT_EQ(verdictOf(adj, &assignment), Verdict::Sat);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
}

TEST(SatTestEncoder, VarMintingIsRowMajorOverSetBits) {
  BitMatrix adj(2, 3, false);
  adj.set(0, 1);
  adj.set(0, 2);
  adj.set(1, 0);
  const MatchingCnf enc = encodeMatching(adj);
  EXPECT_EQ(enc.numAssignVars, 3);
  EXPECT_EQ(enc.varFor(0, 1), 1);
  EXPECT_EQ(enc.varFor(0, 2), 2);
  EXPECT_EQ(enc.varFor(1, 0), 3);
  EXPECT_EQ(enc.varFor(0, 0), 0);
  EXPECT_EQ(enc.pairOf[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
}

TEST(SatTestEncoder, Exhaustive3x3AgainstBruteForceAndHopcroftKarp) {
  for (std::uint32_t mask = 0; mask < (1u << 9); ++mask) {
    const BitMatrix adj = adjacencyFromMask(3, 3, mask);
    std::vector<std::size_t> assignment;
    const Verdict v = verdictOf(adj, &assignment);
    ASSERT_NE(v, Verdict::Unknown);
    const bool truth = bruteForceMatch(adj);
    ASSERT_EQ(v == Verdict::Sat, truth) << "mask " << mask;
    ASSERT_EQ(solveFeasibleAssignment(adj).success, truth) << "mask " << mask;
    if (truth) expectValidAssignment(adj, assignment);
  }
}

TEST(SatTestEncoder, SatImpliesFeasibleNeverReverse) {
  // Property: a SAT verdict always implies Hopcroft-Karp feasibility, and
  // an Unsat verdict always implies infeasibility — on random rectangular
  // adjacencies (rows <= cols) across densities.
  Rng rng(23);
  int satSeen = 0;
  int unsatSeen = 0;
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t rows = 1 + rng.uniformInt(0, 5);
    const std::size_t cols = rows + rng.uniformInt(0, 3);
    const double density = 0.15 + 0.5 * rng.uniform();
    BitMatrix adj(rows, cols, false);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        if (rng.uniform() < density) adj.set(i, j);
    const Verdict v = verdictOf(adj);
    const bool feasible = solveFeasibleAssignment(adj).success;
    ASSERT_NE(v, Verdict::Unknown);
    ASSERT_EQ(v == Verdict::Sat, feasible) << "rep " << rep;
    (v == Verdict::Sat ? satSeen : unsatSeen)++;
  }
  EXPECT_GT(satSeen, 20);
  EXPECT_GT(unsatSeen, 20);
}

TEST(SatTestEncoder, LadderEncodingOnWideGroups) {
  // 9 candidates per group exceeds the pairwise threshold: the Sinz ladder
  // path must mint auxiliaries and still produce exact verdicts.
  BitMatrix adj(9, 9, true);
  const MatchingCnf enc = encodeMatching(adj);
  EXPECT_GT(enc.cnf.numVars(), enc.numAssignVars) << "ladder auxiliaries expected";
  std::vector<std::size_t> assignment;
  ASSERT_EQ(verdictOf(adj, &assignment), Verdict::Sat);
  expectValidAssignment(adj, assignment);

  // Same ladder groups, but a dead 3x3 corner forces a Hall violation:
  // rows {0,1,2} only fit columns {0,1}..
  BitMatrix hall(adj);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 2; j < 9; ++j) hall.reset(i, j);
  EXPECT_EQ(verdictOf(hall), Verdict::Unsat);
}

TEST(SatEncoderExhaustiveTest, EveryDefectMapOn4x4CrossbarMatchesHopcroftKarp) {
  // Every stuck-open pattern of a 4x4 crossbar (2^16 defect maps) against
  // a fixed 4-term function matrix: the full mapper-facing pipeline
  // (candidate adjacency -> encode -> solve -> decode) must agree with
  // Hopcroft-Karp sample by sample. Kept out of the sanitizer filters by
  // suite name — it is an exhaustive sweep, not a data-race probe.
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x1 x3 + x2 x3"));
  ASSERT_EQ(fm.rows(), 4u);
  MappingContext ctx;
  std::size_t feasibleSeen = 0;
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    BitMatrix cm(4, fm.cols(), true);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4 && j < fm.cols(); ++j)
        if ((mask >> (i * 4 + j)) & 1) cm.reset(i, j);
    const BitMatrix& adj = ctx.candidateAdjacency(fm.bits(), cm);
    const bool feasible = solveFeasibleAssignment(adj).success;
    std::vector<std::size_t> assignment;
    const Verdict v = verdictOf(adj, &assignment);
    ASSERT_EQ(v == Verdict::Sat, feasible) << "mask " << mask;
    if (feasible) {
      ++feasibleSeen;
      expectValidAssignment(adj, assignment);
    }
  }
  EXPECT_GT(feasibleSeen, 0u);
  EXPECT_LT(feasibleSeen, std::size_t{1} << 16);
}

}  // namespace
}  // namespace mcx::sat
