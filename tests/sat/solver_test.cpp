// CDCL/DPLL core: verdicts against truth-table ground truth, assumption
// semantics, budgets, and cooperative interruption.
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mc/cancel.hpp"
#include "util/rng.hpp"

namespace mcx::sat {
namespace {

/// Ground truth by exhaustive assignment enumeration (vars <= 20).
bool bruteForceSat(const Cnf& cnf) {
  const int n = cnf.numVars();
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    bool all = true;
    for (std::size_t ci = 0; ci < cnf.numClauses() && all; ++ci) {
      bool clauseSat = false;
      for (const Lit l : cnf.clause(ci)) {
        const bool val = (m >> (varOf(l) - 1)) & 1;
        if ((l > 0) == val) {
          clauseSat = true;
          break;
        }
      }
      all = clauseSat;
    }
    if (all) return true;
  }
  return cnf.numClauses() == 0;
}

bool modelSatisfies(const Cnf& cnf, const std::vector<std::uint8_t>& model) {
  for (std::size_t ci = 0; ci < cnf.numClauses(); ++ci) {
    bool clauseSat = false;
    for (const Lit l : cnf.clause(ci))
      if ((l > 0) == (model[static_cast<std::size_t>(varOf(l))] != 0)) {
        clauseSat = true;
        break;
      }
    if (!clauseSat) return false;
  }
  return true;
}

TEST(SatTestSolver, EmptyFormulaIsSat) {
  Cnf cnf;
  cnf.addVar();
  const SolveResult r = solve(cnf);
  EXPECT_EQ(r.verdict, Verdict::Sat);
}

TEST(SatTestSolver, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.addVar();
  cnf.addClause({});
  EXPECT_EQ(solve(cnf).verdict, Verdict::Unsat);
}

TEST(SatTestSolver, UnitContradictionIsUnsat) {
  Cnf cnf;
  const Var v = cnf.addVar();
  cnf.addClause({v});
  cnf.addClause({-v});
  EXPECT_EQ(solve(cnf).verdict, Verdict::Unsat);
}

TEST(SatTestSolver, ModelSatisfiesEveryClause) {
  Cnf cnf;
  const Var a = cnf.addVar();
  const Var b = cnf.addVar();
  const Var c = cnf.addVar();
  cnf.addClause({a, b});
  cnf.addClause({-a, c});
  cnf.addClause({-b, -c});
  const SolveResult r = solve(cnf);
  ASSERT_EQ(r.verdict, Verdict::Sat);
  EXPECT_TRUE(modelSatisfies(cnf, r.model));
}

TEST(SatTestSolver, AgreesWithBruteForceOnRandom3Cnf) {
  // Random 3-CNF around the 4.2 clause/var ratio: a mix of SAT and UNSAT
  // instances, each checked against exhaustive enumeration, with both
  // learning enabled (CDCL) and disabled (DPLL).
  Rng rng(7);
  int sat = 0;
  int unsat = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 5 + static_cast<int>(rng.uniformInt(0, 7));
    const int clauses = static_cast<int>(4.2 * n);
    Cnf cnf;
    for (int v = 0; v < n; ++v) cnf.addVar();
    for (int ci = 0; ci < clauses; ++ci) {
      std::vector<Lit> lits;
      for (int k = 0; k < 3; ++k) {
        const Var v = 1 + static_cast<Var>(rng.uniformInt(0, n - 1));
        lits.push_back(rng.uniformInt(0, 1) != 0 ? v : -v);
      }
      cnf.addClause(lits);
    }
    const bool truth = bruteForceSat(cnf);
    truth ? ++sat : ++unsat;
    for (const bool learn : {true, false}) {
      SolverOptions opts;
      opts.learn = learn;
      const SolveResult r = solve(cnf, opts);
      ASSERT_EQ(r.verdict, truth ? Verdict::Sat : Verdict::Unsat)
          << "rep " << rep << " learn " << learn;
      if (truth) {
        EXPECT_TRUE(modelSatisfies(cnf, r.model));
      }
    }
  }
  // The ratio straddles the phase transition: both verdicts must occur or
  // the cross-check lost its teeth.
  EXPECT_GT(sat, 10);
  EXPECT_GT(unsat, 10);
}

TEST(SatTestSolver, AssumptionsRestrictAndConflict) {
  Cnf cnf;
  const Var a = cnf.addVar();
  const Var b = cnf.addVar();
  cnf.addClause({a, b});
  // Assuming both false contradicts the clause; assuming a true satisfies.
  EXPECT_EQ(solve(cnf, {}, {-a, -b}).verdict, Verdict::Unsat);
  const SolveResult r = solve(cnf, {}, {-a});
  ASSERT_EQ(r.verdict, Verdict::Sat);
  EXPECT_FALSE(r.model[static_cast<std::size_t>(a)]);
  EXPECT_TRUE(r.model[static_cast<std::size_t>(b)]);
  // An assumption that unit propagation already satisfied is a dummy level,
  // not a conflict.
  Cnf unitCnf;
  const Var u = unitCnf.addVar();
  unitCnf.addClause({u});
  EXPECT_EQ(solve(unitCnf, {}, {u}).verdict, Verdict::Sat);
  EXPECT_EQ(solve(unitCnf, {}, {-u}).verdict, Verdict::Unsat);
}

/// Pigeonhole PHP(h+1, h): h+1 pigeons into h holes — small enough to
/// refute, large enough to force real conflict work.
Cnf pigeonhole(int holes) {
  Cnf cnf;
  std::vector<std::vector<Var>> at(holes + 1);
  for (int p = 0; p <= holes; ++p)
    for (int h = 0; h < holes; ++h) at[p].push_back(cnf.addVar());
  for (int p = 0; p <= holes; ++p) {
    std::vector<Lit> alo(at[p].begin(), at[p].end());
    cnf.addClause(alo);
  }
  for (int h = 0; h < holes; ++h)
    for (int p = 0; p <= holes; ++p)
      for (int q = p + 1; q <= holes; ++q) cnf.addClause({-at[p][h], -at[q][h]});
  return cnf;
}

TEST(SatTestSolver, ConflictBudgetYieldsUnknownNotInterrupted) {
  const Cnf cnf = pigeonhole(7);
  SolverOptions opts;
  opts.conflictLimit = 10;
  const SolveResult r = solve(cnf, opts);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_FALSE(r.interrupted);
  EXPECT_GE(r.stats.conflicts, 10u);
}

TEST(SatTestSolver, PigeonholeRefutedAndRestartsFire) {
  const Cnf cnf = pigeonhole(5);
  const SolveResult r = solve(cnf);
  EXPECT_EQ(r.verdict, Verdict::Unsat);
  // PHP(6,5) needs well past kRestartBase conflicts: the Luby schedule
  // must have kicked in (and stayed deterministic — fixed stats).
  EXPECT_GT(r.stats.restarts, 0u);
  EXPECT_EQ(solve(cnf).stats.conflicts, r.stats.conflicts) << "solver must be deterministic";
}

TEST(SatTestSolver, InterruptPredicateStopsSolve) {
  const Cnf cnf = pigeonhole(8);
  SolverOptions opts;
  std::uint64_t polls = 0;
  opts.interrupt = [&polls] { return ++polls > 3; };
  const SolveResult r = solve(cnf, opts);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.interrupted);
}

TEST(SatTestSolver, CancelTokenStopsSolve) {
  const Cnf cnf = pigeonhole(8);
  CancelToken token;
  token.cancel();
  SolverOptions opts;
  opts.cancel = &token;
  const SolveResult r = solve(cnf, opts);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.stats.decisions, 0u) << "a pre-fired token stops before any work";
}

}  // namespace
}  // namespace mcx::sat
