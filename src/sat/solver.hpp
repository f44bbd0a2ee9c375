// mcx::sat — a dependency-free CDCL/DPLL solver.
//
// Small by design: the matching formulas are a few hundred variables, so
// two-watched-literal propagation, activity-based branching, (optional)
// first-UIP clause learning and Luby restarts are enough — no clause
// deletion, no randomness. Determinism is a contract, not an accident:
// the restart schedule is a fixed sequence, branching
// picks the maximum-activity variable with lowest-index tie-break and every
// update is schedule-free, so equal inputs produce equal verdicts, models
// and statistics on any machine at any thread count (each solve is
// single-threaded; the cube driver owns the parallelism).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mc/cancel.hpp"
#include "sat/cnf.hpp"

namespace mcx::sat {

enum class Verdict { Sat, Unsat, Unknown };

struct SolverOptions {
  /// Give up (Verdict::Unknown, interrupted=false) after this many
  /// conflicts; 0 = unlimited. The budget is part of the deterministic
  /// input: the same limit yields the same verdict everywhere.
  std::uint64_t conflictLimit = 0;
  /// First-UIP clause learning with non-chronological backjumps. Off
  /// degrades to chronological DPLL (decision flipping) — the ablation
  /// knob for what learning buys at these sizes.
  bool learn = true;
  /// Cooperative cancellation, polled between decisions/conflicts. A fired
  /// token yields Unknown with interrupted=true.
  const CancelToken* cancel = nullptr;
  /// Extra interrupt predicate (the cube driver's sibling-SAT early exit);
  /// same effect as a fired token.
  std::function<bool()> interrupt;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned = 0;
  std::uint64_t restarts = 0;

  SolverStats& operator+=(const SolverStats& o) {
    decisions += o.decisions;
    propagations += o.propagations;
    conflicts += o.conflicts;
    learned += o.learned;
    restarts += o.restarts;
    return *this;
  }
};

struct SolveResult {
  Verdict verdict = Verdict::Unknown;
  /// Unknown because cancel/interrupt fired (vs the conflict budget).
  bool interrupted = false;
  /// model[v] = truth of variable v (index 0 unused); complete and valid
  /// exactly when verdict == Sat.
  std::vector<std::uint8_t> model;
  SolverStats stats;
};

/// Solve @p cnf under @p assumptions (literals treated as a forced decision
/// prefix — the cube driver passes each cube here). Unsat then means
/// "unsatisfiable under the assumptions".
SolveResult solve(const Cnf& cnf, const SolverOptions& opts = {},
                  const std::vector<Lit>& assumptions = {});

}  // namespace mcx::sat
