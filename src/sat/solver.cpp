#include "sat/solver.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/error.hpp"

namespace mcx::sat {

namespace {

constexpr std::int32_t kNoReason = -1;

/// Restart intervals follow the Luby sequence (1, 1, 2, 1, 1, 2, 4, ...)
/// scaled by kRestartBase conflicts — the standard heavy-tail cure, and a
/// fixed sequence, so restarts cost nothing in determinism.
constexpr std::uint64_t kRestartBase = 100;

std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1;
  std::uint32_t seq = 0;
  while (size < i + 1) {
    size = 2 * size + 1;
    ++seq;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

class Solver {
public:
  Solver(const Cnf& cnf, const SolverOptions& opts) : opts_(opts), nVars_(cnf.numVars()) {
    assigns_.assign(nVars_ + 1, 0);
    level_.assign(nVars_ + 1, 0);
    reason_.assign(nVars_ + 1, kNoReason);
    seen_.assign(nVars_ + 1, 0);
    activity_.assign(nVars_ + 1, 0.0);
    // Initial phase true: on exactly-one-constrained encodings (the
    // matching CNF) a positive decision commits one group member and the
    // at-most-one clauses sweep the rest of its row and column away in
    // unit propagation — the classic constructive matching search. (A
    // false-first default instead whittles candidates away one by one and
    // degenerates into exponential thrashing on feasible instances.)
    // Phase saving takes over after the first assignment.
    phase_.assign(nVars_ + 1, 1);
    watches_.assign(2 * static_cast<std::size_t>(nVars_), {});
    trail_.reserve(nVars_);

    // Normalize each input clause (sorted, deduplicated, tautologies
    // dropped) so the watch invariants below never meet a repeated
    // literal. Determinism: normalization is input-only.
    std::vector<Lit> norm;
    for (std::size_t ci = 0; ci < cnf.numClauses() && !rootConflict_; ++ci) {
      const std::span<const Lit> in = cnf.clause(ci);
      norm.assign(in.begin(), in.end());
      std::sort(norm.begin(), norm.end(),
                [](Lit a, Lit b) { return varOf(a) != varOf(b) ? varOf(a) < varOf(b) : a < b; });
      norm.erase(std::unique(norm.begin(), norm.end()), norm.end());
      bool taut = false;
      for (std::size_t k = 0; k + 1 < norm.size(); ++k)
        if (norm[k] == -norm[k + 1]) {
          taut = true;
          break;
        }
      if (taut) continue;
      if (norm.empty()) {
        rootConflict_ = true;
      } else if (norm.size() == 1) {
        if (!enqueueRoot(norm[0])) rootConflict_ = true;
      } else {
        addClauseInternal(norm);
      }
    }
  }

  SolveResult run(const std::vector<Lit>& assumptions) {
    SolveResult res;
    if (rootConflict_) return finish(res, Verdict::Unsat);
    if (externalStop()) return interrupted(res);

    for (;;) {
      const std::int32_t confl = propagate();
      if (confl != kNoReason) {
        ++stats_.conflicts;
        varInc_ *= (1.0 / 0.95);
        // Every decision in scope is an assumption (or the root level):
        // the formula is unsatisfiable under the assumption prefix.
        if (decisionLevel() <= assumptions.size()) return finish(res, Verdict::Unsat);
        if (opts_.learn) {
          learnFromConflict(confl);
        } else {
          // Chronological DPLL: flip the deepest decision, re-asserted as
          // an implied literal of the parent level so the subtree is never
          // revisited.
          const Lit dec = trail_[trailLim_[decisionLevel() - 1]];
          cancelUntil(decisionLevel() - 1);
          uncheckedEnqueue(-dec, kNoReason);
        }
        if (opts_.conflictLimit != 0 && stats_.conflicts >= opts_.conflictLimit)
          return finish(res, Verdict::Unknown);
        if ((stats_.conflicts & 0xF) == 0 && externalStop()) return interrupted(res);
        // Luby restart (learning mode only — learned clauses carry the
        // progress across the restart; plain DPLL would retrace the exact
        // same tree forever). Assumption levels are kept.
        if (opts_.learn && ++sinceRestart_ >= kRestartBase * luby(stats_.restarts)) {
          sinceRestart_ = 0;
          ++stats_.restarts;
          cancelUntil(assumptions.size());
        }
        continue;
      }

      if ((++polls_ & 0x3F) == 0 && externalStop()) return interrupted(res);

      // Re-establish the assumption prefix: decision level k+1 carries
      // assumption k (a dummy level when it already holds).
      Lit decision = 0;
      while (decisionLevel() < assumptions.size()) {
        const Lit a = assumptions[decisionLevel()];
        MCX_REQUIRE(a != 0 && varOf(a) <= nVars_, "sat::solve: assumption out of range");
        const int v = value(a);
        if (v > 0) {
          trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
          continue;
        }
        if (v < 0) return finish(res, Verdict::Unsat);
        decision = a;
        break;
      }
      if (decision == 0) {
        const Var next = pickBranchVar();
        if (next == 0) {
          res.model.assign(static_cast<std::size_t>(nVars_) + 1, 0);
          for (Var v = 1; v <= nVars_; ++v) res.model[static_cast<std::size_t>(v)] = assigns_[v] > 0;
          return finish(res, Verdict::Sat);
        }
        ++stats_.decisions;
        decision = phase_[next] ? next : -next;
      }
      trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      uncheckedEnqueue(decision, kNoReason);
    }
  }

private:
  struct Clause {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };
  struct Watch {
    std::uint32_t clause = 0;
    Lit blocker = 0;
  };

  static std::size_t idx(Lit l) {
    return 2 * (static_cast<std::size_t>(varOf(l)) - 1) + (l < 0 ? 1 : 0);
  }
  int value(Lit l) const {
    const int a = assigns_[varOf(l)];
    return l > 0 ? a : -a;
  }
  std::size_t decisionLevel() const { return trailLim_.size(); }

  bool externalStop() const {
    if (opts_.cancel != nullptr && opts_.cancel->stopRequested()) return true;
    return opts_.interrupt && opts_.interrupt();
  }

  SolveResult finish(SolveResult& res, Verdict v) {
    res.verdict = v;
    res.stats = stats_;
    return std::move(res);
  }
  SolveResult interrupted(SolveResult& res) {
    res.interrupted = true;
    return finish(res, Verdict::Unknown);
  }

  std::uint32_t addClauseInternal(const std::vector<Lit>& lits) {
    const std::uint32_t ci = static_cast<std::uint32_t>(clauses_.size());
    clauses_.push_back({static_cast<std::uint32_t>(arena_.size()),
                        static_cast<std::uint32_t>(lits.size())});
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    watches_[idx(lits[0])].push_back({ci, lits[1]});
    watches_[idx(lits[1])].push_back({ci, lits[0]});
    return ci;
  }

  bool enqueueRoot(Lit p) {
    const int v = value(p);
    if (v < 0) return false;
    if (v == 0) uncheckedEnqueue(p, kNoReason);
    return true;
  }

  void uncheckedEnqueue(Lit p, std::int32_t from) {
    const Var v = varOf(p);
    assigns_[v] = p > 0 ? 1 : -1;
    level_[v] = static_cast<std::int32_t>(decisionLevel());
    reason_[v] = from;
    phase_[v] = p > 0;  // phase saving
    trail_.push_back(p);
  }

  void cancelUntil(std::size_t lvl) {
    if (decisionLevel() <= lvl) return;
    for (std::size_t c = trail_.size(); c > trailLim_[lvl]; --c) {
      const Var v = varOf(trail_[c - 1]);
      assigns_[v] = 0;
      reason_[v] = kNoReason;
    }
    trail_.resize(trailLim_[lvl]);
    qhead_ = trail_.size();
    trailLim_.resize(lvl);
  }

  /// Two-watched-literal unit propagation. Returns the conflicting clause
  /// index, kNoReason when a fixpoint is reached.
  std::int32_t propagate() {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++stats_.propagations;
      std::vector<Watch>& ws = watches_[idx(-p)];
      std::size_t keep = 0;
      for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const Watch w = ws[wi];
        if (value(w.blocker) > 0) {
          ws[keep++] = w;
          continue;
        }
        const Clause& c = clauses_[w.clause];
        Lit* lits = arena_.data() + c.off;
        if (lits[0] == -p) std::swap(lits[0], lits[1]);
        if (value(lits[0]) > 0) {
          ws[keep++] = {w.clause, lits[0]};
          continue;
        }
        bool moved = false;
        for (std::uint32_t k = 2; k < c.len; ++k) {
          if (value(lits[k]) >= 0) {
            std::swap(lits[1], lits[k]);
            watches_[idx(lits[1])].push_back({w.clause, lits[0]});
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[keep++] = {w.clause, lits[0]};
        if (value(lits[0]) < 0) {
          // Conflict: keep the remaining watches and stop propagating.
          for (std::size_t rest = wi + 1; rest < ws.size(); ++rest) ws[keep++] = ws[rest];
          ws.resize(keep);
          qhead_ = trail_.size();
          return static_cast<std::int32_t>(w.clause);
        }
        uncheckedEnqueue(lits[0], static_cast<std::int32_t>(w.clause));
      }
      ws.resize(keep);
    }
    return kNoReason;
  }

  void bump(Var v) {
    if ((activity_[v] += varInc_) > 1e100) {
      for (Var u = 1; u <= nVars_; ++u) activity_[u] *= 1e-100;
      varInc_ *= 1e-100;
    }
  }

  /// First-UIP conflict analysis + backjump + learned-clause attach.
  void learnFromConflict(std::int32_t confl) {
    learnt_.clear();
    learnt_.push_back(0);  // slot for the asserting literal
    int pathC = 0;
    Lit p = 0;
    std::size_t index = trail_.size();
    do {
      const Clause& c = clauses_[static_cast<std::size_t>(confl)];
      const Lit* lits = arena_.data() + c.off;
      for (std::uint32_t k = (p == 0 ? 0 : 1); k < c.len; ++k) {
        const Lit q = lits[k];
        const Var v = varOf(q);
        if (seen_[v] || level_[v] == 0) continue;
        seen_[v] = 1;
        bump(v);
        if (level_[v] >= static_cast<std::int32_t>(decisionLevel()))
          ++pathC;
        else
          learnt_.push_back(q);
      }
      while (!seen_[varOf(trail_[index - 1])]) --index;
      --index;
      p = trail_[index];
      confl = reason_[varOf(p)];
      seen_[varOf(p)] = 0;
      --pathC;
    } while (pathC > 0);
    learnt_[0] = -p;

    std::size_t btLevel = 0;
    std::size_t maxAt = 1;
    for (std::size_t k = 1; k < learnt_.size(); ++k) {
      const std::size_t lvl = static_cast<std::size_t>(level_[varOf(learnt_[k])]);
      if (lvl > btLevel) {
        btLevel = lvl;
        maxAt = k;
      }
    }
    for (std::size_t k = 1; k < learnt_.size(); ++k) seen_[varOf(learnt_[k])] = 0;

    cancelUntil(btLevel);
    ++stats_.learned;
    if (learnt_.size() == 1) {
      uncheckedEnqueue(learnt_[0], kNoReason);
    } else {
      std::swap(learnt_[1], learnt_[maxAt]);
      const std::uint32_t ci = addClauseInternal(learnt_);
      uncheckedEnqueue(learnt_[0], static_cast<std::int32_t>(ci));
    }
  }

  Var pickBranchVar() const {
    Var best = 0;
    double bestAct = -1.0;
    for (Var v = 1; v <= nVars_; ++v)
      if (assigns_[v] == 0 && activity_[v] > bestAct) {
        bestAct = activity_[v];
        best = v;  // strict '>' keeps the lowest-index tie-break
      }
    return best;
  }

  const SolverOptions& opts_;
  const Var nVars_;
  bool rootConflict_ = false;

  std::vector<Lit> arena_;
  std::vector<Clause> clauses_;
  std::vector<std::vector<Watch>> watches_;

  std::vector<std::int8_t> assigns_;
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> reason_;
  std::vector<std::uint8_t> seen_;
  std::vector<double> activity_;
  std::vector<std::uint8_t> phase_;
  double varInc_ = 1.0;

  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trailLim_;
  std::size_t qhead_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t sinceRestart_ = 0;

  std::vector<Lit> learnt_;
  SolverStats stats_;
};

}  // namespace

SolveResult solve(const Cnf& cnf, const SolverOptions& opts, const std::vector<Lit>& assumptions) {
  Solver solver(cnf, opts);
  return solver.run(assumptions);
}

}  // namespace mcx::sat
