// SatMapper: exact mapping verdicts through the SAT backend.
//
// Encodes the per-sample candidate adjacency as CNF (sat/cnf.hpp), splits
// it cube-and-conquer style on the most-contended assignment variables and
// solves with the CDCL core — proving a mapping (decoded from the winning
// model, valid by construction) or unmappability (all cubes Unsat). The
// verdict therefore always equals the Hopcroft-Karp exact mappers'; what
// SAT adds is an independently-derived ground truth for the
// ablation-optimality suite and a scalable search harness for encodings
// richer than pure matching.
//
// Deterministic at any thread count: per-cube solves are deterministic and
// a SAT cube only cancels higher-index siblings, so the winning cube is
// always the minimum SAT index (see sat/cube.hpp).
#pragma once

#include <cstdint>

#include "map/matching.hpp"

namespace mcx {

struct SatMapperOptions {
  /// Cube-and-conquer split depth: 2^cubeDepth cubes over the
  /// highest-occurrence assignment variables. 0 = one monolithic solve.
  std::size_t cubeDepth = 2;
  /// Per-cube conflict budget; 0 = unlimited. The default is bounded:
  /// infeasible samples with large Hall certificates are pigeonhole
  /// formulas (exponential for resolution), and an unbounded default would
  /// let one such sample hang a service request forever. Feasible samples
  /// solve constructively in at most ~1k conflicts, so 10k changes no
  /// feasible verdict; budget-exhausted samples count as failures, like a
  /// heuristic giving up — never as successes. Pass 0 explicitly for a
  /// proof-or-bust run.
  std::uint64_t conflictLimit = 10000;
  /// First-UIP clause learning (off = chronological DPLL ablation).
  bool learn = true;
  /// Farm cubes onto the MappingContext's ExecutorPool. Off by default:
  /// the Monte Carlo engine already saturates the pool with samples, so
  /// per-cube jobs only add queue churn there; turn it on for single-shot
  /// solves (register the pool with MappingContext::setExecution).
  bool parallelCubes = false;
};

class SatMapper final : public IMapper {
public:
  SatMapper() = default;
  explicit SatMapper(const SatMapperOptions& options) : options_(options) {}

  std::string name() const override { return "SAT"; }

  const SatMapperOptions& options() const { return options_; }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext& ctx) const override;

  SatMapperOptions options_;
};

}  // namespace mcx
