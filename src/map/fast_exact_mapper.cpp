#include "map/fast_exact_mapper.hpp"

namespace mcx {

MappingResult FastExactMapper::mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                       MappingContext& ctx) const {
  // Hopcroft-Karp runs directly on the bit adjacency; no per-edge adjacency
  // lists are materialized.
  MappingResult result;
  FeasibleAssignment assignment = solveFeasibleAssignment(ctx.candidateAdjacency(fm.bits(), cm));
  result.success = assignment.success;
  result.rowAssignment = std::move(assignment.assignment);
  return result;
}

}  // namespace mcx
