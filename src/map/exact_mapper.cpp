#include "map/exact_mapper.hpp"

#include "map/fast_exact_mapper.hpp"

namespace mcx {

MappingResult ExactMapper::mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                   MappingContext& ctx) const {
  if (!opts_.useMunkres) return FastExactMapper{}.map(fm, cm, ctx);

  // The paper's formulation: zero-cost Munkres assignment on the full
  // matching matrix (the ablation runtime baseline).
  AssignmentResult assignment =
      munkresSolve(buildMatchingMatrix(ctx.candidateAdjacency(fm.bits(), cm)));
  MappingResult result;
  result.success = assignment.cost == 0;
  if (result.success) result.rowAssignment = std::move(assignment.assignment);
  return result;
}

}  // namespace mcx
