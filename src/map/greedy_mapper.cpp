#include "map/greedy_mapper.hpp"

namespace mcx {

MappingResult GreedyMapper::mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                    MappingContext& /*ctx*/) const {
  MappingResult result;
  constexpr std::size_t kNone = MappingResult::kUnassigned;
  std::vector<std::size_t> fmToCm(fm.rows(), kNone);
  std::vector<bool> taken(cm.rows(), false);
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    bool placed = false;
    for (std::size_t t = 0; t < cm.rows(); ++t) {
      if (taken[t]) continue;
      if (rowMatches(fm.bits(), i, cm, t)) {
        fmToCm[i] = t;
        taken[t] = true;
        placed = true;
        break;
      }
    }
    if (!placed) return result;
  }
  result.rowAssignment = std::move(fmToCm);
  result.success = true;
  return result;
}

}  // namespace mcx
