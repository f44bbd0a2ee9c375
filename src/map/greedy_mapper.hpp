// GreedyMapper: the weakest baseline for ablation A3 — first-fit placement
// of every FM row (minterm and output rows alike), no backtracking, no
// assignment step. Shows what the hybrid algorithm's two refinements buy.
#pragma once

#include "map/matching.hpp"

namespace mcx {

class GreedyMapper final : public IMapper {
public:
  std::string name() const override { return "Greedy"; }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext& ctx) const override;
};

}  // namespace mcx
