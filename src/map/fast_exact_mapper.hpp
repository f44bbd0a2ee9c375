// FastExactMapper: exact mapping feasibility via maximum bipartite matching.
//
// The paper's EA proves (in)feasibility with a full Munkres run in O(n^3).
// Feasibility is a perfect-matching question: build the compatibility graph
// between FM rows and CM rows and run Hopcroft-Karp (O(E sqrt(V))). Same
// success rate as EA by construction, typically an order of magnitude
// faster — see the ablation-mappers bench suite.
#pragma once

#include "map/matching.hpp"

namespace mcx {

class FastExactMapper final : public IMapper {
public:
  std::string name() const override { return "EA-fast"; }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext& ctx) const override;
};

}  // namespace mcx
