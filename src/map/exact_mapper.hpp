// ExactMapper (EA): the paper's exact baseline.
//
// Mapping validity is decided exactly under row permutation. The matching
// matrix is pure 0/1 feasibility, so by default the zero-cost Munkres
// question is answered as a perfect-matching question: the default path is
// FastExactMapper's Hopcroft-Karp run on the word-parallel candidate
// adjacency (O(E sqrt(V)) vs O(n^3)) — same success set by construction,
// only the name differs. The paper's original Munkres formulation
// (reference [21]) stays available behind an option as the runtime baseline
// for the ablation benches and the test reference.
#pragma once

#include "map/matching.hpp"

namespace mcx {

struct ExactMapperOptions {
  /// Solve with the paper's O(n^3) Munkres assignment instead of the
  /// Hopcroft-Karp feasibility fast path. Identical success set; only the
  /// runtime differs. Used as the ablation baseline.
  bool useMunkres = false;
};

class ExactMapper final : public IMapper {
public:
  explicit ExactMapper(ExactMapperOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return opts_.useMunkres ? "EA-munkres" : "EA"; }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext& ctx) const override;

  ExactMapperOptions opts_;
};

}  // namespace mcx
