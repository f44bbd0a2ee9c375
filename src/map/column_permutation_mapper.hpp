// ColumnPermutationMapper: extension beyond the paper's Algorithm 1.
//
// The crossbar geometry fixes which columns carry which signals only up to a
// renaming of the input variables: input variable v can be routed to any
// input column pair (x_p, !x_p) by the CMOS controller (Fig. 7(b) of the
// paper silently applies such a renaming: its valid mapping lists the input
// columns as x3 x2 x1). This mapper searches over input permutations with
// randomized restarts, running an inner row mapper for each candidate. The
// engine's context reaches the inner mapper, and an inner abort (cancel
// token fired) ends the search at once.
#pragma once

#include <memory>

#include "map/hybrid_mapper.hpp"
#include "map/matching.hpp"
#include "util/rng.hpp"

namespace mcx {

struct ColumnPermutationOptions {
  /// Number of randomized permutations tried after the identity.
  std::size_t restarts = 20;
  std::uint64_t seed = 0x5eed;
};

class ColumnPermutationMapper final : public IMapper {
public:
  explicit ColumnPermutationMapper(ColumnPermutationOptions opts = {},
                                   std::shared_ptr<const IMapper> inner = nullptr)
      : opts_(opts),
        inner_(inner ? std::move(inner) : std::make_shared<HybridMapper>()) {}

  std::string name() const override { return "ColPerm+" + inner_->name(); }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext& ctx) const override;

  ColumnPermutationOptions opts_;
  std::shared_ptr<const IMapper> inner_;
};

}  // namespace mcx
