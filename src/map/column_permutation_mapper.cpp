#include "map/column_permutation_mapper.hpp"

#include <numeric>

namespace mcx {

MappingResult ColumnPermutationMapper::mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                               MappingContext& ctx) const {
  std::vector<std::size_t> perm(fm.nin());
  std::iota(perm.begin(), perm.end(), 0u);

  MappingResult best = inner_->map(fm, cm, ctx);
  if (best.aborted) return best;
  if (best.success) {
    best.inputPermutation = perm;  // identity, recorded for verifyMapping
    return best;
  }

  Rng rng(opts_.seed);
  for (std::size_t attempt = 0; attempt < opts_.restarts; ++attempt) {
    rng.shuffle(perm);
    const FunctionMatrix permuted = fm.withInputPermutation(perm);
    MappingResult r = inner_->map(permuted, cm, ctx);
    if (r.aborted) return r;
    best.backtracks += r.backtracks;
    if (r.success) {
      r.inputPermutation = perm;
      r.backtracks = best.backtracks;
      return r;
    }
  }
  return best;
}

}  // namespace mcx
