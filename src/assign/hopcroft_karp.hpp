// Hopcroft-Karp maximum bipartite matching.
//
// The paper decides mapping validity through a zero-cost Munkres assignment
// (O(n^3)). Validity is really a perfect-matching question, which
// Hopcroft-Karp answers in O(E sqrt(V)) — the basis of the FastExactMapper
// extension (map/fast_exact_mapper.hpp) that keeps EA's exactness at a
// fraction of its runtime.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bit_matrix.hpp"

namespace mcx {

struct MatchingResult {
  /// Size of the maximum matching.
  std::size_t size = 0;
  /// matchOfLeft[l] = matched right vertex or kUnmatched.
  std::vector<std::size_t> matchOfLeft;
  static constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);

  bool perfectForLeft(std::size_t numLeft) const { return size == numLeft; }
};

/// Maximum matching via Hopcroft-Karp, directly on a bit-matrix adjacency
/// (left vertex = row, right vertex = column). Both searches AND a row's
/// words with a mask of the right vertices still worth a step, so each row
/// a search reaches costs one word op per 64 right vertices, and no
/// per-edge structure is ever materialized. The matching returned is the
/// one the classic layered search finds walking edges one by one in
/// ascending column order.
///
/// With @p warmStart (the default) the phases are seeded with a greedy
/// maximal matching — each left vertex takes its first free neighbor — so
/// augmentation only runs for the leftovers. On the near-clean crossbar
/// adjacencies of the Monte Carlo sweeps the greedy pass places almost
/// every FM row (a defect-free CM row accepts any FM row) and the BFS/DFS
/// phases merely repair around the defective rows. The matching SIZE is
/// the same either way (Hopcroft-Karp is maximum from any initial
/// matching); only which maximum matching is returned can differ.
MatchingResult hopcroftKarp(const BitMatrix& adjacency, bool warmStart = true);

}  // namespace mcx
