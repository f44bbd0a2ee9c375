#include "map/matching.hpp"

#include <algorithm>
#include <bit>

#include "assign/hopcroft_karp.hpp"
#include "util/error.hpp"

namespace mcx {

bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow) {
  return fm.rowSubsetOf(fmRow, cm, cmRow);
}

BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "buildCandidateAdjacency: column mismatch");
  // Zero-column rows are subsets of everything (rowMatches is trivially
  // true), so the degenerate adjacency is all-ones, not all-zeros.
  if (fm.cols() == 0) return BitMatrix(fm.rows(), cm.rows(), true);
  BitMatrix out(fm.rows(), cm.rows());
  if (fm.rows() == 0 || cm.rows() == 0) return out;

  // Raw row words with a hoisted stride and a branchless fit test (the
  // ~50/50 fit rate makes a branch mispredict per pair), accumulating 64
  // results into each output word.
  using Word = BitMatrix::Word;
  const std::size_t words = fm.rowWords(0).size();
  const Word* cmBase = cm.rowWords(0).data();
  const std::size_t n = cm.rows();
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    const Word* a = fm.rowWords(i).data();
    Word* dst = out.rowWords(i).data();
    const Word* b = cmBase;
    for (std::size_t j0 = 0; j0 < n; j0 += BitMatrix::kWordBits) {
      const std::size_t blockEnd = std::min(n, j0 + BitMatrix::kWordBits);
      Word acc = 0;
      for (std::size_t j = j0; j < blockEnd; ++j, b += words) {
        Word miss = 0;
        for (std::size_t w = 0; w < words; ++w) miss |= a[w] & ~b[w];
        acc |= static_cast<Word>(miss == 0) << (j - j0);
      }
      dst[j0 / BitMatrix::kWordBits] = acc;
    }
  }
  return out;
}

const BitMatrix& MappingContext::candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "candidateAdjacency: column mismatch");
  // An FM row with no required column fits every CM row; each required
  // column c then keeps only the CM rows functional at c.
  adjacency_.reshape(fm.rows(), cm.rows(), true);
  if (fm.rows() == 0 || cm.rows() == 0) return adjacency_;
  cmT_.assignTransposed(cm);

  using Word = BitMatrix::Word;
  Word* const base = adjacency_.rowWords(0).data();
  const std::size_t stride = adjacency_.rowWords(0).size();
  const Word* const cmTBase = cmT_.rows() > 0 ? cmT_.rowWords(0).data() : nullptr;
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    Word* const dst = base + i * stride;
    const auto row = fm.rowWords(i);
    for (std::size_t w = 0; w < row.size(); ++w) {
      Word bits = row[w];
      while (bits != 0) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const Word* const fits = cmTBase + c * stride;
        for (std::size_t k = 0; k < stride; ++k) dst[k] &= fits[k];
      }
    }
  }
  return adjacency_;
}

CostMatrix buildMatchingMatrix(const BitMatrix& adjacency) {
  CostMatrix cost(adjacency.rows(), adjacency.cols(), 1);
  for (std::size_t i = 0; i < adjacency.rows(); ++i)
    for (std::size_t j = 0; j < adjacency.cols(); ++j)
      if (adjacency.test(i, j)) cost.at(i, j) = 0;
  return cost;
}

FeasibleAssignment solveFeasibleAssignment(const BitMatrix& adjacency) {
  FeasibleAssignment result;
  if (adjacency.rows() > adjacency.cols()) return result;
  if (adjacency.rows() == 0) {
    result.success = true;
    return result;
  }
  // Degree early exit: a row with no candidate can never be matched.
  for (std::size_t i = 0; i < adjacency.rows(); ++i)
    if (adjacency.rowCount(i) == 0) return result;

  const MatchingResult matching = hopcroftKarp(adjacency);
  if (!matching.perfectForLeft(adjacency.rows())) return result;
  result.success = true;
  result.assignment = matching.matchOfLeft;
  return result;
}

MappingResult IMapper::map(const FunctionMatrix& fm, const BitMatrix& cm) const {
  MappingContext ctx;
  return map(fm, cm, ctx);
}

MappingResult IMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                           MappingContext& ctx) const {
  MCX_REQUIRE(fm.cols() == cm.cols(), name() + ": column count mismatch");
  if (fm.rows() > cm.rows()) return {};
  return mapRows(fm, cm, ctx);
}

bool verifyMapping(const FunctionMatrix& fm, const BitMatrix& cm, const MappingResult& result) {
  if (!result.success) return false;
  if (result.rowAssignment.size() != fm.rows()) return false;
  // Distinctness via a CM-row bitmask (no sort, no per-call allocation of
  // fm.rows() indices — this runs once per successful Monte Carlo sample).
  using Word = BitMatrix::Word;
  std::vector<Word> used((cm.rows() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits, 0);
  for (const std::size_t cmRow : result.rowAssignment) {
    if (cmRow >= cm.rows()) return false;
    Word& word = used[cmRow / BitMatrix::kWordBits];
    const Word mask = Word{1} << (cmRow % BitMatrix::kWordBits);
    if ((word & mask) != 0) return false;
    word |= mask;
  }

  const FunctionMatrix* effective = &fm;
  FunctionMatrix permuted;
  if (!result.inputPermutation.empty()) {
    permuted = fm.withInputPermutation(result.inputPermutation);
    effective = &permuted;
  }
  for (std::size_t r = 0; r < effective->rows(); ++r) {
    if (!rowMatches(effective->bits(), r, cm, result.rowAssignment[r])) return false;
  }
  return true;
}

bool verifyPartialMapping(const FunctionMatrix& fm, const BitMatrix& cm,
                          const MappingResult& result) {
  if (result.rowAssignment.size() != fm.rows()) return false;
  if (!result.inputPermutation.empty()) return false;  // approx mappers never permute
  // droppedRows must be exactly the unassigned rows, strictly ascending.
  std::size_t nextDrop = 0;
  using Word = BitMatrix::Word;
  std::vector<Word> used((cm.rows() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits, 0);
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    const std::size_t cmRow = result.rowAssignment[r];
    if (cmRow == MappingResult::kUnassigned) {
      if (nextDrop >= result.droppedRows.size() || result.droppedRows[nextDrop] != r)
        return false;
      ++nextDrop;
      continue;
    }
    if (cmRow >= cm.rows()) return false;
    Word& word = used[cmRow / BitMatrix::kWordBits];
    const Word mask = Word{1} << (cmRow % BitMatrix::kWordBits);
    if ((word & mask) != 0) return false;
    word |= mask;
    if (!rowMatches(fm.bits(), r, cm, cmRow)) return false;
  }
  return nextDrop == result.droppedRows.size();
}

}  // namespace mcx
