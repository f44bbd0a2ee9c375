#include "xbar/defects.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace mcx {

DefectMap::DefectMap(std::size_t rows, std::size_t cols)
    : open_(rows, cols), closed_(rows, cols) {}

DefectType DefectMap::type(std::size_t r, std::size_t c) const {
  if (closed_.test(r, c)) return DefectType::StuckClosed;
  if (open_.test(r, c)) return DefectType::StuckOpen;
  return DefectType::None;
}

void DefectMap::setType(std::size_t r, std::size_t c, DefectType t) {
  open_.set(r, c, t == DefectType::StuckOpen);
  closed_.set(r, c, t == DefectType::StuckClosed);
}

void DirtyRows::scan(const DefectMap& map) {
  all = false;
  rows.clear();
  stuckOpen = stuckClosed = 0;
  // Single pass: defect counts and row dirtiness from the same word loads.
  for (std::size_t r = 0; r < map.rows(); ++r) {
    const auto open = map.openBits().rowWords(r);
    const auto closed = map.closedBits().rowWords(r);
    BitMatrix::Word any = 0;
    std::size_t nOpen = 0, nClosed = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      nOpen += static_cast<std::size_t>(std::popcount(open[i]));
      nClosed += static_cast<std::size_t>(std::popcount(closed[i]));
      any |= open[i] | closed[i];
    }
    stuckOpen += nOpen;
    stuckClosed += nClosed;
    if (any != 0) rows.push_back(r);
  }
}

bool DefectMap::rowPoisoned(std::size_t r) const { return closed_.rowCount(r) > 0; }

bool DefectMap::colPoisoned(std::size_t c) const { return closed_.colCount(c) > 0; }

void DefectMap::reshape(std::size_t rows, std::size_t cols) {
  open_.reshape(rows, cols);
  closed_.reshape(rows, cols);
}

void DefectMap::overlay(const DefectMap& other) {
  MCX_REQUIRE(rows() == other.rows() && cols() == other.cols(),
              "DefectMap::overlay: dimension mismatch");
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto open = open_.rowWords(r);
    const auto closed = closed_.rowWords(r);
    const auto otherOpen = other.open_.rowWords(r);
    const auto otherClosed = other.closed_.rowWords(r);
    for (std::size_t i = 0; i < open.size(); ++i) {
      closed[i] |= otherClosed[i];
      open[i] = (open[i] | otherOpen[i]) & ~closed[i];
    }
  }
}

DefectMap DefectMap::sample(std::size_t rows, std::size_t cols, double stuckOpenRate,
                            double stuckClosedRate, Rng& rng) {
  DefectMap map;
  map.resample(rows, cols, stuckOpenRate, stuckClosedRate, rng);
  return map;
}

void DefectMap::resample(std::size_t rows, std::size_t cols, double stuckOpenRate,
                         double stuckClosedRate, Rng& rng) {
  MCX_REQUIRE(stuckOpenRate >= 0.0 && stuckClosedRate >= 0.0 &&
                  stuckOpenRate + stuckClosedRate <= 1.0,
              "DefectMap::resample: bad rates");
  open_.reshape(rows, cols);
  closed_.reshape(rows, cols);
  // One uniform per crosspoint, row-major: u = k * 2^-53 with k = draw >> 11
  // (Rng::uniform), and since p * 2^53 is exact, u < p <=> k < ceil(p * 2^53).
  // Integer thresholds make every map bit-identical to comparing uniforms.
  const auto threshold = [](double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  };
  const std::uint64_t tOpen = threshold(stuckOpenRate);
  const std::uint64_t tAny = threshold(stuckOpenRate + stuckClosedRate);
  // A local generator keeps its state in registers: the word stores below
  // could otherwise alias it.
  Rng local = rng;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto open = open_.rowWords(r);
    const auto closed = closed_.rowWords(r);
    for (std::size_t i = 0; i < open.size(); ++i) {
      const std::size_t bits = std::min(BitMatrix::kWordBits, cols - i * BitMatrix::kWordBits);
      BitMatrix::Word openWord = 0, anyWord = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        const std::uint64_t k = local() >> 11;
        openWord |= BitMatrix::Word{k < tOpen} << b;
        anyWord |= BitMatrix::Word{k < tAny} << b;
      }
      open[i] = openWord;
      closed[i] = anyWord & ~openWord;
    }
  }
  rng = local;
}

BitMatrix crossbarMatrix(const DefectMap& defects) {
  BitMatrix cm;
  crossbarMatrixInto(defects, cm);
  return cm;
}

void crossbarMatrixInto(const DefectMap& defects, BitMatrix& cm) {
  const std::size_t rows = defects.rows();
  const std::size_t cols = defects.cols();
  cm.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  const BitMatrix::Word tailMask = BitMatrix::tailMask(cols);

  // Functional = not stuck-open: one NOT per word instead of per-bit resets.
  for (std::size_t r = 0; r < rows; ++r) {
    const auto open = defects.openBits().rowWords(r);
    const auto dst = cm.rowWords(r);
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = ~open[i];
    dst[dst.size() - 1] &= tailMask;
  }

  if (defects.stuckClosedCount() == 0) return;
  // A stuck-closed crosspoint poisons its whole row and column. Fold all
  // closed rows into a column mask, then clear poisoned rows and columns
  // word-at-a-time.
  const std::size_t wordsPerRow = cm.rowWords(0).size();
  std::vector<BitMatrix::Word> colPoison(wordsPerRow, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto closed = defects.closedBits().rowWords(r);
    for (std::size_t i = 0; i < wordsPerRow; ++i) colPoison[i] |= closed[i];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto dst = cm.rowWords(r);
    if (defects.closedBits().rowCount(r) > 0) {
      for (auto& w : dst) w = 0;
    } else {
      for (std::size_t i = 0; i < wordsPerRow; ++i) dst[i] &= ~colPoison[i];
    }
  }
}

}  // namespace mcx
