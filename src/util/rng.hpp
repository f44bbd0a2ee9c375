// Deterministic, seedable random number generation (xoshiro256**).
//
// All Monte Carlo experiments in the library take an explicit Rng so runs
// are reproducible; std::mt19937 is avoided because its streams differ
// between standard library implementations for some distribution types.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcx {

class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  // Inline: the sparse defect sampler and the bounded draws call this in
  // their inner loops, where an out-of-line call per draw is most of the cost.
  /// Raw 64 random bits.
  std::uint64_t operator()() {
    const std::uint64_t result = scramble(s_[1]);
    advance();
    return result;
  }

  /// Draws n <= 64 outputs, as n operator() calls would, and returns two
  /// masks: bit b of `low` (of `high`) is set when draw b's top 53 bits,
  /// k = draw >> 11, are below tLow (below tHigh). Since uniform() is
  /// k * 2^-53, a threshold ceil(p * 2^53) sets exactly the bits where
  /// uniform() < p. The dense defect sampler scores each 64-crosspoint row
  /// word with one call: the state chain runs serially, and the scrambler
  /// and the compares run four draws at a time on AVX2 builds.
  void belowMasks(std::size_t n, std::uint64_t tLow, std::uint64_t tHigh, std::uint64_t& low,
                  std::uint64_t& high);

  /// Generators the lane form of belowMasks advances together.
  static constexpr std::size_t kLanes = 4;

  /// belowMasks on up to kLanes generators at once, over a row-major grid
  /// of draws: each of @p rows rows is ceil(cols / 64) words of up to 64
  /// draws (the last one takes the row's remainder), drawn as belowMasks
  /// calls would draw them, word by word. Lane i's masks for the grid's
  /// w-th word go to low[i][w] and high[i][w], and each generator ends where
  /// rows * cols operator() calls would leave it. One stream's state chain
  /// is serial, but independent streams are not: on AVX2 builds the lanes'
  /// chains advance side by side, one per 64-bit lane of a vector register
  /// (so one lane costs as much as four). Without AVX2 each lane is a run
  /// of belowMasks calls.
  static void belowMasksLanes(std::span<Rng> lanes, std::size_t rows, std::size_t cols,
                              std::uint64_t tLow, std::uint64_t tHigh,
                              std::span<std::uint64_t* const> low,
                              std::span<std::uint64_t* const> high);

  /// Uniform in [0, 1).
  double uniform() {
    // 53 random mantissa bits.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exact Binomial(n, p) draw from a single uniform: the number of
  /// successes in n independent Bernoulli(p) trials, without performing the
  /// trials. Inverts the CDF by chopping probability mass outward from the
  /// mode, so the cost is O(stddev) — the O(defects) sampling fast path
  /// draws its defect count with this instead of one uniform per crosspoint.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniformInt(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-sample seeding).
  Rng split();

private:
  // xoshiro256**: the output scrambler of the state word s_[1], and the
  // state transition that follows each draw.
  static std::uint64_t scramble(std::uint64_t s1) { return std::rotl(s1 * 5, 7) * 9; }
  void advance() {
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
  }

  std::uint64_t s_[4];
};

}  // namespace mcx
