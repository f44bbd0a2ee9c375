#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "util/error.hpp"

namespace mcx {

namespace {
// splitmix64: used to expand the user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// std::lgamma stores its sign result in the libm global `signgam`, so
// concurrent per-worker samplers race on it (TSan-visible). The reentrant
// variant returns the bit-identical value without touching shared state.
double logGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

constexpr std::size_t kMaxDraws = 64;

// k = draw >> 11 < 2^53, so any threshold above 2^53 decides like 2^53.
// Clamped, both sides of every compare lie in [0, 2^53], where a signed
// compare is exact.
std::uint64_t clampThreshold(std::uint64_t t) {
  return std::min(t, std::uint64_t{1} << 53);
}

#if defined(__AVX2__)
// Rotate each 64-bit lane left by r (compilers fold this into vprolq where
// AVX-512VL is enabled).
template <int r>
__m256i rotl4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r), _mm256_srli_epi64(x, 64 - r));
}
#endif

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::uniformInt(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t range = hi - lo + 1;  // hi == max is not used in practice
  if (range == 0) return (*this)();
  // Lemire's rejection method for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double nd = static_cast<double>(n);
  // PMF at the mode via log-gamma (never underflows: the mode's mass is
  // ~1/stddev), then multiplicative recurrences towards both tails.
  std::uint64_t mode = static_cast<std::uint64_t>((nd + 1.0) * p);
  if (mode > n) mode = n;
  const double md = static_cast<double>(mode);
  const double logPm = logGamma(nd + 1.0) - logGamma(md + 1.0) -
                       logGamma(nd - md + 1.0) + md * std::log(p) +
                       (nd - md) * std::log1p(-p);
  const double pMode = std::exp(logPm);
  const double odds = p / (1.0 - p);

  // Invert a reordered CDF: subtract mass alternately above/below the mode
  // until the uniform is exhausted. Any fixed ordering of the outcomes is a
  // valid inversion; outward-from-the-mode keeps the expected walk short.
  double u = uniform() - pMode;
  if (u < 0.0) return mode;
  double massHi = pMode, massLo = pMode;
  std::uint64_t hi = mode, lo = mode;
  for (;;) {
    bool advanced = false;
    if (hi < n) {
      massHi *= (nd - static_cast<double>(hi)) / (static_cast<double>(hi) + 1.0) * odds;
      ++hi;
      u -= massHi;
      if (u < 0.0) return hi;
      advanced = true;
    }
    if (lo > 0) {
      massLo *= static_cast<double>(lo) / (nd - static_cast<double>(lo) + 1.0) / odds;
      --lo;
      u -= massLo;
      if (u < 0.0) return lo;
      advanced = true;
    }
    // Rounding can leave a sliver of u after all mass is consumed.
    if (!advanced) return mode;
  }
}

void Rng::belowMasks(std::size_t n, std::uint64_t tLow, std::uint64_t tHigh,
                     std::uint64_t& low, std::uint64_t& high) {
  MCX_REQUIRE(n <= kMaxDraws, "Rng::belowMasks: at most 64 draws");
  tLow = clampThreshold(tLow);
  tHigh = clampThreshold(tHigh);

  // Pass 1: the state chain, serial by construction. Only the pre-scramble
  // word s_[1] of each step is kept; the scrambler does not feed the chain.
  // A local copy keeps the state in registers across the buffer stores.
  std::uint64_t pre[kMaxDraws];
  Rng chain = *this;
  for (std::size_t b = 0; b < n; ++b) {
    pre[b] = chain.s_[1];
    chain.advance();
  }
  *this = chain;

  // Pass 2: scramble, shift and compare. No draw depends on another here.
  // The masks build in locals: stores through `low`/`high`, which may alias,
  // would chain every step through memory.
  std::uint64_t lowBits = 0, highBits = 0;
  std::size_t b = 0;
#if defined(__AVX2__)
  // Four draws per step. AVX2 has no 64-bit multiply, so x*5 and x*9 are
  // shift-adds and the rotate is two shifts. cmpgt(t, k) is k < t, and a
  // lane that compares true has its sign bit set, which movemask_pd packs
  // into four bits.
  const __m256i lowT = _mm256_set1_epi64x(static_cast<long long>(tLow));
  const __m256i highT = _mm256_set1_epi64x(static_cast<long long>(tHigh));
  for (; b + 4 <= n; b += 4) {
    const __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pre + b));
    const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i rotated =
        _mm256_or_si256(_mm256_slli_epi64(times5, 7), _mm256_srli_epi64(times5, 57));
    const __m256i times9 = _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
    const __m256i k = _mm256_srli_epi64(times9, 11);
    const auto lanes = [&](__m256i t) {
      return static_cast<std::uint64_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, k))));
    };
    lowBits |= lanes(lowT) << b;
    highBits |= lanes(highT) << b;
  }
#endif
  // The tail of fewer than four draws, and every draw without AVX2.
  for (; b < n; ++b) {
    const std::uint64_t k = scramble(pre[b]) >> 11;
    lowBits |= std::uint64_t{k < tLow} << b;
    highBits |= std::uint64_t{k < tHigh} << b;
  }
  low = lowBits;
  high = highBits;
}

void Rng::belowMasksLanes(std::span<Rng> lanes, std::size_t rows, std::size_t cols,
                          std::uint64_t tLow, std::uint64_t tHigh,
                          std::span<std::uint64_t* const> low,
                          std::span<std::uint64_t* const> high) {
  const std::size_t m = lanes.size();
  MCX_REQUIRE(m <= kLanes && low.size() >= m && high.size() >= m,
              "Rng::belowMasksLanes: at most four lanes, one mask pair each");
  const std::size_t wordsPerRow = (cols + kMaxDraws - 1) / kMaxDraws;
  const std::size_t tail = cols - (wordsPerRow == 0 ? 0 : (wordsPerRow - 1) * kMaxDraws);
#if defined(__AVX2__)
  // Vector j holds state word s_[j] of every lane. Unused lanes start at
  // the all-zero state, which xoshiro maps to itself.
  alignas(32) std::uint64_t words[4][kLanes] = {};
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < 4; ++j) words[j][i] = lanes[i].s_[j];
  const auto load = [](const std::uint64_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  };
  const auto store = [](std::uint64_t* p, __m256i v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  };
  __m256i s0 = load(words[0]), s1 = load(words[1]), s2 = load(words[2]), s3 = load(words[3]);

  // Per draw: the scrambler rotl(s1 * 5, 7) * 9 with shift-adds (AVX2 has
  // no 64-bit multiply), k = >> 11, and k < t as a signed compare, which
  // sets the whole lane; `bit` holds draw b's bit of the word, 1 << b.
  const __m256i lowT = _mm256_set1_epi64x(static_cast<long long>(clampThreshold(tLow)));
  const __m256i highT = _mm256_set1_epi64x(static_cast<long long>(clampThreshold(tHigh)));
  alignas(32) std::uint64_t lowOut[kLanes], highOut[kLanes];
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < wordsPerRow; ++j, ++w) {
      const std::size_t n = j + 1 == wordsPerRow ? tail : kMaxDraws;
      __m256i bit = _mm256_set1_epi64x(1);
      __m256i lowAcc = _mm256_setzero_si256(), highAcc = _mm256_setzero_si256();
      for (std::size_t b = 0; b < n; ++b) {
        const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
        const __m256i rotated = rotl4<7>(times5);
        const __m256i times9 = _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
        const __m256i k = _mm256_srli_epi64(times9, 11);
        lowAcc = _mm256_or_si256(lowAcc, _mm256_and_si256(_mm256_cmpgt_epi64(lowT, k), bit));
        highAcc = _mm256_or_si256(highAcc, _mm256_and_si256(_mm256_cmpgt_epi64(highT, k), bit));
        bit = _mm256_add_epi64(bit, bit);
        // advance(), lane-wise.
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = rotl4<45>(s3);
      }
      store(lowOut, lowAcc);
      store(highOut, highAcc);
      for (std::size_t i = 0; i < m; ++i) {
        low[i][w] = lowOut[i];
        high[i][w] = highOut[i];
      }
    }
  }
  store(words[0], s0);
  store(words[1], s1);
  store(words[2], s2);
  store(words[3], s3);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < 4; ++j) lanes[i].s_[j] = words[j][i];
#else
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < wordsPerRow; ++j, ++w)
        lanes[i].belowMasks(j + 1 == wordsPerRow ? tail : kMaxDraws, tLow, tHigh, low[i][w],
                            high[i][w]);
  }
#endif
}

Rng Rng::split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ull); }

}  // namespace mcx
