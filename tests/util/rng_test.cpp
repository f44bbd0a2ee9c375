#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace mcx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamIsPinnedForAFixedSeed) {
  // Literal first draws of seed 2024 (and of the default seed): every
  // committed result depends on this stream, so it must never move.
  Rng raw(2024);
  EXPECT_EQ(raw(), 0x0e48715a13d7772eull);
  EXPECT_EQ(raw(), 0xc837f3ee8a7a1065ull);
  EXPECT_EQ(raw(), 0x1272314b15ee5001ull);
  EXPECT_EQ(raw(), 0x28e323a6abe2a46bull);
  Rng uniform(2024);
  EXPECT_EQ(uniform.uniform(), 0x1.c90e2b427aeep-5);
  EXPECT_EQ(uniform.uniform(), 0x1.906fe7dd14f42p-1);
  EXPECT_EQ(uniform.uniform(), 0x1.272314b15ee5p-4);
  EXPECT_EQ(uniform.uniform(), 0x1.47191d355f15p-3);
  Rng fallback;
  EXPECT_EQ(fallback(), 0x7d392394307d1852ull);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool anyDifferent = false;
  for (int i = 0; i < 10; ++i) anyDifferent |= (a() != b());
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Parent and child should not produce identical sequences.
  bool anyDifferent = false;
  Rng parentCopy = a;
  for (int i = 0; i < 10; ++i) anyDifferent |= (parentCopy() != child());
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BelowMasksMatchScalarDrawsAndAdvanceTheStream) {
  // Every length 0-64 (each lane count with each tail), at fixed thresholds
  // (never, k == 0 only, always, and above the 2^53 range of k) and at the
  // k of draws inside the block itself, where k < t must be decided exactly.
  for (const std::uint64_t seed : {1ull, 42ull, 0xfeedull, 0x9e3779b97f4a7c15ull}) {
    Rng stream(seed);
    for (std::size_t n = 0; n <= 64; ++n) {
      std::vector<std::uint64_t> k(n);
      Rng peek = stream;
      for (auto& v : k) v = peek() >> 11;
      std::vector<std::uint64_t> thresholds = {0, 1, std::uint64_t{1} << 53, ~std::uint64_t{0}};
      for (std::size_t b = 0; b < n; b += 5) thresholds.insert(thresholds.end(), {k[b], k[b] + 1});
      for (const std::uint64_t tLow : thresholds) {
        for (const std::uint64_t tHigh : thresholds) {
          Rng scalar = stream, block = stream;
          std::uint64_t wantLow = 0, wantHigh = 0;
          for (std::size_t b = 0; b < n; ++b) {
            const std::uint64_t draw = scalar() >> 11;
            wantLow |= std::uint64_t{draw < tLow} << b;
            wantHigh |= std::uint64_t{draw < tHigh} << b;
          }
          std::uint64_t low = 0xdead, high = 0xbeef;
          block.belowMasks(n, tLow, tHigh, low, high);
          const std::string where = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                                    " tLow=" + std::to_string(tLow) +
                                    " tHigh=" + std::to_string(tHigh);
          ASSERT_EQ(low, wantLow) << where;
          ASSERT_EQ(high, wantHigh) << where;
          ASSERT_EQ(block(), scalar()) << where;
        }
      }
      for (std::size_t b = 0; b < n; ++b) (void)stream();  // a fresh window next
    }
  }
}

TEST(Rng, BelowMasksLanesMatchEachLanesScalarDraws) {
  // 0-4 lanes over grids of 0-3 rows and every row length 0-66 plus a few
  // past two words, at fixed thresholds (never, k == 0 only, always, above
  // the 2^53 range of k) and at k of lane 0's own draws. Each lane must
  // score its own stream word by word, row-major, and leave it where
  // rows * cols operator() calls would.
  std::vector<std::size_t> colsList;
  for (std::size_t c = 0; c <= 66; ++c) colsList.push_back(c);
  colsList.insert(colsList.end(), {127, 128, 129, 130});
  for (std::size_t lanes = 0; lanes <= Rng::kLanes; ++lanes) {
    std::vector<Rng> streams;
    for (std::size_t i = 0; i < lanes; ++i) streams.emplace_back(0x51a7e + 977 * i);
    for (const std::size_t rows : {0, 1, 3}) {
      for (const std::size_t cols : colsList) {
        std::vector<std::uint64_t> thresholds = {0, 1, std::uint64_t{1} << 53,
                                                 ~std::uint64_t{0}};
        if (lanes > 0) {
          Rng peek = streams[0];
          for (std::size_t b = 0; b < rows * cols; ++b) {
            const std::uint64_t k = peek() >> 11;
            if (b % 29 == 0) thresholds.insert(thresholds.end(), {k, k + 1});
          }
        }
        const std::size_t wordsPerRow = (cols + 63) / 64;
        const std::size_t words = rows * wordsPerRow;
        for (std::size_t a = 0; a < thresholds.size(); ++a) {
          for (const std::size_t pair : {a, (a + 1) % thresholds.size()}) {
            const std::uint64_t tLow = thresholds[a], tHigh = thresholds[pair];
            std::vector<Rng> batch = streams;
            std::vector<std::vector<std::uint64_t>> low(lanes), high(lanes);
            std::vector<std::uint64_t*> lowPtr, highPtr;
            for (std::size_t i = 0; i < lanes; ++i) {
              low[i].assign(words, 0xdead);
              high[i].assign(words, 0xbeef);
              lowPtr.push_back(low[i].data());
              highPtr.push_back(high[i].data());
            }
            Rng::belowMasksLanes(batch, rows, cols, tLow, tHigh, lowPtr, highPtr);
            for (std::size_t i = 0; i < lanes; ++i) {
              const std::string where = "lanes=" + std::to_string(lanes) +
                                        " lane=" + std::to_string(i) +
                                        " rows=" + std::to_string(rows) +
                                        " cols=" + std::to_string(cols) +
                                        " tLow=" + std::to_string(tLow) +
                                        " tHigh=" + std::to_string(tHigh);
              Rng scalar = streams[i];
              for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t j = 0; j < wordsPerRow; ++j) {
                  const std::size_t bits = std::min<std::size_t>(64, cols - 64 * j);
                  std::uint64_t wantLow = 0, wantHigh = 0;
                  for (std::size_t b = 0; b < bits; ++b) {
                    const std::uint64_t k = scalar() >> 11;
                    wantLow |= std::uint64_t{k < tLow} << b;
                    wantHigh |= std::uint64_t{k < tHigh} << b;
                  }
                  ASSERT_EQ(low[i][r * wordsPerRow + j], wantLow) << where << " word=" << j;
                  ASSERT_EQ(high[i][r * wordsPerRow + j], wantHigh) << where << " word=" << j;
                }
              }
              ASSERT_EQ(batch[i](), scalar()) << where;
            }
          }
        }
        for (Rng& stream : streams)
          for (std::size_t b = 0; b < rows * cols; ++b) (void)stream();  // a fresh window
      }
    }
  }
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(29);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.binomial(7, 0.4);
    EXPECT_LE(k, 7u);
  }
}

TEST(Rng, BinomialConsumesOneDrawAndIsDeterministic) {
  Rng a(31), b(31);
  EXPECT_EQ(a.binomial(100000, 0.1), b.binomial(100000, 0.1));
  // Exactly one uniform consumed per call, whatever the outcome: the
  // sparse sampler's draw-order contract depends on it.
  b = Rng(31);
  (void)b();
  Rng c(31);
  (void)c.binomial(12345, 0.37);
  EXPECT_EQ(b(), c());
}

TEST(Rng, BinomialMatchesMomentsAndBernoulliSum) {
  // Mean and variance of Binomial(n, p), plus agreement with an explicit
  // Bernoulli-trial sum: both samplers must draw from the same
  // distribution (the O(defects) fast path relies on it).
  const std::uint64_t n = 4096;
  const double p = 0.1;
  const int reps = 4000;
  Rng rng(37), trials(38);
  double sum = 0, sumSq = 0, trialSum = 0;
  for (int i = 0; i < reps; ++i) {
    const double k = static_cast<double>(rng.binomial(n, p));
    sum += k;
    sumSq += k * k;
    int hits = 0;
    for (std::uint64_t t = 0; t < n; ++t) hits += trials.bernoulli(p) ? 1 : 0;
    trialSum += hits;
  }
  const double mean = sum / reps;
  const double var = sumSq / reps - mean * mean;
  const double expectedMean = static_cast<double>(n) * p;          // 409.6
  const double expectedVar = expectedMean * (1.0 - p);             // 368.6
  // Standard error of the mean is ~0.3; allow ~6 sigma.
  EXPECT_NEAR(mean, expectedMean, 2.0);
  EXPECT_NEAR(mean, trialSum / reps, 2.5);
  EXPECT_NEAR(var, expectedVar, expectedVar * 0.12);
}

}  // namespace
}  // namespace mcx
