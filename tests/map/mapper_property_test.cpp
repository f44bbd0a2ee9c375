// Cross-mapper properties over randomized instances:
//  * every reported success verifies against the matching rule,
//  * EA dominates HBA dominates greedy / no-backtracking variants,
//  * the column-permutation extension dominates plain HBA,
//  * zero defect rate always succeeds; full defect rate always fails.
#include <gtest/gtest.h>

#include "logic/generators.hpp"
#include "map/column_permutation_mapper.hpp"
#include "map/exact_mapper.hpp"
#include "map/greedy_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {
namespace {

struct Instance {
  FunctionMatrix fm;
  BitMatrix cm;
};

std::vector<Instance> randomInstances(std::size_t count, double defectRate, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  for (std::size_t i = 0; i < count; ++i) {
    RandomSopOptions opts;
    opts.nin = 4 + static_cast<std::size_t>(rng.uniformInt(0, 4));
    opts.nout = 1 + static_cast<std::size_t>(rng.uniformInt(0, 2));
    opts.products = 4 + static_cast<std::size_t>(rng.uniformInt(0, 10));
    opts.literalsPerProduct = 2.5;
    const Cover cover = randomSop(opts, rng);
    FunctionMatrix fm = buildFunctionMatrix(cover);
    Rng sampleRng = rng.split();
    const DefectMap defects =
        IidBernoulli(defectRate).sample(fm.rows(), fm.cols(), sampleRng);
    instances.push_back({std::move(fm), crossbarMatrix(defects)});
  }
  return instances;
}

TEST(MapperProperties, SuccessesAlwaysVerify) {
  const auto instances = randomInstances(60, 0.12, 1001);
  const HybridMapper hba;
  const ExactMapper ea;
  const GreedyMapper greedy;
  for (const auto& [fm, cm] : instances) {
    for (const IMapper* mapper : std::initializer_list<const IMapper*>{&hba, &ea, &greedy}) {
      const MappingResult r = mapper->map(fm, cm);
      if (r.success) {
        EXPECT_TRUE(verifyMapping(fm, cm, r)) << mapper->name();
      }
    }
  }
}

TEST(MapperProperties, ExactDominatesHybrid) {
  const auto instances = randomInstances(80, 0.10, 1002);
  const HybridMapper hba;
  const ExactMapper ea;
  for (const auto& [fm, cm] : instances) {
    if (hba.map(fm, cm).success) {
      EXPECT_TRUE(ea.map(fm, cm).success);
    }
  }
}

TEST(MapperProperties, HybridDominatesNoBacktracking) {
  const auto instances = randomInstances(80, 0.12, 1003);
  HybridMapperOptions noBt;
  noBt.backtracking = false;
  const HybridMapper with, without(noBt);
  for (const auto& [fm, cm] : instances) {
    if (without.map(fm, cm).success) {
      EXPECT_TRUE(with.map(fm, cm).success);
    }
  }
}

TEST(MapperProperties, ColumnPermutationDominatesHybrid) {
  const auto instances = randomInstances(40, 0.14, 1004);
  const HybridMapper hba;
  const ColumnPermutationMapper colPerm;
  for (const auto& [fm, cm] : instances) {
    if (hba.map(fm, cm).success) {
      const MappingResult r = colPerm.map(fm, cm);
      EXPECT_TRUE(r.success);
      EXPECT_TRUE(verifyMapping(fm, cm, r));
    }
  }
}

TEST(MapperProperties, ColumnPermutationResultsVerify) {
  const auto instances = randomInstances(40, 0.2, 1005);
  const ColumnPermutationMapper colPerm;
  std::size_t successes = 0;
  for (const auto& [fm, cm] : instances) {
    const MappingResult r = colPerm.map(fm, cm);
    if (r.success) {
      ++successes;
      EXPECT_TRUE(verifyMapping(fm, cm, r));
    }
  }
  EXPECT_GT(successes, 0u);
}

TEST(MapperProperties, ZeroRateAlwaysSucceedsFullRateAlwaysFails) {
  for (const auto& [fm, cm] : randomInstances(20, 0.0, 1006)) {
    EXPECT_TRUE(HybridMapper().map(fm, cm).success);
    EXPECT_TRUE(ExactMapper().map(fm, cm).success);
  }
  for (const auto& [fm, cm] : randomInstances(20, 1.0, 1007)) {
    EXPECT_FALSE(HybridMapper().map(fm, cm).success);
    EXPECT_FALSE(ExactMapper().map(fm, cm).success);
    EXPECT_FALSE(GreedyMapper().map(fm, cm).success);
  }
}

// Success-rate monotonicity in defect rate (statistical, generous margins).
class DefectRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DefectRateSweep, ExactBeatsOrMatchesHybridRate) {
  const double rate = GetParam();
  const auto instances = randomInstances(50, rate, 42 + static_cast<std::uint64_t>(rate * 100));
  std::size_t hbaWins = 0, eaWins = 0;
  for (const auto& [fm, cm] : instances) {
    hbaWins += HybridMapper().map(fm, cm).success ? 1 : 0;
    eaWins += ExactMapper().map(fm, cm).success ? 1 : 0;
  }
  EXPECT_GE(eaWins, hbaWins);
}

INSTANTIATE_TEST_SUITE_P(Rates, DefectRateSweep, ::testing::Values(0.02, 0.05, 0.1, 0.2, 0.3));

}  // namespace
}  // namespace mcx
