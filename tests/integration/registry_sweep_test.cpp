// Parameterized sweep: every Table II circuit goes through the full
// build -> function matrix -> defect injection -> HBA map -> verify
// pipeline, and the crossbar geometry invariants hold for each.
#include <gtest/gtest.h>

#include "benchdata/registry.hpp"
#include "map/fast_exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {
namespace {

class RegistrySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySweep, GeometryInvariants) {
  const BenchmarkCircuit bench = loadBenchmarkFast(GetParam());
  const Cover& c = bench.cover;
  const FunctionMatrix fm = buildFunctionMatrix(c);
  EXPECT_EQ(fm.rows(), c.size() + c.nout());
  EXPECT_EQ(fm.cols(), 2 * c.nin() + 2 * c.nout());
  EXPECT_EQ(fm.dims(), twoLevelDims(c));
  // Output rows have exactly their two latch switches.
  for (std::size_t o = 0; o < c.nout(); ++o)
    EXPECT_EQ(fm.bits().rowCount(fm.rowOfOutput(o)), 2u);
  // Every product row has at least one literal and one output switch.
  for (std::size_t r = 0; r < fm.numProductRows(); ++r)
    EXPECT_GE(fm.bits().rowCount(r), 2u);
  // The IR numerator decomposes into literals + product-output switches +
  // latch switches.
  std::size_t outputSwitches = 0;
  for (const Cube& cube : c.cubes()) outputSwitches += cube.outputBits().count();
  EXPECT_EQ(fm.usedSwitches(), c.literalCount() + outputSwitches + 2 * c.nout());
}

TEST_P(RegistrySweep, CleanCrossbarAlwaysMaps) {
  const BenchmarkCircuit bench = loadBenchmarkFast(GetParam());
  const FunctionMatrix fm = buildFunctionMatrix(bench.cover);
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = HybridMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

TEST_P(RegistrySweep, DefectiveMappingVerifies) {
  const BenchmarkCircuit bench = loadBenchmarkFast(GetParam());
  const FunctionMatrix fm = buildFunctionMatrix(bench.cover);
  Rng rng(0xfeed);
  const HybridMapper hba;
  const FastExactMapper eaFast;
  std::size_t attempts = 0, successes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects = IidBernoulli(0.05).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    ++attempts;
    const MappingResult h = hba.map(fm, cm);
    if (h.success) {
      ++successes;
      EXPECT_TRUE(verifyMapping(fm, cm, h));
      // Exactness: whenever HBA succeeds, EA-fast must too.
      EXPECT_TRUE(eaFast.map(fm, cm).success);
    }
  }
  EXPECT_GT(attempts, 0u);
  (void)successes;  // success count varies by circuit; validity is the test
}

std::vector<std::string> table2Names() {
  std::vector<std::string> names;
  for (const auto& info : paperBenchmarks())
    if (info.inTable2) names.push_back(info.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(TableII, RegistrySweep, ::testing::ValuesIn(table2Names()),
                         [](const ::testing::TestParamInfo<std::string>& paramInfo) {
                           return paramInfo.param;
                         });

}  // namespace
}  // namespace mcx
