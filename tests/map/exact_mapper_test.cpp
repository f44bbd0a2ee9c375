#include "map/exact_mapper.hpp"

#include <gtest/gtest.h>

#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "util/error.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

TEST(ExactMapper, CleanCrossbarSucceeds) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = ExactMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

TEST(ExactMapper, TooSmallCrossbarFails) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows() - 1, fm.cols(), true);
  EXPECT_FALSE(ExactMapper().map(fm, cm).success);
}

TEST(ExactMapper, FindsMappingRequiringGlobalReshuffle) {
  // Construct an instance where greedy minterm placement provably dead-ends
  // even with one-level backtracking, but a global assignment exists.
  //
  // Products A, B, C with fits: A -> {0,1}, B -> {0,2}, C -> {0}.
  // Greedy: A->0, B->2; C needs 0: relocate A->1 works, so HBA also
  // succeeds here; for EA we only require success.
  FunctionMatrix fm(2, 1, 3, 0);
  fm.bits().set(0, 0);               // A needs col 0
  fm.bits().set(1, 1);               // B needs col 1
  fm.bits().set(2, 0);               // C needs cols 0 and 1
  fm.bits().set(2, 1);
  fm.bits().set(3, 4);               // output row needs O1 / !O1
  fm.bits().set(3, 5);
  BitMatrix cm(4, 6, true);
  cm.reset(1, 1);                    // row 1: only A or outputs
  cm.reset(2, 0);                    // row 2: only B or outputs
  cm.reset(3, 0);                    // row 3: outputs only
  cm.reset(3, 1);
  const MappingResult r = ExactMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
  EXPECT_EQ(r.rowAssignment[2], 0u);  // C forced onto row 0
}

TEST(ExactMapper, ProvesInfeasibility) {
  // Two products both only fit row 0: no mapping can exist.
  FunctionMatrix fm(1, 1, 2, 0);
  fm.bits().set(0, 0);
  fm.bits().set(1, 0);
  fm.bits().set(2, 2);
  fm.bits().set(2, 3);
  BitMatrix cm(3, 4, true);
  cm.reset(1, 0);
  cm.reset(2, 0);
  EXPECT_FALSE(ExactMapper().map(fm, cm).success);
}

TEST(ExactMapper, ColumnMismatchThrows) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1"));
  const BitMatrix cm(fm.rows(), fm.cols() + 2, true);
  EXPECT_THROW(ExactMapper().map(fm, cm), InvalidArgument);
}

TEST(ExactMapper, ResultsVerifyOnRandomDefects) {
  Rng rng(21);
  RandomSopOptions opts;
  opts.nin = 5;
  opts.nout = 2;
  opts.products = 8;
  const Cover cover = randomSop(opts, rng);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  for (int rep = 0; rep < 60; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    const MappingResult r = ExactMapper().map(fm, cm);
    if (r.success) {
      EXPECT_TRUE(verifyMapping(fm, cm, r)) << "rep=" << rep;
    }
  }
}

TEST(ExactMapper, MunkresBaselineAgreesWithFastPath) {
  // The paper's Munkres formulation and the Hopcroft-Karp fast path decide
  // the same feasibility question: identical success sets on random defects.
  Rng rng(0xea);
  RandomSopOptions opts;
  opts.nin = 5;
  opts.nout = 2;
  opts.products = 8;
  const Cover cover = randomSop(opts, rng);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  ExactMapperOptions munkres;
  munkres.useMunkres = true;
  for (int rep = 0; rep < 60; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects = IidBernoulli(0.15).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    const MappingResult fast = ExactMapper().map(fm, cm);
    const MappingResult exact = ExactMapper(munkres).map(fm, cm);
    EXPECT_EQ(fast.success, exact.success) << "rep=" << rep;
    if (exact.success) {
      EXPECT_TRUE(verifyMapping(fm, cm, exact)) << "rep=" << rep;
    }
  }
}

}  // namespace
}  // namespace mcx
