#include "map/hybrid_mapper.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

FunctionMatrix smallFm() {
  return buildFunctionMatrix(parseSop("x1 x2 + !x1 x3 + x2 x3"));
}

TEST(HybridMapper, CleanCrossbarMapsIdentity) {
  const FunctionMatrix fm = smallFm();
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = HybridMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
  EXPECT_EQ(r.backtracks, 0u);
  std::vector<std::size_t> identity(fm.rows());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  EXPECT_EQ(r.rowAssignment, identity);
}

TEST(HybridMapper, FailsWhenCrossbarTooSmall) {
  const FunctionMatrix fm = smallFm();
  const BitMatrix cm(fm.rows() - 1, fm.cols(), true);
  EXPECT_FALSE(HybridMapper().map(fm, cm).success);
}

TEST(HybridMapper, FailsOnColumnMismatch) {
  const FunctionMatrix fm = smallFm();
  const BitMatrix cm(fm.rows(), fm.cols() + 1, true);
  EXPECT_THROW(HybridMapper().map(fm, cm), InvalidArgument);
}

TEST(HybridMapper, FullyDefectiveCrossbarFails) {
  const FunctionMatrix fm = smallFm();
  const BitMatrix cm(fm.rows(), fm.cols());  // everything stuck-open
  EXPECT_FALSE(HybridMapper().map(fm, cm).success);
}

TEST(HybridMapper, OutputRowNeedsItsLatchSwitches) {
  const FunctionMatrix fm = smallFm();
  BitMatrix cm(fm.rows(), fm.cols(), true);
  // Kill the O1 column everywhere: no row can host the output row.
  cm.setCol(fm.colOfOutput(0), false);
  EXPECT_FALSE(HybridMapper().map(fm, cm).success);
}

TEST(HybridMapper, SpareRowsHelp) {
  const FunctionMatrix fm = smallFm();
  // Optimum-size crossbar with a poisoned first row fails only if no other
  // row can absorb the load; with a spare row it must succeed.
  BitMatrix cm(fm.rows() + 1, fm.cols(), true);
  cm.setRow(0, false);
  const MappingResult r = HybridMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

TEST(HybridMapper, ZeroDefectRateAlwaysSucceeds) {
  Rng rng(4);
  for (int rep = 0; rep < 10; ++rep) {
    RandomSopOptions opts;
    opts.nin = 6;
    opts.nout = 2;
    opts.products = 8;
    const Cover cover = randomSop(opts, rng);
    const FunctionMatrix fm = buildFunctionMatrix(cover);
    const BitMatrix cm(fm.rows(), fm.cols(), true);
    EXPECT_TRUE(HybridMapper().map(fm, cm).success);
  }
}

TEST(HybridMapper, ResultsAlwaysVerifyOnRandomDefects) {
  Rng rng(8);
  RandomSopOptions opts;
  opts.nin = 6;
  opts.nout = 3;
  opts.products = 10;
  const Cover cover = randomSop(opts, rng);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  std::size_t successes = 0;
  for (int rep = 0; rep < 100; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects = IidBernoulli(0.08).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    const MappingResult r = HybridMapper().map(fm, cm);
    if (r.success) {
      ++successes;
      EXPECT_TRUE(verifyMapping(fm, cm, r)) << "rep=" << rep;
    }
  }
  EXPECT_GT(successes, 0u);
}

TEST(HybridMapper, BacktrackRelocatesPreviousOwner) {
  // Product A fits CM rows {0,1,2}; product B fits only {0}. In the paper's
  // top-to-bottom greedy order A grabs 0 and B dead-ends; one-level
  // backtracking must relocate A.
  FunctionMatrix fm(1, 1, 2, 0);  // 3 rows (2 products + 1 output), 4 cols
  fm.bits().set(0, 2);            // product A
  fm.bits().set(1, 0);            // product B
  fm.bits().set(1, 2);
  fm.bits().set(2, 2);            // output row
  fm.bits().set(2, 3);
  BitMatrix cm(3, 4, true);
  cm.reset(1, 0);
  cm.reset(2, 0);
  HybridMapperOptions paperOrder;
  paperOrder.sortByCandidates = false;
  const MappingResult r = HybridMapper(paperOrder).map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.backtracks, 1u);
  EXPECT_EQ(r.rowAssignment[1], 0u);  // B ends up on the only row it fits
  EXPECT_TRUE(verifyMapping(fm, cm, r));

  HybridMapperOptions noBt;
  noBt.backtracking = false;
  noBt.sortByCandidates = false;
  EXPECT_FALSE(HybridMapper(noBt).map(fm, cm).success);
}

TEST(HybridMapper, CandidateOrderingAvoidsBacktracking) {
  // Same dead-end instance: most-constrained-first ordering (the default)
  // places B before A and never needs the repair.
  FunctionMatrix fm(1, 1, 2, 0);
  fm.bits().set(0, 2);
  fm.bits().set(1, 0);
  fm.bits().set(1, 2);
  fm.bits().set(2, 2);
  fm.bits().set(2, 3);
  BitMatrix cm(3, 4, true);
  cm.reset(1, 0);
  cm.reset(2, 0);
  const MappingResult r = HybridMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.backtracks, 0u);
  EXPECT_EQ(r.rowAssignment[1], 0u);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

}  // namespace
}  // namespace mcx
