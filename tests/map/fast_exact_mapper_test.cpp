#include "map/fast_exact_mapper.hpp"

#include <gtest/gtest.h>

#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "map/exact_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "util/error.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

TEST(FastExactMapper, CleanCrossbarSucceeds) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = FastExactMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

TEST(FastExactMapper, TooSmallCrossbarFails) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows() - 1, fm.cols(), true);
  EXPECT_FALSE(FastExactMapper().map(fm, cm).success);
}

TEST(FastExactMapper, ColumnMismatchThrows) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1"));
  const BitMatrix cm(fm.rows(), fm.cols() + 1, true);
  EXPECT_THROW(FastExactMapper().map(fm, cm), InvalidArgument);
}

TEST(FastExactMapper, AgreesWithMunkresExactMapperEverywhere) {
  // EA-fast is exact: identical success set to EA on random instances.
  Rng rng(41);
  const ExactMapper ea;
  const FastExactMapper fast;
  for (int rep = 0; rep < 120; ++rep) {
    RandomSopOptions opts;
    opts.nin = 4 + static_cast<std::size_t>(rng.uniformInt(0, 4));
    opts.nout = 1 + static_cast<std::size_t>(rng.uniformInt(0, 2));
    opts.products = 4 + static_cast<std::size_t>(rng.uniformInt(0, 10));
    const Cover cover = randomSop(opts, rng);
    const FunctionMatrix fm = buildFunctionMatrix(cover);
    Rng sample = rng.split();
    const DefectMap defects =
        IidBernoulli(0.05 + 0.2 * sample.uniform()).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    const MappingResult a = ea.map(fm, cm);
    const MappingResult b = fast.map(fm, cm);
    EXPECT_EQ(a.success, b.success) << "rep=" << rep;
    if (b.success) {
      EXPECT_TRUE(verifyMapping(fm, cm, b)) << "rep=" << rep;
    }
  }
}

TEST(FastExactMapper, HandlesSpareRows) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 + x2"));
  BitMatrix cm(fm.rows() + 2, fm.cols(), true);
  cm.setRow(0, false);
  cm.setRow(1, false);
  const MappingResult r = FastExactMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

}  // namespace
}  // namespace mcx
