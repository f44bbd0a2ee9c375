#include "sim/crossbar_sim.hpp"

#include <gtest/gtest.h>

#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "logic/truth_table.hpp"
#include "map/hybrid_mapper.hpp"
#include "netlist/nand_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

DynBits inputBitsOf(std::size_t m, std::size_t nin) {
  DynBits in(nin);
  for (std::size_t v = 0; v < nin; ++v) in.set(v, ((m >> v) & 1u) != 0);
  return in;
}

TEST(TwoLevelSim, CleanCrossbarComputesFunction) {
  const TwoLevelLayout layout = buildTwoLevelLayout(parseSop("x1 x2 + !x1 x3"));
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  const auto id = identityAssignment(layout.fm.rows());
  EXPECT_EQ(countTwoLevelMismatches(layout, id, clean), 0u);
}

TEST(TwoLevelSim, Fig3FunctionFullSweep) {
  const TwoLevelLayout layout =
      buildTwoLevelLayout(parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8"));
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  EXPECT_EQ(countTwoLevelMismatches(layout, identityAssignment(layout.fm.rows()), clean), 0u);
}

TEST(TwoLevelSim, MultiOutputRandomCovers) {
  Rng rng(808);
  for (int rep = 0; rep < 15; ++rep) {
    RandomSopOptions opts;
    opts.nin = 5;
    opts.nout = 3;
    opts.products = 7;
    const Cover cover = randomSop(opts, rng);
    const TwoLevelLayout layout = buildTwoLevelLayout(cover);
    const DefectMap clean(layout.fm.rows(), layout.fm.cols());
    EXPECT_EQ(countTwoLevelMismatches(layout, identityAssignment(layout.fm.rows()), clean), 0u)
        << "rep=" << rep;
  }
}

TEST(TwoLevelSim, StuckOpenOnUsedSwitchBreaksFunction) {
  const Cover cover = parseSop("x1 x2");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  // Break the x1 literal switch of product row 0: the row now computes
  // NAND(x2) and the function degrades to x2.
  defects.setType(0, layout.fm.colOfPosLiteral(0), DefectType::StuckOpen);
  const auto id = identityAssignment(layout.fm.rows());
  EXPECT_GT(countTwoLevelMismatches(layout, id, defects), 0u);
  DynBits in(2);
  in.set(1);  // x1=0 x2=1: true function = 0, defective crossbar says 1
  EXPECT_TRUE(simulateTwoLevel(layout, id, defects, in).test(0));
}

TEST(TwoLevelSim, StuckOpenOnUnusedSwitchIsHarmless) {
  const Cover cover = parseSop("x1 x2 + !x3");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  // Stuck-open where the FM has zeros: exactly the paper's observation that
  // stuck-open behaves like a disabled switch.
  defects.setType(0, layout.fm.colOfNegLiteral(0), DefectType::StuckOpen);
  defects.setType(1, layout.fm.colOfPosLiteral(0), DefectType::StuckOpen);
  EXPECT_EQ(countTwoLevelMismatches(layout, identityAssignment(layout.fm.rows()), defects), 0u);
}

TEST(TwoLevelSim, StuckClosedPoisonsRow) {
  const Cover cover = parseSop("x1 x2 + x3");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  // Stuck-closed on product row 0, in a column nobody needs (x1's negative
  // rail): the row still outputs constant 1 -> product x1 x2 disappears.
  defects.setType(0, layout.fm.colOfNegLiteral(0), DefectType::StuckClosed);
  const auto id = identityAssignment(layout.fm.rows());
  DynBits in(3);
  in.set(0);
  in.set(1);  // x1 x2 = 1, x3 = 0 -> true 1; defective row kills the product
  EXPECT_FALSE(simulateTwoLevel(layout, id, defects, in).test(0));
  // ... and the poisoned column corrupts anything reading it; the overall
  // function must be wrong somewhere.
  EXPECT_GT(countTwoLevelMismatches(layout, id, defects), 0u);
}

TEST(TwoLevelSim, StuckClosedOnOutputColumnForcesOutputHigh) {
  const Cover cover = parseSop("x1 x2");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  defects.setType(0, layout.fm.colOfOutput(0), DefectType::StuckClosed);
  const auto id = identityAssignment(layout.fm.rows());
  DynBits in(2);  // 00 -> true 0, but the poisoned O column reads R_ON = 0 -> f = 1
  EXPECT_TRUE(simulateTwoLevel(layout, id, defects, in).test(0));
}

TEST(TwoLevelSim, ValidRemappingRestoresFunction) {
  // End-to-end: defective crossbar, naive mapping wrong, HBA mapping right.
  const Cover cover = parseSop("x1 x2 + x2 x3 + x1 x3");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  // Break row 0 for its own product but keep it usable for product row 2
  // (x1 x3 does not need x2).
  defects.setType(0, layout.fm.colOfPosLiteral(1), DefectType::StuckOpen);
  const auto id = identityAssignment(layout.fm.rows());
  EXPECT_GT(countTwoLevelMismatches(layout, id, defects), 0u);

  const BitMatrix cm = crossbarMatrix(defects);
  const MappingResult r = HybridMapper().map(layout.fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(countTwoLevelMismatches(layout, r.rowAssignment, defects), 0u);
}

TEST(TwoLevelSim, SpareRowAssignmentWorks) {
  const Cover cover = parseSop("x1 + !x2");
  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  const DefectMap clean(layout.fm.rows() + 2, layout.fm.cols());
  std::vector<std::size_t> assignment{4, 1, 2};  // product 0 lives on spare row 4
  EXPECT_EQ(countTwoLevelMismatches(layout, assignment, clean), 0u);
}

TEST(TwoLevelSim, ArityValidation) {
  const TwoLevelLayout layout = buildTwoLevelLayout(parseSop("x1"));
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  DynBits wrong(2);
  EXPECT_THROW(simulateTwoLevel(layout, identityAssignment(1), clean, wrong), InvalidArgument);
}

// ---- multi-level ----------------------------------------------------------

TEST(MultiLevelSim, Fig5CleanCrossbar) {
  const Cover cover = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  const MultiLevelLayout layout = buildMultiLevelLayout(mapToNand(cover));
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  const auto id = identityAssignment(layout.fm.rows());
  const TruthTable ref = TruthTable::fromCover(cover);
  for (std::size_t m = 0; m < 256; ++m) {
    const DynBits out = simulateMultiLevel(layout, id, clean, inputBitsOf(m, 8));
    EXPECT_EQ(out.test(0), ref.get(0, m)) << "m=" << m;
  }
}

TEST(MultiLevelSim, RandomNetworksMatchReference) {
  Rng rng(909);
  for (int rep = 0; rep < 10; ++rep) {
    RandomSopOptions opts;
    opts.nin = 5;
    opts.nout = 2;
    opts.products = 6;
    const Cover cover = randomSop(opts, rng);
    bool constant = false;
    for (std::size_t o = 0; o < cover.nout(); ++o) {
      const auto proj = cover.projection(o);
      if (proj.empty() || tautology(proj, cover.nin())) constant = true;
    }
    if (constant) continue;
    const MultiLevelLayout layout = buildMultiLevelLayout(mapToNand(cover));
    const DefectMap clean(layout.fm.rows(), layout.fm.cols());
    const auto id = identityAssignment(layout.fm.rows());
    const TruthTable ref = TruthTable::fromCover(cover);
    for (std::size_t m = 0; m < 32; ++m) {
      const DynBits out = simulateMultiLevel(layout, id, clean, inputBitsOf(m, 5));
      for (std::size_t o = 0; o < 2; ++o)
        EXPECT_EQ(out.test(o), ref.get(o, m)) << "rep=" << rep << " m=" << m;
    }
  }
}

TEST(MultiLevelSim, BrokenConnectionColumnBreaksFunction) {
  const Cover cover = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  const MultiLevelLayout layout = buildMultiLevelLayout(mapToNand(cover));
  DefectMap defects(layout.fm.rows(), layout.fm.cols());
  // Break the writer switch of gate 0's connection column: downstream reads
  // the initialization value instead of the gate result.
  defects.setType(0, layout.fm.colOfConnection(0), DefectType::StuckOpen);
  const auto id = identityAssignment(layout.fm.rows());
  const TruthTable ref = TruthTable::fromCover(cover);
  std::size_t mismatches = 0;
  for (std::size_t m = 0; m < 256; ++m) {
    const DynBits out = simulateMultiLevel(layout, id, defects, inputBitsOf(m, 8));
    if (out.test(0) != ref.get(0, m)) ++mismatches;
  }
  EXPECT_GT(mismatches, 0u);
}

TEST(MultiLevelSim, HybridMappingOnDefectiveMultiLevelCrossbar) {
  // The paper's future-work integration: defect-tolerant mapping of the
  // multi-level design, validated by simulation.
  const Cover cover = parseSop("x1 x2 + x3 x4 + x1 x4 + x2 x3");
  const MultiLevelLayout layout = buildMultiLevelLayout(mapToNand(cover));
  Rng rng(4242);
  const TruthTable ref = TruthTable::fromCover(cover);
  std::size_t checked = 0;
  for (int rep = 0; rep < 40 && checked < 5; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects =
        IidBernoulli(0.05).sample(layout.fm.rows(), layout.fm.cols(), sample);
    const MappingResult r = HybridMapper().map(layout.fm, crossbarMatrix(defects));
    if (!r.success) continue;
    ++checked;
    for (std::size_t m = 0; m < 16; ++m) {
      const DynBits out = simulateMultiLevel(layout, r.rowAssignment, defects, inputBitsOf(m, 4));
      EXPECT_EQ(out.test(0), ref.get(0, m)) << "rep=" << rep << " m=" << m;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace mcx
