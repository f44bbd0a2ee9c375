#include "circuit/pipeline.hpp"

#include <gtest/gtest.h>

#include "benchdata/registry.hpp"
#include "circuit/registry.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/quine_mccluskey.hpp"
#include "logic/truth_table.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/error.hpp"
#include "xbar/multilevel_layout.hpp"

#ifndef MCX_REPO_ROOT
#error "MCX_REPO_ROOT must point at the repository root (set by CMake)"
#endif

namespace mcx {
namespace {

const std::string kAdderPla = std::string(MCX_REPO_ROOT) + "/examples/data/adder.pla";

TEST(CircuitPipeline, RegistryTwoLevelBitIdenticalToHandBuiltPath) {
  // The pipeline must reproduce the experiment suites' historical front-end
  // exactly — this is what keeps the committed BENCH JSON counts valid.
  const CircuitSpec spec = makeCircuitSpec("bw");
  const Circuit circuit = buildCircuit(spec);
  const Cover hand = loadBenchmarkFast("bw").cover;
  EXPECT_EQ(circuit.cover, hand);
  EXPECT_EQ(circuit.fm.bits(), buildFunctionMatrix(hand).bits());
  EXPECT_FALSE(circuit.layout.has_value());
  EXPECT_EQ(spec.displayLabel(), "bw");
  EXPECT_EQ(circuit.stats.products, hand.size());
}

TEST(CircuitPipeline, RegistryMultiLevelBitIdenticalToHandBuiltPath) {
  CircuitSpec spec = makeCircuitSpec("t481");
  spec.realize = CircuitSpec::Realize::MultiLevel;
  const Circuit circuit = buildCircuit(spec);
  const MultiLevelLayout hand =
      buildMultiLevelLayout(mapToNand(loadBenchmarkFast("t481").cover));
  ASSERT_TRUE(circuit.layout.has_value());
  EXPECT_EQ(circuit.fm.bits(), hand.fm.bits());
  EXPECT_EQ(circuit.layout->connOfGate, hand.connOfGate);
}

TEST(CircuitPipeline, GeneratorEspressoMatchesHandSynthesis) {
  // rd53-min is the exact cover the multilevel defect suite always built:
  // espressoMinimize(isopCover(weightFunction(5))).
  const CircuitSpec spec = makeCircuitSpec("rd53-min");
  const Circuit circuit = buildCircuit(spec);
  EXPECT_EQ(circuit.cover, espressoMinimize(isopCover(weightFunction(5))));
  EXPECT_EQ(spec.displayLabel(), "rd53");
  EXPECT_TRUE(circuit.spec.label.empty()) << "the artifact carries no label";
  EXPECT_GE(circuit.stats.sourceProducts, circuit.stats.products);
}

TEST(CircuitPipeline, RegistryEspressoIsThePolishedLoad) {
  const Circuit circuit = buildCircuit(makeCircuitSpec(R"({"circuit":"rd53","synth":"espresso"})"));
  EXPECT_EQ(circuit.cover, loadBenchmark("rd53").cover);
}

TEST(CircuitPipeline, FileSourceRoundTripsTheFunction) {
  const CircuitSpec spec = makeCircuitSpec("file:" + kAdderPla);
  const Circuit circuit = buildCircuit(spec);
  EXPECT_EQ(circuit.cover.nin(), 4u);
  EXPECT_EQ(circuit.cover.nout(), 3u);
  EXPECT_EQ(spec.displayLabel(), "adder.pla");
  // The fixture is a real 2-bit adder: the compiled cover must compute it.
  EXPECT_EQ(TruthTable::fromCover(circuit.cover), adderFunction(2));

  // Synthesis steps preserve the function.
  for (const char* synth : {"espresso", "qm", "isop"}) {
    const Circuit minimized = buildCircuit(makeCircuitSpec(
        std::string(R"({"circuit":"file:)") + kAdderPla + R"(","synth":")" + synth + "\"}"));
    EXPECT_EQ(TruthTable::fromCover(minimized.cover), adderFunction(2)) << synth;
  }
}

TEST(CircuitPipeline, InlineSourcesCompile) {
  const Circuit pla =
      buildCircuit(makeCircuitSpec("pla:.i 2\n.o 1\n11 1\n00 1\n.e"));
  EXPECT_EQ(pla.cover.size(), 2u);

  const Circuit sop = buildCircuit(makeCircuitSpec("sop:x1 x2 + !x1 !x2"));
  EXPECT_EQ(TruthTable::fromCover(sop.cover), TruthTable::fromCover(pla.cover));
}

TEST(CircuitPipeline, QmSynthesisIsExact) {
  // XOR of 4: QM must land on the 8-minterm optimum.
  const Circuit circuit =
      buildCircuit(makeCircuitSpec(R"({"circuit":"gen:parity4","synth":"qm"})"));
  EXPECT_EQ(circuit.cover.size(), quineMcCluskey(parityFunction(4), 0).cover.size());
  EXPECT_EQ(TruthTable::fromCover(circuit.cover), parityFunction(4));
}

TEST(CircuitPipeline, FactoringKnobSelectsTheMapper) {
  const std::string base = R"({"circuit":"t481","realize":"multilevel","factoring":")";
  const Circuit flat = buildCircuit(makeCircuitSpec(base + "flat\"}"));
  const Circuit kernel = buildCircuit(makeCircuitSpec(base + "kernel\"}"));
  const Circuit best = buildCircuit(makeCircuitSpec(base + "best\"}"));
  // t481 is the structured circuit: kernel factoring must beat the flat
  // NAND-NAND form, and "best" is by construction no worse than either.
  EXPECT_LT(kernel.dims().area(), flat.dims().area());
  EXPECT_LE(best.dims().area(), kernel.dims().area());
  EXPECT_EQ(best.dims().area(),
            multiLevelDims(mapToNandBest(best.cover)).area());
}

TEST(CircuitPipeline, MaxFaninBoundsTheNetwork) {
  const Circuit bounded = buildCircuit(
      makeCircuitSpec(R"({"circuit":"rd53-min","realize":"multilevel","maxFanin":2})"));
  ASSERT_TRUE(bounded.layout.has_value());
  const NandNetwork& net = bounded.layout->network;
  for (const auto gate : net.gates()) EXPECT_LE(net.fanins(gate).size(), 2u);
}

TEST(CircuitPipeline, SemanticErrors) {
  // Registry circuits ship their own synthesis recipe; the JSON parser
  // rejects the combination eagerly, and the pipeline itself backstops
  // directly-constructed specs.
  EXPECT_THROW(makeCircuitSpec(R"({"circuit":"bw","synth":"qm"})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit":"bw","synth":"isop"})"), ParseError);
  CircuitSpec registryQm;
  registryQm.source = CircuitSpec::Source::Registry;
  registryQm.name = "bw";
  registryQm.synth = CircuitSpec::Synth::Qm;
  EXPECT_THROW(buildCircuit(registryQm), InvalidArgument);
  // QM is exact and bounded; t481 has 16 inputs.
  EXPECT_THROW(buildCircuit(makeCircuitSpec(
                   R"({"circuit":"sop:x1 x13 + x14 x15 x16","synth":"qm"})")),
               InvalidArgument);
  // Unknown registry name straight into the pipeline (bypassing the circuit
  // registry's eager check).
  CircuitSpec unknown;
  unknown.source = CircuitSpec::Source::Registry;
  unknown.name = "no-such";
  EXPECT_THROW(buildCircuit(unknown), InvalidArgument);
  // Malformed inline PLA fails in the parser, with a line number.
  try {
    buildCircuit(makeCircuitSpec("pla:.i 2\n.o 1\n11 1\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("missing .e"), std::string::npos);
  }
}

}  // namespace
}  // namespace mcx
