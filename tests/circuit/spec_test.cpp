#include "circuit/spec.hpp"

#include <gtest/gtest.h>

#include "circuit/registry.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(CircuitSpec, SourceStringForms) {
  const CircuitSpec gen = circuitSourceSpec("gen:weight5");
  EXPECT_EQ(gen.source, CircuitSpec::Source::Generator);
  EXPECT_EQ(gen.name, "weight5");

  const CircuitSpec pla = circuitSourceSpec("pla:.i 2\n.o 1\n11 1\n.e");
  EXPECT_EQ(pla.source, CircuitSpec::Source::InlinePla);

  const CircuitSpec sop = circuitSourceSpec("sop:x1 x2 + !x3");
  EXPECT_EQ(sop.source, CircuitSpec::Source::InlineSop);
  EXPECT_EQ(sop.text, "x1 x2 + !x3");

  const CircuitSpec bare = circuitSourceSpec("rd53");
  EXPECT_EQ(bare.source, CircuitSpec::Source::Registry);
  EXPECT_EQ(bare.name, "rd53");
}

TEST(CircuitSpec, FileSourceRejectsNonRegularFiles) {
  // A device never ends and a FIFO blocks on open: both are refused by a
  // stat before any read, at declaration time.
  EXPECT_THROW(makeCircuitSpec("file:/dev/zero"), ParseError);
  EXPECT_THROW(makeCircuitSpec("file:" + ::testing::TempDir()), ParseError);  // a directory
}

TEST(CircuitSpec, SourceStringErrors) {
  EXPECT_THROW(circuitSourceSpec("file:"), ParseError);                 // empty path
  EXPECT_THROW(circuitSourceSpec("file:/nonexistent/x.pla"), ParseError);
  EXPECT_THROW(circuitSourceSpec("pla:"), ParseError);
  EXPECT_THROW(circuitSourceSpec("sop:"), ParseError);
  EXPECT_THROW(circuitSourceSpec("gen:weight"), ParseError);            // no size
  EXPECT_THROW(circuitSourceSpec("gen:5weight"), ParseError);           // size first
  EXPECT_THROW(circuitSourceSpec("gen:bogus7"), ParseError);            // unknown family
  EXPECT_THROW(circuitSourceSpec("gen:weight0"), ParseError);           // zero size
  // The arity bound fires at declaration time, not mid-experiment.
  EXPECT_THROW(circuitSourceSpec("gen:weight20"), ParseError);
  EXPECT_THROW(circuitSourceSpec("gen:adder9"), ParseError);            // 18 inputs
  EXPECT_NO_THROW(circuitSourceSpec("gen:adder8"));                     // 16 inputs
}

TEST(CircuitSpec, GeneratorIdParsing) {
  const GeneratorId gen = parseGeneratorId("majority7");
  EXPECT_EQ(gen.family, "majority");
  EXPECT_EQ(gen.size, 7u);
}

TEST(CircuitSpec, CanonicalCoversTheKnobs) {
  CircuitSpec spec = circuitSourceSpec("rd53");
  EXPECT_EQ(spec.canonical(), "circuit{src=reg:rd53;synth=none;realize=two-level}");

  spec.synth = CircuitSpec::Synth::Espresso;
  spec.realize = CircuitSpec::Realize::MultiLevel;
  spec.factoring = CircuitSpec::Factoring::Kernel;
  spec.maxFanin = 4;
  EXPECT_EQ(spec.canonical(),
            "circuit{src=reg:rd53;synth=espresso;realize=multilevel;"
            "factoring=kernel;fanin=4}");

  // The factoring/fan-in knobs only exist for multi-level realizations:
  // they must not split two-level cache keys.
  CircuitSpec a = circuitSourceSpec("rd53");
  CircuitSpec b = circuitSourceSpec("rd53");
  b.factoring = CircuitSpec::Factoring::Kernel;
  b.maxFanin = 4;
  EXPECT_EQ(a.canonical(), b.canonical());

  // The label is presentation, not identity.
  CircuitSpec labeled = circuitSourceSpec("rd53");
  labeled.label = "pretty";
  EXPECT_EQ(labeled.canonical(), a.canonical());
  EXPECT_EQ(labeled.displayLabel(), "pretty");
  EXPECT_EQ(a.displayLabel(), "rd53");
}

TEST(CircuitSpec, EnumParsersRejectUnknownValues) {
  EXPECT_EQ(synthFromString("espresso"), CircuitSpec::Synth::Espresso);
  EXPECT_EQ(realizeFromString("multilevel"), CircuitSpec::Realize::MultiLevel);
  EXPECT_EQ(realizeFromString("multi-level"), CircuitSpec::Realize::MultiLevel);
  EXPECT_EQ(factoringFromString("best"), CircuitSpec::Factoring::Best);
  EXPECT_THROW(synthFromString("expresso"), ParseError);
  EXPECT_THROW(realizeFromString("3d"), ParseError);
  EXPECT_THROW(factoringFromString("fast"), ParseError);
}

TEST(CircuitSpecJson, ParsesFullSpec) {
  const CircuitSpec spec = makeCircuitSpec(
      R"({"circuit": "gen:weight5", "synth": "espresso", "realize": "multilevel",
          "factoring": "kernel", "maxFanin": 4, "label": "rd53ish"})");
  EXPECT_EQ(spec.source, CircuitSpec::Source::Generator);
  EXPECT_EQ(spec.name, "weight5");
  EXPECT_EQ(spec.synth, CircuitSpec::Synth::Espresso);
  EXPECT_EQ(spec.realize, CircuitSpec::Realize::MultiLevel);
  EXPECT_EQ(spec.factoring, CircuitSpec::Factoring::Kernel);
  EXPECT_EQ(spec.maxFanin, 4u);
  EXPECT_EQ(spec.displayLabel(), "rd53ish");
}

TEST(CircuitSpecJson, PresetBaseWithOverrides) {
  // "circuit" may name a preset; the other members override its knobs.
  const CircuitSpec spec =
      makeCircuitSpec(R"({"circuit": "rd53-min", "realize": "multilevel"})");
  EXPECT_EQ(spec.source, CircuitSpec::Source::Generator);
  EXPECT_EQ(spec.name, "weight5");
  EXPECT_EQ(spec.synth, CircuitSpec::Synth::Espresso);
  EXPECT_EQ(spec.realize, CircuitSpec::Realize::MultiLevel);
}

TEST(CircuitSpecJson, RecordsExplicitlySetKnobs) {
  // Tools that override defaults (the multilevel suite, fig6's reference
  // row) need to distinguish a deliberate knob from the default — label
  // text mentioning "realize" must not trip the detection.
  const CircuitSpec defaulted =
      makeCircuitSpec(R"({"circuit": "rd53", "label": "my \"realize\" run"})");
  EXPECT_FALSE(defaulted.realizeExplicit);
  EXPECT_FALSE(defaulted.factoringExplicit);

  const CircuitSpec explicitKnobs = makeCircuitSpec(
      R"({"circuit": "rd53", "realize": "two-level", "factoring": "quick"})");
  EXPECT_TRUE(explicitKnobs.realizeExplicit);
  EXPECT_TRUE(explicitKnobs.factoringExplicit);
}

TEST(CircuitSpecJson, HardErrors) {
  EXPECT_THROW(makeCircuitSpec("{}"), ParseError);                        // no circuit
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "synth": "qqq"})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "realize": "3d"})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "factoring": "x"})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "maxFanin": -1})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "maxFanin": 0.5})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "rd53", "typo": 1})"), ParseError);
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": 42})"), ParseError);        // wrong type
  EXPECT_THROW(makeCircuitSpec(R"({"circuit": "no-such"})"), ParseError);
  EXPECT_THROW(makeCircuitSpec("[1, 2]"), ParseError);                    // not an object
}

TEST(CircuitSpecJson, UnknownNameListsPresets) {
  try {
    makeCircuitSpec("no-such-circuit");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-circuit"), std::string::npos);
    EXPECT_NE(what.find("rd53"), std::string::npos) << "error should list the presets";
    EXPECT_NE(what.find("file:"), std::string::npos) << "error should name the schemes";
  }
}

}  // namespace
}  // namespace mcx
