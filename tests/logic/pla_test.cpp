#include "logic/pla.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "logic/truth_table.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(Pla, ParsesBasicFdFile) {
  const std::string text =
      ".i 3\n"
      ".o 2\n"
      ".p 2\n"
      "1-0 10\n"
      "011 01\n"
      ".e\n";
  const PlaFile pla = parsePlaString(text);
  EXPECT_EQ(pla.on.nin(), 3u);
  EXPECT_EQ(pla.on.nout(), 2u);
  ASSERT_EQ(pla.on.size(), 2u);
  EXPECT_EQ(pla.on.cube(0).inputString(), "1-0");
  EXPECT_TRUE(pla.on.cube(0).out(0));
  EXPECT_FALSE(pla.on.cube(0).out(1));
}

TEST(Pla, ParsesDontCareOutputs) {
  const std::string text =
      ".i 2\n.o 2\n.type fd\n"
      "11 1-\n"
      ".e\n";
  const PlaFile pla = parsePlaString(text);
  ASSERT_EQ(pla.on.size(), 1u);
  ASSERT_EQ(pla.dc.size(), 1u);
  EXPECT_TRUE(pla.on.cube(0).out(0));
  EXPECT_TRUE(pla.dc.cube(0).out(1));
}

TEST(Pla, ParsesFrTypeOffSet) {
  const std::string text =
      ".i 2\n.o 1\n.type fr\n"
      "11 1\n"
      "00 0\n"
      ".e\n";
  const PlaFile pla = parsePlaString(text);
  EXPECT_EQ(pla.on.size(), 1u);
  EXPECT_EQ(pla.off.size(), 1u);
  EXPECT_TRUE(pla.dc.empty());
}

TEST(Pla, NamesAndComments) {
  const std::string text =
      "# a comment\n"
      ".i 2\n.o 1\n"
      ".ilb a b\n"
      ".ob f\n"
      "11 1  # trailing comment\n"
      ".end\n";
  const PlaFile pla = parsePlaString(text);
  EXPECT_EQ(pla.inputNames, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(pla.outputNames, (std::vector<std::string>{"f"}));
  EXPECT_EQ(pla.on.size(), 1u);
}

TEST(Pla, CompactBodyWithoutSpace) {
  const std::string text = ".i 2\n.o 1\n111\n.e\n";
  const PlaFile pla = parsePlaString(text);
  ASSERT_EQ(pla.on.size(), 1u);
  EXPECT_EQ(pla.on.cube(0).inputString(), "11");
}

TEST(Pla, RejectsMalformedInput) {
  EXPECT_THROW(parsePlaString("11 1\n"), ParseError);            // cube before .i/.o
  EXPECT_THROW(parsePlaString(".i 2\n.o 1\n1x 1\n"), ParseError);  // bad char
  EXPECT_THROW(parsePlaString(".i 2\n.o 1\n111 1\n"), ParseError); // width
  EXPECT_THROW(parsePlaString(".i 2\n.foo\n"), ParseError);        // directive
  EXPECT_THROW(parsePlaString(".o 1\n.e\n"), ParseError);          // missing .i
}

// Every malformed construct is a hard error that names the offending line —
// a file that parses at all parses exactly.
TEST(Pla, ErrorsCarryLineNumbers) {
  auto errorOf = [](const std::string& text) -> std::string {
    try {
      parsePlaString(text);
    } catch (const ParseError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(errorOf(".i 2\n.o 1\n11 1\n1x 1\n.e\n").find("PLA line 4"), std::string::npos);
  EXPECT_NE(errorOf(".i 2\n.o 1\n111 1\n.e\n").find("line 3"), std::string::npos);
  EXPECT_NE(errorOf("# c\n.i abc\n").find("line 2"), std::string::npos);
  EXPECT_NE(errorOf("11 1\n").find("line 1"), std::string::npos);
}

TEST(Pla, RejectsMalformedDirectives) {
  EXPECT_THROW(parsePlaString(".i abc\n.o 1\n.e\n"), ParseError);   // non-numeric
  EXPECT_THROW(parsePlaString(".i 2x\n.o 1\n.e\n"), ParseError);    // trailing garbage
  EXPECT_THROW(parsePlaString(".i 0\n.o 1\n.e\n"), ParseError);     // zero inputs
  EXPECT_THROW(parsePlaString(".i 2\n.i 2\n.o 1\n.e\n"), ParseError);  // duplicate .i
  EXPECT_THROW(parsePlaString(".i 2\n.o 1\n.o 1\n.e\n"), ParseError);  // duplicate .o
  EXPECT_THROW(parsePlaString(".i 2\n.o 1\n.type fx\n.e\n"), ParseError);  // bad type
  EXPECT_THROW(parsePlaString(".i 2 3\n.o 1\n.e\n"), ParseError);   // extra argument
}

TEST(Pla, MissingEndIsAnError) {
  EXPECT_THROW(parsePlaString(".i 2\n.o 1\n11 1\n"), ParseError);
  EXPECT_NO_THROW(parsePlaString(".i 2\n.o 1\n11 1\n.e\n"));
  EXPECT_NO_THROW(parsePlaString(".i 2\n.o 1\n11 1\n.end\n"));
}

TEST(Pla, CubeWidthMismatchNamesTheExpectation) {
  try {
    parsePlaString(".i 3\n.o 2\n1-0 1\n.e\n");  // output part too narrow
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos);
    EXPECT_NE(what.find("expected 2"), std::string::npos);
  }
  EXPECT_THROW(parsePlaString(".i 3\n.o 2\n1-0- 10\n.e\n"), ParseError);  // input too wide
  EXPECT_THROW(parsePlaString(".i 3\n.o 2\n1-01\n.e\n"), ParseError);     // compact, short
}

TEST(Pla, RoundTripPreservesFunction) {
  const std::string text =
      ".i 4\n.o 2\n"
      "1--0 10\n"
      "-01- 11\n"
      "0--- 01\n"
      ".e\n";
  const PlaFile pla = parsePlaString(text);
  const std::string written = writePla(pla);
  const PlaFile reparsed = parsePlaString(written);
  EXPECT_EQ(TruthTable::fromCover(reparsed.on), TruthTable::fromCover(pla.on));
  EXPECT_EQ(reparsed.on.size(), pla.on.size());
}

TEST(Pla, RoundTripPreservesDcSet) {
  const std::string text =
      ".i 2\n.o 1\n"
      "11 1\n"
      "00 -\n"
      ".e\n";
  const PlaFile pla = parsePlaString(text);
  const PlaFile reparsed = parsePlaString(writePla(pla));
  EXPECT_EQ(reparsed.dc.size(), pla.dc.size());
  EXPECT_EQ(TruthTable::fromCover(reparsed.dc), TruthTable::fromCover(pla.dc));
}

TEST(Pla, MissingFileThrows) {
  EXPECT_THROW(readPlaFile("/nonexistent/file.pla"), ParseError);
}

TEST(Pla, ReaderRefusesDevicesAndOversizedFiles) {
  EXPECT_THROW(readPlaFileBytes("/dev/zero"), ParseError);
  EXPECT_THROW(readPlaFile("/dev/zero"), ParseError);
  // A sparse file one byte over the cap: refused by its size, unread.
  const std::string path = ::testing::TempDir() + "/mcx_pla_oversized.pla";
  std::ofstream(path).close();
  std::filesystem::resize_file(path, kMaxPlaFileBytes + 1);
  try {
    readPlaFileBytes(path);
    ADD_FAILURE() << "an oversized PLA file was read";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mcx
