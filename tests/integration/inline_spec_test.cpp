// Inline JSON specs behind any JSON whitespace: the mapper, scenario and
// circuit registries and the serve request parser resolve a string that
// starts with space, tab, LF or CR before its '{' as a spec, not as an
// unknown preset name.
#include <gtest/gtest.h>

#include <string>

#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "scenario/registry.hpp"
#include "serve/request.hpp"

namespace mcx {
namespace {

TEST(InlineSpec, CrlfBeforeTheBraceResolvesInEveryRegistry) {
  for (const std::string prefix : {"\r\n", "\r", " \t\r\n "}) {
    EXPECT_EQ(makeMapper(prefix + R"({"mapper":"hba"})")->name(), "HBA");
    EXPECT_EQ(makeScenario(prefix + R"({"model":"iid","open":0.05})")->describe(),
              makeScenario(R"({"model":"iid","open":0.05})")->describe());
    EXPECT_EQ(makeCircuitSpec(prefix + R"({"circuit":"rd53-min"})").canonical(),
              makeCircuitSpec("rd53-min").canonical());
  }
}

TEST(InlineSpec, ServeRequestResolvesCrlfPrefixedSpecStrings) {
  const serve::Request req = serve::parseRequest(
      R"({"circuit": "\r\n{\"circuit\":\"rd53-min\"}",)"
      R"( "mapper": "\r\n{\"mapper\":\"fast-ea\"}",)"
      R"( "scenario": "\r\n{\"model\":\"iid-sparse\",\"open\":0.05}"})",
      serve::RequestLimits{});
  EXPECT_EQ(req.circuit.canonical(), makeCircuitSpec("rd53-min").canonical());
  EXPECT_EQ(req.mapper->name(), "EA-fast");
  EXPECT_EQ(req.scenarioLabel,
            makeScenario(R"({"model":"iid-sparse","open":0.05})")->describe());
}

}  // namespace
}  // namespace mcx
