// SatMapper: exactness against fast-ea, registry spec parsing, engine
// determinism at any thread count, and cancellation semantics.
#include "sat/sat_mapper.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "api/driver.hpp"
#include "logic/generators.hpp"
#include "logic/sop_parser.hpp"
#include "map/fast_exact_mapper.hpp"
#include "map/registry.hpp"
#include "mc/defect_experiment.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

TEST(SatTestMapper, CleanCrossbarSucceeds) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = SatMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_FALSE(r.aborted);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
}

TEST(SatTestMapper, TooSmallCrossbarFails) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x3"));
  const BitMatrix cm(fm.rows() - 1, fm.cols(), true);
  EXPECT_FALSE(SatMapper().map(fm, cm).success);
}

TEST(SatTestMapper, ColumnMismatchThrows) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1"));
  const BitMatrix cm(fm.rows(), fm.cols() + 1, true);
  EXPECT_THROW(SatMapper().map(fm, cm), InvalidArgument);
}

TEST(SatTestMapper, AgreesWithFastExactMapperEverywhere) {
  // The SAT backend is exact: identical success set to Hopcroft-Karp on
  // random circuits x random defect maps, and every success verifies.
  // Infeasible instances with large Hall certificates are pigeonhole-hard
  // (exponential resolution lower bound), so the budget is bounded: a
  // budget-out still agrees with HK — feasible instances solve
  // constructively orders of magnitude below the limit.
  Rng rng(67);
  const FastExactMapper fast;
  SatMapperOptions satOpts;
  satOpts.conflictLimit = 2048;
  const SatMapper satMapper(satOpts);
  int successes = 0;
  int failures = 0;
  for (int rep = 0; rep < 80; ++rep) {
    RandomSopOptions opts;
    opts.nin = 4 + static_cast<std::size_t>(rng.uniformInt(0, 3));
    opts.nout = 1 + static_cast<std::size_t>(rng.uniformInt(0, 2));
    opts.products = 4 + static_cast<std::size_t>(rng.uniformInt(0, 8));
    const FunctionMatrix fm = buildFunctionMatrix(randomSop(opts, rng));
    Rng sample = rng.split();
    const DefectMap defects =
        IidBernoulli(0.05 + 0.25 * sample.uniform()).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    const MappingResult viaSat = satMapper.map(fm, cm);
    const MappingResult viaHk = fast.map(fm, cm);
    ASSERT_EQ(viaSat.success, viaHk.success) << "rep " << rep;
    if (viaSat.success) {
      EXPECT_TRUE(verifyMapping(fm, cm, viaSat)) << "rep " << rep;
      ++successes;
    } else {
      EXPECT_FALSE(viaSat.aborted) << "rep " << rep;
      ++failures;
    }
  }
  EXPECT_GT(successes, 10);
  EXPECT_GT(failures, 10);
}

TEST(SatTestMapper, RegistryPresetAndSpecRoundTrip) {
  ASSERT_NE(findMapperPreset("sat"), nullptr);
  EXPECT_EQ(makeMapper("sat")->name(), std::string("SAT"));

  const auto mapper = mapperFromSpec(parseSpec(
      R"({"mapper": "sat", "cubeDepth": 3, "conflictLimit": 500, "learn": false,
          "parallelCubes": true})"));
  const auto* satMapper = dynamic_cast<const SatMapper*>(mapper.get());
  ASSERT_NE(satMapper, nullptr);
  EXPECT_EQ(satMapper->options().cubeDepth, 3u);
  EXPECT_EQ(satMapper->options().conflictLimit, 500u);
  EXPECT_FALSE(satMapper->options().learn);
  EXPECT_TRUE(satMapper->options().parallelCubes);
}

TEST(SatTestMapper, MalformedSpecsThrowTypedParseErrors) {
  // Non-integral cube depth.
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "cubeDepth": 1.5})")), ParseError);
  // Negative / out-of-range values.
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "cubeDepth": -1})")), ParseError);
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "cubeDepth": 17})")), ParseError);
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "conflictLimit": -5})")),
               ParseError);
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "conflictLimit": 2.5})")),
               ParseError);
  // Unknown option key.
  EXPECT_THROW(mapperFromSpec(parseSpec(R"({"mapper": "sat", "cubes": 4})")), ParseError);
}

TEST(SatTestMapper, ListMappersAdvertisesOptionSpec) {
  // `mcx_bench --list-mappers` output: the sat preset line must carry the
  // machine-usable JSON option spec.
  std::ostringstream out;
  bench::listMappers(out);
  const std::string listing = out.str();
  EXPECT_NE(listing.find("sat"), std::string::npos);
  EXPECT_NE(listing.find("cubeDepth"), std::string::npos);
  EXPECT_NE(listing.find("conflictLimit"), std::string::npos);
  EXPECT_NE(listing.find("parallelCubes"), std::string::npos);
}

DefectExperimentConfig satEngineConfig(std::size_t samples) {
  DefectExperimentConfig config;
  config.samples = samples;
  config.seed = 99;
  config.stuckOpenRate = 0.20;
  config.keepMappings = true;
  return config;
}

TEST(SatTestMapper, EngineResultsIdenticalAtAnyThreadCount) {
  const FunctionMatrix fm =
      buildFunctionMatrix(parseSop("x1 x2 + x1 x3 + x2 x4 + x3 x4 + x1 x4 + x2 x3"));
  const SatMapper mapper;
  DefectExperimentConfig config = satEngineConfig(60);
  config.threads = 1;
  const DefectExperimentResult ref = runDefectExperiment(fm, mapper, config);
  EXPECT_GT(ref.successes, 0u);
  EXPECT_LT(ref.successes, ref.samples);
  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const DefectExperimentResult r = runDefectExperiment(fm, mapper, config);
    ASSERT_EQ(r.successes, ref.successes) << threads << " threads";
    ASSERT_EQ(r.mappings.size(), ref.mappings.size());
    for (std::size_t s = 0; s < r.mappings.size(); ++s)
      ASSERT_EQ(r.mappings[s].rowAssignment, ref.mappings[s].rowAssignment)
          << "sample " << s << " at " << threads << " threads";
  }
}

TEST(SatTestMapper, ParallelCubesMatchesSequentialVerdictsAndModels) {
  // parallelCubes=true farms cube solves onto the engine's pool from inside
  // worker lanes (nested ExecutorPool::run) — results must be bit-identical
  // to the sequential mapper at every thread count.
  const FunctionMatrix fm =
      buildFunctionMatrix(parseSop("x1 x2 + x1 x3 + x2 x4 + x3 x4 + x1 x4 + x2 x3"));
  SatMapperOptions parallelOpts;
  parallelOpts.parallelCubes = true;
  const SatMapper sequential;
  const SatMapper parallel(parallelOpts);
  DefectExperimentConfig config = satEngineConfig(40);
  config.threads = 1;
  const DefectExperimentResult ref = runDefectExperiment(fm, sequential, config);
  config.threads = 4;
  const DefectExperimentResult par = runDefectExperiment(fm, parallel, config);
  ASSERT_EQ(par.successes, ref.successes);
  ASSERT_EQ(par.mappings.size(), ref.mappings.size());
  for (std::size_t s = 0; s < par.mappings.size(); ++s)
    ASSERT_EQ(par.mappings[s].rowAssignment, ref.mappings[s].rowAssignment) << "sample " << s;
}

TEST(SatTestMapper, DeadlineMidRunAbortsWithPartialCountsAndRerunIsIdentical) {
  // PR 6 contract, extended into the mapper: a deadline firing mid-solve
  // leaves the in-flight sample unrecorded (MappingResult::aborted), the
  // partial counts are a prefix-subset of an uninterrupted run's, and a
  // rerun without the token is bit-identical to a reference run.
  const FunctionMatrix fm =
      buildFunctionMatrix(parseSop("x1 x2 + x1 x3 + x2 x4 + x3 x4 + x1 x4 + x2 x3"));
  const SatMapper mapper;
  DefectExperimentConfig config = satEngineConfig(200);
  config.threads = 2;

  const DefectExperimentResult reference = runDefectExperiment(fm, mapper, config);

  DefectExperimentConfig abortedConfig = config;
  abortedConfig.cancel = std::make_shared<CancelToken>();
  abortedConfig.cancel->setDeadlineAfterMillis(0.5);
  const DefectExperimentResult partial = runDefectExperiment(fm, mapper, abortedConfig);
  if (partial.aborted) {
    EXPECT_EQ(partial.abortReason, "deadline_exceeded");
    EXPECT_LT(partial.completed, partial.samples);
    EXPECT_LE(partial.successes, reference.successes);
    // Every recorded sample matches the reference run sample-for-sample —
    // an aborted sat solve never pollutes a recorded slot.
    for (std::size_t s = 0; s < partial.mappings.size(); ++s) {
      if (partial.mappings[s].success) {
        EXPECT_EQ(partial.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
            << "sample " << s;
      }
    }
  }
  // (On a very fast box the run may finish inside the budget; the rerun
  // check below is the invariant that must hold either way.)

  const DefectExperimentResult rerun = runDefectExperiment(fm, mapper, config);
  EXPECT_FALSE(rerun.aborted);
  EXPECT_EQ(rerun.successes, reference.successes);
  for (std::size_t s = 0; s < rerun.mappings.size(); ++s)
    ASSERT_EQ(rerun.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
        << "sample " << s;
}

}  // namespace
}  // namespace mcx
