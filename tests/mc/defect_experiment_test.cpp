#include "mc/defect_experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "logic/sop_parser.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "obs/metrics.hpp"
#include "scenario/defect_model.hpp"
#include "scenario/registry.hpp"
#include "util/faultinject.hpp"

namespace mcx {
namespace {

FunctionMatrix testFm() {
  return buildFunctionMatrix(parseSop("x1 x2 + !x2 x3 + x1 !x3 + x2 x3"));
}

// Success counts observed for the sparse sampler at the exact seeds/rates
// of SparseSamplerPinnedSuccessCounts; see that test for the re-pin policy.
constexpr std::size_t kPinnedSparseSuccesses = 20;
constexpr std::size_t kPinnedSparseMixedSuccesses = 3;

// Sample counts around every batch tail of the engine's lockstep draw.
constexpr std::size_t kBatchTailSamples[] = {1, 2, 3, 5, 7, 10, 64, 101};

TEST(DefectExperiment, ZeroRateGivesFullSuccess) {
  DefectExperimentConfig cfg;
  cfg.samples = 20;
  cfg.stuckOpenRate = 0.0;
  const DefectExperimentResult r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.successes, 20u);
  EXPECT_DOUBLE_EQ(r.successRate(), 1.0);
}

TEST(DefectExperiment, SaturatedRateGivesZeroSuccess) {
  DefectExperimentConfig cfg;
  cfg.samples = 10;
  cfg.stuckOpenRate = 1.0;
  const DefectExperimentResult r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.successes, 0u);
}

TEST(DefectExperiment, DeterministicForFixedSeed) {
  DefectExperimentConfig cfg;
  cfg.samples = 50;
  cfg.stuckOpenRate = 0.15;
  cfg.seed = 77;
  const auto a = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto b = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.totalBacktracks, b.totalBacktracks);
}

TEST(DefectExperiment, ExactAtLeastAsSuccessful) {
  DefectExperimentConfig cfg;
  cfg.samples = 60;
  cfg.stuckOpenRate = 0.12;
  const auto hba = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto ea = runDefectExperiment(testFm(), ExactMapper(), cfg);
  EXPECT_GE(ea.successes, hba.successes);
}

TEST(DefectExperiment, SpareRowsImproveSuccess) {
  DefectExperimentConfig base;
  base.samples = 60;
  base.stuckOpenRate = 0.25;
  DefectExperimentConfig spare = base;
  spare.spareRows = 3;
  const auto without = runDefectExperiment(testFm(), HybridMapper(), base);
  const auto with = runDefectExperiment(testFm(), HybridMapper(), spare);
  EXPECT_GE(with.successes, without.successes);
}

TEST(DefectExperiment, TimingIsPopulatedWhenOptedIn) {
  DefectExperimentConfig cfg;
  cfg.samples = 5;
  cfg.timePerSample = true;
  const auto r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.perSampleMillis.count, 5u);
  EXPECT_GE(r.meanSeconds(), 0.0);
  EXPECT_GE(r.totalSeconds, 0.0);
}

TEST(DefectExperiment, PerSampleTimingIsOffByDefault) {
  // Sweep-style callers should not pay two clock reads per sample; the
  // aggregate wall time of the run is still reported.
  DefectExperimentConfig cfg;
  cfg.samples = 5;
  const auto r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.perSampleMillis.count, 0u);
  EXPECT_GT(r.totalSeconds, 0.0);
  EXPECT_GT(r.meanSeconds(), 0.0);
}

TEST(DefectExperiment, TimingKnobDoesNotChangeOutcomes) {
  DefectExperimentConfig cfg;
  cfg.samples = 40;
  cfg.stuckOpenRate = 0.15;
  cfg.seed = 123;
  cfg.keepMappings = true;
  DefectExperimentConfig timed = cfg;
  timed.timePerSample = true;
  const auto a = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto b = runDefectExperiment(testFm(), HybridMapper(), timed);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_EQ(a.mappings.size(), b.mappings.size());
  for (std::size_t s = 0; s < a.mappings.size(); ++s)
    EXPECT_EQ(a.mappings[s].rowAssignment, b.mappings[s].rowAssignment);
}

TEST(DefectExperiment, ResultsAreIdenticalAtAnyThreadCount) {
  // Covers the legacy rate-pair path and both sparse samplers (stuck-open
  // only, and mixed with stuck-closed poisoning): the determinism contract
  // binds every sampler the engine can run.
  const std::vector<std::shared_ptr<const DefectModel>> models = {
      nullptr,  // legacy rate pair
      std::make_shared<SparseIidBernoulli>(0.12, 0.0),
      std::make_shared<SparseIidBernoulli>(0.10, 0.02),
  };
  for (const auto& model : models) {
    SCOPED_TRACE(model ? model->describe() : "legacy rate pair");
    // Sample counts around every batch tail: the batch width is
    // min(4, ceil(samples / lanes)), so these give widths 1-4 with partial
    // last batches at every thread count.
    for (const std::size_t samples : kBatchTailSamples) {
      DefectExperimentConfig base;
      base.samples = samples;
      base.stuckOpenRate = 0.12;
      base.model = model;
      base.seed = 0xfeed;
      base.keepMappings = true;
      base.threads = 1;
      const auto reference = runDefectExperiment(testFm(), HybridMapper(), base);
      ASSERT_EQ(reference.mappings.size(), base.samples);

      for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
        DefectExperimentConfig cfg = base;
        cfg.threads = threads;
        const auto got = runDefectExperiment(testFm(), HybridMapper(), cfg);
        const std::string where =
            "samples=" + std::to_string(samples) + " threads=" + std::to_string(threads);
        EXPECT_EQ(got.completed, samples) << where;
        EXPECT_EQ(got.successes, reference.successes) << where;
        EXPECT_EQ(got.totalBacktracks, reference.totalBacktracks) << where;
        ASSERT_EQ(got.mappings.size(), reference.mappings.size());
        for (std::size_t s = 0; s < got.mappings.size(); ++s) {
          EXPECT_EQ(got.mappings[s].success, reference.mappings[s].success)
              << where << " sample=" << s;
          EXPECT_EQ(got.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
              << where << " sample=" << s;
        }
      }
    }
  }
}

TEST(DefectExperiment, ResultsAreIdenticalAtAnyThreadCountForNonIidModels) {
  // The determinism contract is a property of the engine + every
  // DefectModel, not of the paper's i.i.d. sampler: correlated scenarios
  // draw variable amounts of randomness per sample, which is exactly the
  // pattern that would break a naive shared-stream implementation.
  for (const char* scenario : {"clustered", "lines", "composite"}) {
    DefectExperimentConfig base;
    base.samples = 48;
    base.seed = 0xfeed;
    base.model = makeScenario(scenario, 0.08);
    base.keepMappings = true;
    base.threads = 1;
    const auto reference = runDefectExperiment(testFm(), HybridMapper(), base);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      DefectExperimentConfig cfg = base;
      cfg.threads = threads;
      const auto got = runDefectExperiment(testFm(), HybridMapper(), cfg);
      EXPECT_EQ(got.successes, reference.successes)
          << "scenario=" << scenario << " threads=" << threads;
      ASSERT_EQ(got.mappings.size(), reference.mappings.size());
      for (std::size_t s = 0; s < got.mappings.size(); ++s)
        EXPECT_EQ(got.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
            << "scenario=" << scenario << " threads=" << threads << " sample=" << s;
    }
  }
}

TEST(DefectExperiment, MatchesForEachDefectSampleStreams) {
  // The engine and the callback variant must see the same defect draws —
  // and the engine's context path (a reused per-worker context) must reproduce
  // the plain mapper.map() exactly. Checked for the legacy sampler and the
  // sparse one.
  // The batched draws (generateLanes, four streams in lockstep) must
  // reproduce the callback variant's one-sample-at-a-time generate() at
  // every batch width and tail.
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "legacy");
    for (const std::size_t samples : kBatchTailSamples) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
        const std::string where =
            "samples=" + std::to_string(samples) + " threads=" + std::to_string(threads);
        DefectExperimentConfig cfg;
        cfg.samples = samples;
        cfg.stuckOpenRate = 0.15;
        if (sparse) cfg.model = std::make_shared<SparseIidBernoulli>(0.15, 0.01);
        cfg.seed = 99;
        cfg.keepMappings = true;
        cfg.threads = threads;
        const auto result = runDefectExperiment(testFm(), HybridMapper(), cfg);

        const HybridMapper mapper;
        const FunctionMatrix fm = testFm();
        std::size_t seen = 0;
        forEachDefectSample(fm, cfg, [&](std::size_t s, const DefectMap&, const BitMatrix& cm) {
          const MappingResult direct = mapper.map(fm, cm);
          ASSERT_LT(s, result.mappings.size());
          EXPECT_EQ(direct.success, result.mappings[s].success) << where << " sample=" << s;
          EXPECT_EQ(direct.rowAssignment, result.mappings[s].rowAssignment)
              << where << " sample=" << s;
          ++seen;
        });
        EXPECT_EQ(seen, samples) << where;
      }
    }
  }
}

TEST(DefectExperiment, SparseSamplerPinnedSuccessCounts) {
  // Pinned regression for the sparse stream on one circuit: a refactor of
  // the binomial inversion, the 32-bit placement draws, or the redraw rule
  // would silently shift every sparse experiment. If this fails after an
  // INTENTIONAL sampler change, re-pin the counts (and expect the bench
  // JSONs to move too); an unintentional failure is a broken stream.
  const FunctionMatrix fm = testFm();
  DefectExperimentConfig cfg;
  cfg.samples = 120;
  cfg.seed = 0x5eed;
  cfg.threads = 1;
  cfg.model = std::make_shared<SparseIidBernoulli>(0.20, 0.0);
  const auto hba = runDefectExperiment(fm, HybridMapper(), cfg);
  cfg.model = std::make_shared<SparseIidBernoulli>(0.15, 0.05);
  const auto mixed = runDefectExperiment(fm, HybridMapper(), cfg);
  EXPECT_EQ(hba.successes, kPinnedSparseSuccesses);
  EXPECT_EQ(mixed.successes, kPinnedSparseMixedSuccesses);
}

/// HBA that fires the token while mapping its @p cancelAt-th sample (1 =
/// the first), after the engine's abort check for that sample has passed.
/// The sample itself still maps (the inner call runs without the token), so
/// the run stops right after it. On one engine lane the mapper sees the
/// samples in order, which makes the stop point deterministic.
class CancelOnMapCallMapper : public IMapper {
public:
  CancelOnMapCallMapper(CancelToken* token, std::size_t cancelAt)
      : token_(token), cancelAt_(cancelAt) {}
  std::string name() const override { return inner_.name(); }

private:
  MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                        MappingContext&) const override {
    if (calls_.fetch_add(1) + 1 == cancelAt_) token_->cancel();
    return inner_.map(fm, cm);
  }

  HybridMapper inner_;
  CancelToken* token_;
  std::size_t cancelAt_;
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(DefectExperiment, TokenFiringAfterTheLastSampleDoesNotLabelTheRunAborted) {
  // The token fires while the FINAL sample maps: every abort check has
  // passed, so every sample completes while the token ends the run
  // "stopped" — the race a deadline expiring between the last sample and
  // the engine's final bookkeeping produces in the wild, made deterministic.
  DefectExperimentConfig cfg;
  cfg.samples = 8;
  cfg.threads = 1;
  cfg.seed = 5;
  cfg.cancel = std::make_shared<CancelToken>();
  const CancelOnMapCallMapper mapper(cfg.cancel.get(), cfg.samples);
  const DefectExperimentResult r = runDefectExperiment(testFm(), mapper, cfg);
  // All samples ran; a fully-completed run must never be reported aborted
  // even though the token is now signalling stop.
  EXPECT_EQ(r.completed, cfg.samples);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.abortReason, "");
}

TEST(DefectExperiment, TokenFiringInsideABatchStopsAtTheNextSample) {
  // Ten samples on one lane run as batches {0-3}, {4-7}, {8-9}; the token
  // fires while sample 5 maps, in the middle of the second batch. Samples
  // 0-5 finish and are outcome-identical to an uninterrupted run; 6 and 7,
  // already drawn, are skipped by their own abort check, and batch 3 is
  // never drawn.
  DefectExperimentConfig base;
  base.samples = 10;
  base.threads = 1;
  base.seed = 77;
  base.stuckOpenRate = 0.15;
  base.keepMappings = true;
  const auto full = runDefectExperiment(testFm(), HybridMapper(), base);
  ASSERT_EQ(full.completed, base.samples);

  constexpr std::size_t kStopAfter = 6;
  DefectExperimentConfig cfg = base;
  cfg.cancel = std::make_shared<CancelToken>();
  const CancelOnMapCallMapper mapper(cfg.cancel.get(), kStopAfter);
  // Counts hits only: a plan that may fire zero times.
  faultinject::arm("mc.sample", {faultinject::Kind::Stall, 0.0, 0, 0});
  const DefectExperimentResult r = runDefectExperiment(testFm(), mapper, cfg);
  const std::uint64_t started = faultinject::hits("mc.sample");
  faultinject::reset();

  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.abortReason, "cancelled");
  EXPECT_EQ(r.completed, kStopAfter);
  EXPECT_EQ(started, kStopAfter) << "one mc.sample hit per sample started";
  std::size_t successes = 0;
  for (std::size_t s = 0; s < kStopAfter; ++s) {
    EXPECT_EQ(r.mappings[s].success, full.mappings[s].success) << "sample=" << s;
    EXPECT_EQ(r.mappings[s].rowAssignment, full.mappings[s].rowAssignment) << "sample=" << s;
    successes += r.mappings[s].success ? 1 : 0;
  }
  EXPECT_EQ(r.successes, successes);
  for (std::size_t s = kStopAfter; s < cfg.samples; ++s)
    EXPECT_TRUE(r.mappings[s].rowAssignment.empty()) << "sample=" << s << " never mapped";
}

TEST(DefectExperiment, ConcurrentExperimentsEachRecordOneSampleTime) {
  // mc.sample_ns holds one value per experiment; two experiments running at
  // once must both land in it rather than one overwriting the other.
  obs::Histogram& sampleNs = obs::Registry::global().histogram("mc.sample_ns");
  const std::uint64_t before = sampleNs.count();
  DefectExperimentConfig cfg;
  cfg.samples = 30;
  cfg.stuckOpenRate = 0.1;
  const FunctionMatrix fm = testFm();
  std::thread other([&] { runDefectExperiment(fm, HybridMapper(), cfg); });
  runDefectExperiment(fm, HybridMapper(), cfg);
  other.join();
  EXPECT_EQ(sampleNs.count(), before + 2);
  EXPECT_GT(sampleNs.snapshot().max, 0u);
}

TEST(ForEachDefectSample, DeliversRequestedSamples) {
  DefectExperimentConfig cfg;
  cfg.samples = 7;
  cfg.stuckOpenRate = 0.1;
  std::size_t calls = 0;
  const FunctionMatrix fm = testFm();
  forEachDefectSample(fm, cfg, [&](std::size_t idx, const DefectMap& d, const BitMatrix& cm) {
    EXPECT_EQ(idx, calls);
    EXPECT_EQ(d.rows(), fm.rows());
    EXPECT_EQ(cm.rows(), fm.rows());
    EXPECT_EQ(cm.cols(), fm.cols());
    ++calls;
  });
  EXPECT_EQ(calls, 7u);
}

}  // namespace
}  // namespace mcx
