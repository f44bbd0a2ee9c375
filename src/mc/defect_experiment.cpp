#include "mc/defect_experiment.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "mc/executor.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/stopwatch.hpp"

namespace mcx {

namespace {

/// The configured scenario, or the legacy rate-pair model when unset.
std::shared_ptr<const DefectModel> resolveModel(const DefectExperimentConfig& config) {
  if (config.model) return config.model;
  return std::make_shared<IidBernoulli>(config.stuckOpenRate, config.stuckClosedRate);
}

}  // namespace

void forEachDefectSample(const FunctionMatrix& fm, const DefectExperimentConfig& config,
                         const std::function<void(std::size_t, const DefectMap&,
                                                  const BitMatrix&)>& fn) {
  const std::shared_ptr<const DefectModel> model = resolveModel(config);
  const std::vector<Rng> streams = splitSampleStreams(config.seed, config.samples);
  const std::size_t rows = fm.rows() + config.spareRows;
  DefectMap defects;
  BitMatrix cm;
  for (std::size_t s = 0; s < config.samples; ++s) {
    Rng sampleRng = streams[s];
    model->generate(rows, fm.cols(), sampleRng, defects);
    crossbarMatrixInto(defects, cm);
    fn(s, defects, cm);
  }
}

DefectExperimentResult runDefectExperiment(const FunctionMatrix& fm, const IMapper& mapper,
                                           const DefectExperimentConfig& config) {
  DefectExperimentResult result;
  result.samples = config.samples;

  const std::shared_ptr<const DefectModel> model = resolveModel(config);
  // The RNG pre-split happens up front, unconditionally: an aborted run
  // consumes no stream a rerun would need, so cancel-then-rerun reproduces
  // the full run bit-identically (the regression surface of the committed
  // bench counts).
  const std::vector<Rng> streams = splitSampleStreams(config.seed, config.samples);
  const std::size_t rows = fm.rows() + config.spareRows;

  // Samples run in batches of `width`, drawn together (generateLanes: the
  // dense i.i.d. sweeps of up to Rng::kLanes samples advance in lockstep),
  // then mapped one by one. The width fills the batches only as far as
  // every lane still gets one: min(kLanes, ceil(samples / lanes)).
  const auto ceilDiv = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  const auto batchWidth = [&](std::size_t lanes) {
    return std::clamp<std::size_t>(ceilDiv(config.samples, lanes), 1, Rng::kLanes);
  };

  // Run on the caller's persistent pool when provided (the service shares
  // one across requests); otherwise on a transient pool sized by the
  // historical threads knob, capped at one lane per batch.
  std::optional<ExecutorPool> localPool;
  ExecutorPool* pool = config.pool;
  std::size_t width = 0;
  if (pool == nullptr) {
    const std::size_t threads = resolveThreadCount(config.threads);
    width = batchWidth(threads);
    localPool.emplace(
        std::min(threads, std::max<std::size_t>(ceilDiv(config.samples, width), 1)));
    pool = &*localPool;
  } else {
    width = batchWidth(pool->slots());
  }
  const std::size_t batches = ceilDiv(config.samples, width);
  const CancelToken* token = config.cancel.get();

  struct PerSample {
    bool done = false;  ///< sample actually ran (false after an abort)
    bool success = false;
    bool accepted = false;  ///< realized error within config.epsilon
    std::size_t backtracks = 0;
    double millis = 0;
    double error = 0;  ///< realizedErrorOrBinary() of the sample's mapping
  };
  std::vector<PerSample> outcomes(config.samples);
  if (config.keepMappings) result.mappings.resize(config.samples);

  // Per-worker scratch arenas: the batch's streams and DefectMaps, the
  // crossbar BitMatrix, and mapping-context buffers are reused across every
  // sample a worker processes. Each sample's outcome depends only on its own
  // stream, so results stay independent of the thread count and the batch
  // width.
  struct Scratch {
    std::array<Rng, Rng::kLanes> rngs;
    std::array<DefectMap, Rng::kLanes> defects;
    BitMatrix cm;
    MappingContext ctx;
  };
  std::vector<Scratch> scratch(pool->slots());

  Stopwatch wall;
  obs::Span mcSpan("mc_experiment");
  pool->run(batches, [&](std::size_t worker, std::size_t batch) {
    // Cooperative abort: a fired token skips the rest of the run. The check
    // runs before each batch's draw and again before each of its samples;
    // a skipped sample's outcome stays !done, and samples already past the
    // check finish normally, so scratch arenas and results are never left
    // mid-sample.
    if (token != nullptr && token->stopRequested()) return;
    Scratch& sc = scratch[worker];
    const std::size_t first = batch * width;
    const std::size_t count = std::min(width, config.samples - first);
    std::copy_n(streams.begin() + static_cast<std::ptrdiff_t>(first), count, sc.rngs.begin());
    model->generateLanes(rows, fm.cols(), std::span(sc.rngs).first(count),
                         std::span(sc.defects).first(count));
    sc.ctx.setExecution(token, pool);

    for (std::size_t lane = 0; lane < count; ++lane) {
      if (token != nullptr && token->stopRequested()) return;
      faultinject::onSite("mc.sample");
      const std::size_t s = first + lane;
      crossbarMatrixInto(sc.defects[lane], sc.cm);

      double sec = 0;
      MappingResult mapping;
      if (config.timePerSample) {
        Stopwatch watch;
        mapping = mapper.map(fm, sc.cm, sc.ctx);
        sec = watch.seconds();
      } else {
        mapping = mapper.map(fm, sc.cm, sc.ctx);
      }

      // A mapper interrupted mid-solve reached no verdict: leave the sample
      // unrecorded (!done), exactly like the pre-sample token check above —
      // an aborted run's recorded samples are a subset of an uninterrupted
      // rerun's, outcome-identical sample by sample (streams are pre-split).
      if (mapping.aborted) continue;

      // Every claimed success is verified against the matching rules
      // (cheap), so an experiment cannot silently report invalid mappings.
      // Graded partial mappings carry a physical claim too (the retained
      // rows really fit their CM rows).
      if (mapping.success)
        MCX_REQUIRE(verifyMapping(fm, sc.cm, mapping),
                    "runDefectExperiment: mapper returned an invalid mapping");
      if (!mapping.success && !mapping.droppedRows.empty())
        MCX_REQUIRE(verifyPartialMapping(fm, sc.cm, mapping),
                    "runDefectExperiment: mapper returned an invalid partial mapping");

      PerSample& out = outcomes[s];
      out.done = true;
      out.success = mapping.success;
      out.error = mapping.realizedErrorOrBinary();
      out.accepted = out.error <= config.epsilon;
      out.backtracks = mapping.backtracks;
      out.millis = sec * 1e3;
      if (config.keepMappings) result.mappings[s] = std::move(mapping);
    }
  }, token);
  mcSpan.finish();
  const double wallSeconds = wall.seconds();

  // Merge per-sample outcomes deterministically, in sample order; skipped
  // samples of an aborted run contribute nothing.
  for (std::size_t s = 0; s < config.samples; ++s) {
    const PerSample& out = outcomes[s];
    if (!out.done) continue;
    ++result.completed;
    if (out.success) ++result.successes;
    if (out.accepted) {
      ++result.epsilonAccepted;
      if (!out.success) ++result.rescued;
    }
    result.totalRealizedError += out.error;
    result.totalBacktracks += out.backtracks;
  }

  // Engine throughput telemetry: once per experiment, off the sample path.
  {
    static obs::Counter& experiments = obs::Registry::global().counter("mc.experiments");
    static obs::Counter& samplesRun = obs::Registry::global().counter("mc.samples");
    // One value per experiment (wall ns per completed sample), so concurrent
    // experiments each leave their own record instead of overwriting a gauge.
    static obs::Histogram& sampleNs = obs::Registry::global().histogram("mc.sample_ns");
    experiments.add(1);
    samplesRun.add(result.completed);
    if (result.completed > 0)
      sampleNs.recordSeconds(wallSeconds / static_cast<double>(result.completed));
  }

  // Label the abort only when the token actually cut the run short. The
  // completed count is the ground truth: a deadline that expires between
  // the last sample finishing and this check did not abort anything, and
  // the full result must not be reported as an error.
  if (token != nullptr && result.completed < config.samples) {
    const CancelToken::StopReason reason = token->reason();
    if (reason != CancelToken::StopReason::None) {
      result.aborted = true;
      result.abortReason = CancelToken::reasonLabel(reason);
    }
  }
  if (config.timePerSample) {
    // totalSeconds = summed mapper time (the paper's "Time" column).
    std::vector<double> millis;
    millis.reserve(result.completed);
    for (std::size_t s = 0; s < config.samples; ++s) {
      if (!outcomes[s].done) continue;
      millis.push_back(outcomes[s].millis);
      result.totalSeconds += outcomes[s].millis / 1e3;
    }
    result.perSampleMillis = summarize(millis);
  } else {
    result.totalSeconds = wallSeconds;
  }
  return result;
}

}  // namespace mcx
