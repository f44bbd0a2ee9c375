// The Monte Carlo sample loop replayed outside the engine, one public call
// per layer, so each layer can be timed from the outside (engine.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/pipeline.hpp"
#include "harness.hpp"
#include "map/matching.hpp"
#include "scenario/defect_model.hpp"

namespace perf {

/// Per-cube conflict budget of every sat request the benchmark sends. Low
/// enough that a budget-exhausted sample costs ~10 ms, so a run holds
/// thousands of samples and the share of exhausted ones repeats across
/// seeds.
constexpr std::uint64_t kSatConflictLimit = 100;

/// The mapper spec of those requests.
std::string satMapperSpec();

/// One experiment declaration, resolved: what the engine runs.
struct EngineCell {
  std::string id;
  std::shared_ptr<const mcx::Circuit> circuit;
  std::shared_ptr<const mcx::IMapper> mapper;
  /// The model the engine draws with (the legacy rate pair as an explicit
  /// IidBernoulli, which is draw-for-draw the engine's null-model path).
  std::shared_ptr<const mcx::DefectModel> drawer;
  std::size_t spare = 0;
  bool exact = false;  ///< ea / fast-ea: every verdict is a proof
  bool sat = false;    ///< the sat mapper at kSatConflictLimit

  /// Classify the mapper by name (HBA, EA, EA-fast, SAT).
  void classify();
};

/// Per-layer totals accumulated over traced replays.
struct ReplayTotals {
  std::size_t samples = 0;
  std::size_t successes = 0;
  std::size_t backtracks = 0;
  std::size_t defects = 0;
  double generateNs = 0, crossbarNs = 0, adjacencyNs = 0, matchNs = 0, verifyNs = 0;
  std::size_t satCalls = 0;
  std::uint64_t satConflicts = 0;
  std::vector<double> satVerdictMs;
  double wallNs = 0;  ///< replay wall time, the sat oracle excluded
};

/// Replay one request (samples, seed) of @p cell sample by sample on the
/// engine's pre-split streams: DefectModel::generateTracked,
/// crossbarMatrixInto, MappingContext::candidateAdjacency, IMapper::map
/// (or, for sat cells, sat::encodeMatching / generateCubes / solveCubes)
/// and verifyMapping, each in its own span. With @p oracle, the first sample
/// of a non-sat cell is also solved by the sat layer and the verdicts are
/// cross-checked. Returns the successes.
std::size_t replayTraced(const EngineCell& cell, std::size_t samples, std::uint64_t seed,
                         Tracer* tracer, ReplayTotals& totals, bool oracle, Report& report);

/// Samples of a sat request that got an exact verdict within the budget:
/// every mapped sample, plus every unmapped one the sat layer proves
/// unsatisfiable. Each verdict is checked against Hopcroft-Karp (fast-ea)
/// on the same sample; @p mapped holds the engine's per-sample successes.
std::size_t satDecided(const EngineCell& cell, std::size_t samples, std::uint64_t seed,
                       const std::vector<bool>& mapped, Report& report);

/// The engine-layer per_layer metrics from replay totals;
/// @p engineNsPerSample is the untraced engine's cost on the same requests.
void writeEngineMetrics(Report& report, const ReplayTotals& totals, double engineNsPerSample,
                        const std::map<std::string, Tracer::Layer>& layers);

}  // namespace perf
