// Shared threads-sweep and JSON plumbing for the defect benches.
//
// Runs one mapper's Monte Carlo experiment at every thread count of the
// sweep, emits a {"mapper", "runs": [...], "deterministic_across_threads"}
// JSON object, and reports whether the results were identical at every
// thread count (success counts always; row assignments too when
// cfg.keepMappings is set).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "map/matching.hpp"
#include "mc/defect_experiment.hpp"
#include "mc/executor.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx::benchutil {

/// 1/2/4 threads, plus hardware concurrency when it exceeds 4.
inline std::vector<std::size_t> threadsSweep() {
  std::vector<std::size_t> sweep{1, 2, 4};
  const std::size_t hw = resolveThreadCount(0);
  if (hw > 4) sweep.push_back(hw);
  return sweep;
}

/// Machine-readable output path: MCX_BENCH_JSON, or the bench's default
/// (shared by every JSON-emitting bench; previously copy-pasted).
inline std::string jsonOutputPath(const std::string& fallback) {
  const char* env = std::getenv("MCX_BENCH_JSON");
  return (env != nullptr && *env != '\0') ? env : fallback;
}

struct SweepOutcome {
  /// The result of the first (threads = sweep.front()) run.
  DefectExperimentResult reference;
  bool deterministic = true;
  double wallAt1 = 0;
};

inline SweepOutcome runThreadsSweep(const FunctionMatrix& fm, const IMapper& mapper,
                                    DefectExperimentConfig cfg,
                                    const std::vector<std::size_t>& sweep, JsonWriter& json) {
  SweepOutcome out;
  cfg.timePerSample = true;  // the benches report the paper's "Time" column
  json.beginObject();
  json.field("mapper", mapper.name());
  json.field("scenario", cfg.model ? cfg.model->describe() : std::string(kLegacyRatesLabel));
  json.key("runs").beginArray();
  for (const std::size_t threads : sweep) {
    cfg.threads = threads;
    Stopwatch watch;
    DefectExperimentResult result = runDefectExperiment(fm, mapper, cfg);
    const double wall = watch.seconds();

    json.beginObject();
    json.field("threads", threads);
    json.field("wall_seconds", wall);
    json.field("successes", result.successes);
    json.field("mean_map_millis", result.perSampleMillis.mean);
    json.endObject();

    if (threads == 1) out.wallAt1 = wall;

    if (threads == sweep.front()) {
      out.reference = std::move(result);
      continue;
    }
    if (result.successes != out.reference.successes) {
      out.deterministic = false;
    } else if (cfg.keepMappings) {
      for (std::size_t s = 0; s < result.mappings.size(); ++s)
        if (result.mappings[s].rowAssignment != out.reference.mappings[s].rowAssignment)
          out.deterministic = false;
    }
  }
  json.endArray();
  json.field("deterministic_across_threads", out.deterministic);
  json.endObject();
  return out;
}

}  // namespace mcx::benchutil
