#include "sat/sat_mapper.hpp"

#include "sat/cnf.hpp"
#include "sat/cube.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mcx {

MappingResult SatMapper::mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                 MappingContext& ctx) const {
  faultinject::onSite("sat.solve");

  MappingResult result;
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm.bits(), cm);
  const sat::MatchingCnf enc = sat::encodeMatching(adjacency);
  if (enc.trivialUnsat) return result;  // an FM row with zero candidates

  sat::SolverOptions base;
  base.conflictLimit = options_.conflictLimit;
  base.learn = options_.learn;
  base.cancel = ctx.cancelToken();

  ExecutorPool* pool = options_.parallelCubes ? ctx.pool() : nullptr;

  const std::vector<sat::Cube> cubes = sat::generateCubes(enc, options_.cubeDepth);
  sat::CubeOutcome outcome = sat::solveCubes(enc.cnf, cubes, base, pool);

  switch (outcome.verdict) {
    case sat::Verdict::Sat:
      result.success = sat::decodeModel(enc, outcome.model, result.rowAssignment);
      MCX_REQUIRE(result.success, "SatMapper: SAT model failed to decode to a valid placement");
      break;
    case sat::Verdict::Unsat:
      break;  // proven unmappable
    case sat::Verdict::Unknown:
      // Interrupted (deadline/cancel): no verdict — the engine drops the
      // sample. Budget-exhausted: counted as a failure, documented in
      // SatMapperOptions::conflictLimit.
      result.aborted = outcome.interrupted;
      break;
  }
  return result;
}

}  // namespace mcx
