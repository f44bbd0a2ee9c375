#include "engine.hpp"

#include "map/fast_exact_mapper.hpp"
#include "mc/executor.hpp"
#include "sat/cnf.hpp"
#include "sat/cube.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace perf {

using namespace mcx;

namespace {

constexpr std::size_t kSatCubeDepth = 2;  // SatMapperOptions' default split

/// Per-sample scratch, reused across samples like the engine's arenas.
struct Scratch {
  DefectMap defects;
  DirtyRows dirty;
  BitMatrix cm;
  MappingContext ctx;
};

Scratch& scratch() {
  static Scratch sc;
  return sc;
}

struct SatCall {
  sat::Verdict verdict = sat::Verdict::Unknown;
  bool success = false;  ///< a decoded, valid placement
  std::uint64_t conflicts = 0;
};

/// SatMapper::map's steps through the sat layer's public functions.
SatCall satSolve(const BitMatrix& adjacency, Tracer* tracer, std::int32_t parent) {
  SatCall call;
  sat::MatchingCnf enc;
  {
    Scope s(tracer, "sat.encode", parent);
    enc = sat::encodeMatching(adjacency);
  }
  if (enc.trivialUnsat) {
    call.verdict = sat::Verdict::Unsat;
    return call;
  }
  std::vector<sat::Cube> cubes;
  {
    Scope s(tracer, "sat.cube", parent);
    cubes = sat::generateCubes(enc, kSatCubeDepth);
  }
  sat::SolverOptions base;
  base.conflictLimit = kSatConflictLimit;
  sat::CubeOutcome outcome;
  {
    Scope s(tracer, "sat.solve", parent);
    outcome = sat::solveCubes(enc.cnf, cubes, base, nullptr);
  }
  call.verdict = outcome.verdict;
  call.conflicts = outcome.stats.conflicts;
  if (outcome.verdict == sat::Verdict::Sat) {
    std::vector<std::size_t> assignment;
    call.success = sat::decodeModel(enc, outcome.model, assignment);
  }
  return call;
}

/// Draw sample @p stream of @p cell into the scratch and register it.
void draw(const EngineCell& cell, Rng rng, Scratch& sc) {
  const FunctionMatrix& fm = cell.circuit->fm;
  cell.drawer->generateTracked(fm.rows() + cell.spare, fm.cols(), rng, sc.defects, sc.dirty);
  crossbarMatrixInto(sc.defects, sc.cm);
  sc.ctx.setSample(&sc.defects, &sc.dirty);
}

double elapsed(std::uint64_t from, std::uint64_t to) { return static_cast<double>(to - from); }

}  // namespace

std::string satMapperSpec() {
  return R"({"mapper":"sat","conflictLimit":)" + std::to_string(kSatConflictLimit) + "}";
}

void EngineCell::classify() {
  const std::string name = mapper->name();
  exact = name == "EA" || name == "EA-fast";
  sat = name == "SAT";
}

std::size_t replayTraced(const EngineCell& cell, std::size_t samples, std::uint64_t seed,
                         Tracer* tracer, ReplayTotals& totals, bool oracle, Report& report) {
  Scratch& sc = scratch();
  const FunctionMatrix& fm = cell.circuit->fm;
  const std::size_t rows = fm.rows() + cell.spare;
  const std::vector<Rng> streams = splitSampleStreams(seed, samples);
  const Scope request(tracer, "mc.request");
  std::size_t successes = 0;
  double oracleNs = 0;
  const std::uint64_t start = nowNs();
  for (std::size_t s = 0; s < samples; ++s) {
    const Scope sample(tracer, "mc.sample", request.id());
    Rng rng = streams[s];
    const std::uint64_t t0 = nowNs();
    {
      Scope span(tracer, "scenario.generate", sample.id());
      cell.drawer->generateTracked(rows, fm.cols(), rng, sc.defects, sc.dirty);
    }
    const std::uint64_t t1 = nowNs();
    {
      Scope span(tracer, "xbar.crossbar", sample.id());
      crossbarMatrixInto(sc.defects, sc.cm);
    }
    const std::uint64_t t2 = nowNs();
    sc.ctx.setSample(&sc.defects, &sc.dirty);
    sc.ctx.setExecution(nullptr, nullptr);
    const BitMatrix* adjacency = nullptr;
    {
      Scope span(tracer, "map.adjacency", sample.id());
      adjacency = &sc.ctx.candidateAdjacency(fm.bits(), sc.cm);
    }
    const std::uint64_t t3 = nowNs();
    MappingResult mapping;
    SatCall satCall;
    {
      Scope span(tracer, "map.map", sample.id());
      if (cell.sat) {
        // SatMapper's own candidateAdjacency call is the one just timed.
        satCall = satSolve(*adjacency, tracer, span.id());
        mapping.success = satCall.success;
      } else {
        mapping = cell.mapper->map(fm, sc.cm, sc.ctx);
      }
    }
    const std::uint64_t t4 = nowNs();
    if (mapping.success && !cell.sat) {
      Scope span(tracer, "map.verify", sample.id());
      if (!verifyMapping(fm, sc.cm, mapping)) report.fail(cell.id + ": replayed mapping invalid");
    }
    const std::uint64_t t5 = nowNs();
    totals.generateNs += elapsed(t0, t1);
    totals.crossbarNs += elapsed(t1, t2);
    totals.adjacencyNs += elapsed(t2, t3);
    // Mappers recompute the adjacency inside map(): match time is the map
    // span minus that recompute (the sat steps reuse the timed one).
    totals.matchNs += elapsed(t3, t4) - (cell.sat ? 0.0 : elapsed(t2, t3));
    totals.verifyNs += elapsed(t4, t5);
    if (cell.sat) {
      ++totals.satCalls;
      totals.satConflicts += satCall.conflicts;
      totals.satVerdictMs.push_back(elapsed(t2, t4) / 1e6);
    }
    totals.backtracks += mapping.backtracks;
    totals.defects += sc.defects.stuckOpenCount() + sc.defects.stuckClosedCount();
    if (mapping.success) ++successes;

    if (oracle && s == 0 && !cell.sat) {
      const std::uint64_t o0 = nowNs();
      const Scope span(tracer, "sat.oracle", sample.id());
      const SatCall verdict =
          satSolve(sc.ctx.candidateAdjacency(fm.bits(), sc.cm), tracer, span.id());
      const std::uint64_t o1 = nowNs();
      ++totals.satCalls;
      totals.satConflicts += verdict.conflicts;
      totals.satVerdictMs.push_back(elapsed(o0, o1) / 1e6);
      if (verdict.verdict == sat::Verdict::Sat && cell.exact && !mapping.success)
        report.fail(cell.id + ": exact mapper missed a placement the sat layer found");
      if (verdict.verdict == sat::Verdict::Unsat && mapping.success)
        report.fail(cell.id + ": mapped a sample the sat layer proved unmappable");
      oracleNs += elapsed(o0, o1);
    }
  }
  totals.wallNs += elapsed(start, nowNs()) - oracleNs;
  totals.samples += samples;
  totals.successes += successes;
  return successes;
}

std::size_t satDecided(const EngineCell& cell, std::size_t samples, std::uint64_t seed,
                       const std::vector<bool>& mapped, Report& report) {
  static const FastExactMapper fastEa;
  Scratch& sc = scratch();
  const FunctionMatrix& fm = cell.circuit->fm;
  const std::vector<Rng> streams = splitSampleStreams(seed, samples);
  std::size_t decided = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    draw(cell, streams[s], sc);
    sc.ctx.setExecution(nullptr, nullptr);
    const bool hk = fastEa.map(fm, sc.cm, sc.ctx).success;
    if (s < mapped.size() && mapped[s]) {
      ++decided;
      if (!hk) report.fail(cell.id + ": SAT mapped a sample Hopcroft-Karp cannot map");
      continue;
    }
    const SatCall call = satSolve(sc.ctx.candidateAdjacency(fm.bits(), sc.cm), nullptr, -1);
    if (call.verdict == sat::Verdict::Sat)
      report.fail(cell.id + ": the engine failed a sample the sat layer solves");
    if (call.verdict == sat::Verdict::Unsat) {
      ++decided;
      if (hk) report.fail(cell.id + ": SAT proved unmappable a sample Hopcroft-Karp maps");
    }
  }
  return decided;
}

void writeEngineMetrics(Report& report, const ReplayTotals& t, double engineNsPerSample,
                        const std::map<std::string, Tracer::Layer>& layers) {
  const double n = std::max<double>(1, static_cast<double>(t.samples));
  report.metric("scenario.generate_ns", t.generateNs / n, "ns");
  report.metric("scenario.defects_per_sample", static_cast<double>(t.defects) / n, "count");
  report.metric("xbar.crossbar_ns", t.crossbarNs / n, "ns");
  report.metric("map.adjacency_ns", t.adjacencyNs / n, "ns");
  report.metric("map.match_ns", t.matchNs / n, "ns");
  report.metric("map.verify_ns", t.verifyNs / n, "ns");
  report.metric("map.backtracks_per_sample", static_cast<double>(t.backtracks) / n, "count");
  report.metric("map.success_ratio", static_cast<double>(t.successes) / n, "share");
  const double phases = t.generateNs + t.crossbarNs + t.adjacencyNs + t.matchNs + t.verifyNs;
  report.metric("mc.residual_ns", engineNsPerSample - phases / n, "ns");
  report.metric("sat.encode_us", meanSelf(layers, "sat.encode", 1e3), "us");
  report.metric("sat.cube_us", meanSelf(layers, "sat.cube", 1e3), "us");
  report.metric("sat.solve_us", meanSelf(layers, "sat.solve", 1e3), "us");
  report.metric("sat.conflicts_per_sample",
                t.satCalls ? static_cast<double>(t.satConflicts) / static_cast<double>(t.satCalls)
                           : 0,
                "count");
  report.metric("sat.verdict_ms_p99", quantile(t.satVerdictMs, 0.99), "ms");
}

}  // namespace perf
