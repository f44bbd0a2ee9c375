// The Monte Carlo workloads: mc-paper, mc-cliff and sat-exact.
//
// Each is a list of cells (circuit x mapper x defect scenario). A run walks
// seeded rounds over the cells; every cell gets one heavy request (a full
// yield estimate) and one light request (a quick one) per round, each a
// single runDefectExperiment call on one engine lane. Cells of one group
// (same circuit and scenario, different mapper) draw identical samples.
//
// The untraced pass times the engine calls. The traced pass replays each
// request outside the engine through the layers' public functions, with a
// span around every call (scenario, xbar, map, verify, sat), right after
// timing the same request through the engine.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <tuple>

#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "engine.hpp"
#include "harness.hpp"
#include "map/registry.hpp"
#include "mc/defect_experiment.hpp"
#include "scenario/registry.hpp"
#include "serve.hpp"
#include "util/rng.hpp"

namespace perf {

namespace {

using namespace mcx;

/// The traced pass cross-checks mappers with the sat layer on circuits up
/// to this many rows (larger ones take the budgeted solver seconds).
constexpr std::size_t kOracleMaxRows = 150;

struct CellDecl {
  std::string circuit;   ///< preset name or circuit spec JSON
  std::string mapper;    ///< mapper name or spec JSON
  std::string scenario;  ///< model spec JSON; empty = legacy rate pair at `open`
  double open = 0.10;
  std::size_t spare = 0;
  std::size_t group = 0;
};

struct WorkloadDef {
  std::vector<CellDecl> cells;
  std::size_t lightSamples = 10;
  std::size_t heavySamples = 100;
  /// The pinned reference pass: every cell once at this seed and size.
  std::uint64_t referenceSeed = 0;
  std::size_t referenceSamples = 0;
};

std::string sparse(double open, double closed = 0) {
  std::ostringstream out;
  out << R"({"model":"iid-sparse","open":)" << open;
  if (closed > 0) out << R"(,"closed":)" << closed;
  out << "}";
  return out.str();
}

WorkloadDef defineWorkload(const std::string& name) {
  WorkloadDef def;
  if (name == "mc-paper") {
    // Table II as the paper runs it (the table2 suite's configuration).
    std::size_t group = 0;
    for (const BenchmarkInfo& info : paperBenchmarks()) {
      if (!info.inTable2) continue;
      const std::string circuit = R"({"circuit":")" + info.name + R"(","synth":"espresso"})";
      for (const char* mapper : {"hba", "ea"})
        def.cells.push_back({circuit, mapper, "", 0.10, 0, group});
      ++group;
    }
    def.lightSamples = 10;
    def.heavySamples = 100;
    def.referenceSeed = 0x7ab1e2;  // BENCH_table2_defect_mc.json's seed and size
    def.referenceSamples = 200;
  } else if (name == "mc-cliff") {
    // Multi-level crossbars map nearly every sample at any stuck-open rate
    // below the sparse draw's cutoff; a trickle of stuck-closed defects puts
    // them on a cliff instead.
    const std::vector<CellDecl> groups = {
        {"rd84", "", sparse(0.10), 0, 0, 0},
        {"rd84", "", sparse(0.12), 0, 0, 1},
        {"rd73", "", sparse(0.10), 0, 0, 2},
        {"rd73", "", sparse(0.12), 0, 0, 3},
        {"apex4", "", sparse(0.16), 0, 0, 4},
        {R"({"circuit":"bw","realize":"multilevel"})", "", sparse(0.20, 0.00001), 0, 0, 5},
        {R"({"circuit":"rd84","realize":"multilevel"})", "", sparse(0.24, 0.00003), 0, 0, 6},
        {"rd73", "", R"({"model":"clustered","density":0.0005,"spread":0.8,"closedShare":0.05})",
         0, 16, 7},
    };
    for (const CellDecl& g : groups)
      for (const char* mapper : {"hba", "fast-ea"}) {
        CellDecl cell = g;
        cell.mapper = mapper;
        def.cells.push_back(cell);
      }
    def.lightSamples = 10;
    def.heavySamples = 100;
    def.referenceSeed = 0xc11ff;
    def.referenceSamples = 100;
  } else if (name == "sat-exact") {
    std::size_t group = 0;
    for (const char* circuit : {"rd53", "sao2"})
      for (const double open : {0.10, 0.15})
        def.cells.push_back({circuit, satMapperSpec(), "", open, 0, group++});
    def.lightSamples = 2;
    def.heavySamples = 6;
    def.referenceSeed = 0x5a7;
    def.referenceSamples = 40;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return def;
}

struct Cell {
  CellDecl decl;
  CircuitSpec spec;
  std::shared_ptr<const DefectModel> model;  ///< null = the legacy rate pair
  EngineCell engine;
};

std::string cellId(const CellDecl& d) {
  std::string circuit = d.circuit;
  if (circuit.front() == '{') {
    const SpecValue spec = parseSpec(circuit);
    circuit = spec.stringOr("circuit", "?");
    if (spec.stringOr("realize", "") == "multilevel") circuit += "-ml";
  }
  const std::string mapper =
      d.mapper.front() == '{' ? parseSpec(d.mapper).stringOr("mapper", "?") : d.mapper;
  std::ostringstream out;
  out << circuit << "|" << mapper << "|";
  if (d.scenario.empty()) {
    out << "legacy-" << d.open;
  } else {
    const SpecValue model = parseSpec(d.scenario);
    out << model.stringOr("model", "?") << "-"
        << model.numberOr("open", model.numberOr("density", 0));
    if (model.numberOr("closed", 0) > 0) out << "+closed" << model.numberOr("closed", 0);
  }
  if (d.spare > 0) out << "+spare" << d.spare;
  return out.str();
}

/// Set-up: compile every circuit (uncached: the real pipeline) and resolve
/// mappers and scenarios through the registries.
std::vector<Cell> setUp(const WorkloadDef& def) {
  std::vector<Cell> cells;
  std::map<std::string, std::shared_ptr<const Circuit>> compiled;
  for (const CellDecl& d : def.cells) {
    Cell cell;
    cell.decl = d;
    cell.spec = makeCircuitSpec(d.circuit);
    std::shared_ptr<const Circuit>& circuit = compiled[cell.spec.canonical()];
    if (!circuit) circuit = compileCircuit(cell.spec, /*useCache=*/false);
    if (!d.scenario.empty()) cell.model = makeScenario(d.scenario);
    EngineCell& e = cell.engine;
    e.id = cellId(d);
    e.circuit = circuit;
    e.mapper = makeMapper(d.mapper);
    e.drawer = cell.model ? cell.model : std::make_shared<IidBernoulli>(d.open, 0.0);
    e.spare = d.spare;
    e.classify();
    cells.push_back(std::move(cell));
  }
  return cells;
}

DefectExperimentConfig configFor(const Cell& cell, std::size_t samples, std::uint64_t seed) {
  DefectExperimentConfig cfg;
  cfg.samples = samples;
  cfg.seed = seed;
  cfg.stuckOpenRate = cell.decl.open;
  cfg.model = cell.model;
  cfg.spareRows = cell.decl.spare;
  cfg.threads = 1;  // one engine lane
  cfg.keepMappings = cell.engine.sat;
  return cfg;
}

struct Request {
  std::size_t cell = 0;
  std::size_t round = 0;
  bool heavy = false;
  std::size_t samples = 0;
  std::uint64_t seed = 0;
};

/// The deterministic request sequence: round r visits every cell in a
/// seeded order, a heavy request then a light one.
class Plan {
public:
  Plan(const WorkloadDef& def, std::uint64_t seed) : def_(def), seed_(seed) {}
  Request next() {
    if (pos_ == order_.size() * 2) {
      if (!order_.empty()) ++round_;
      order_.resize(def_.cells.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      Rng rng(derive(seed_, round_, 0x07de7));
      rng.shuffle(order_);
      pos_ = 0;
    }
    Request r;
    r.cell = order_[pos_ / 2];
    r.round = round_;
    r.heavy = pos_ % 2 == 0;
    r.samples = r.heavy ? def_.heavySamples : def_.lightSamples;
    // 53 bits: every seed is exact as a JSON number (the served slice).
    r.seed = derive(seed_, round_, def_.cells[r.cell].group, r.heavy ? 1 : 2) >> 11;
    ++pos_;
    return r;
  }

private:
  const WorkloadDef& def_;
  std::uint64_t seed_;
  std::size_t round_ = 0;
  std::size_t pos_ = 0;
  std::vector<std::size_t> order_;
};

/// Declaration of one request as a service JSON line (the served slice).
std::string requestLine(const Cell& cell, const Request& req, const std::string& id) {
  const auto member = [](const std::string& v) { return v.front() == '{' ? v : "\"" + v + "\""; };
  std::ostringstream out;
  out << R"({"id":")" << id << R"(","circuit":)" << member(cell.decl.circuit)
      << R"(,"mapper":)" << member(cell.decl.mapper);
  if (cell.decl.scenario.empty())
    out << R"(,"open":)" << cell.decl.open;
  else
    out << R"(,"scenario":)" << cell.decl.scenario;
  out << R"(,"samples":)" << req.samples << R"(,"seed":)" << req.seed;
  if (cell.decl.spare > 0) out << R"(,"spare_rows":)" << cell.decl.spare;
  out << "}";
  return out.str();
}

/// Traced compile of each distinct circuit through the pipeline's two
/// stages: spans circuit.compile > {logic.synth, circuit.realize}.
void traceCompile(const std::vector<Cell>& cells, Tracer& tracer) {
  std::map<std::string, const CircuitSpec*> distinct;
  for (const Cell& cell : cells) distinct.emplace(cell.spec.canonical(), &cell.spec);
  for (const auto& [key, spec] : distinct) {
    const Scope compile(&tracer, "circuit.compile");
    SynthesizedCover cover;
    {
      Scope s(&tracer, "logic.synth", compile.id());
      cover = buildSynthesizedCover(*spec);
    }
    Scope s(&tracer, "circuit.realize", compile.id());
    const Circuit circuit = realizeCircuit(*spec, cover);
    (void)circuit;
  }
}

/// The run is cut into kSlices equal stretches of time; a latency
/// percentile is the median of the per-slice percentiles, so a stretch in
/// which the host stalled moves it little.
constexpr std::size_t kSlices = 5;

double slicedQuantile(const std::vector<std::pair<std::size_t, double>>& timed, double q) {
  std::vector<std::vector<double>> slices(kSlices);
  for (const auto& [slice, ms] : timed) slices[slice].push_back(ms);
  std::vector<double> perSlice;
  for (std::vector<double>& values : slices)
    if (!values.empty()) perSlice.push_back(quantile(std::move(values), q));
  return median(perSlice);
}

}  // namespace

void runMcWorkload(const Options& options, Report& report) {
  const WorkloadDef def = defineWorkload(options.workload);

  // Set-up, several times over and spread across the run, so that the
  // median (the metric) rests on the same stretches of host speed as the
  // measured requests. Only the first set-up's cells are used. Every time
  // metric is scaled to the reference host by host probes (hostSlowdown):
  // a set-up by the probe that follows it.
  std::vector<double> setups, slowdowns;
  const auto probe = [&]() { return slowdowns.emplace_back(hostSlowdown()); };
  const auto setUpOnce = [&]() {
    const std::uint64_t t0 = nowNs();
    std::vector<Cell> fresh = setUp(def);
    // Warm-up: one heavy request per cell at a fixed seed, so lazy state
    // (allocations, per-circuit indexes) is built before timing.
    for (const Cell& cell : fresh)
      runDefectExperiment(cell.engine.circuit->fm, *cell.engine.mapper,
                          configFor(cell, def.heavySamples, 0x3a53));
    const double seconds = static_cast<double>(nowNs() - t0) / 1e9;
    setups.push_back(seconds / probe());
    return fresh;
  };
  const std::vector<Cell> cells = setUpOnce();

  Plan plan(def, options.seed);
  // Latency of each request class, with the slice of the run it started in;
  // those of the current round wait for the probe at its end. A round is
  // scaled by the mean of the probes before and after it.
  std::vector<std::pair<std::size_t, double>> lightMs, heavyMs;
  std::vector<std::tuple<bool, std::size_t, double>> roundMs;
  const auto closeRound = [&]() {
    const double before = slowdowns.back();
    const double slowdown = (before + probe()) / 2;
    for (const auto& [heavy, slice, ms] : roundMs)
      (heavy ? heavyMs : lightMs).push_back({slice, ms / slowdown});
    roundMs.clear();
    return slowdown;
  };
  double engineNs = 0;
  std::size_t engineSamples = 0, requests = 0;
  // Every round carries the same cells and sizes (only the seeds differ), so
  // per-round rates are comparable; their median, each scaled by the probes
  // around the round, is the throughput, robust to a slow stretch of the host
  // inside the run. The last, partial round is left out.
  std::vector<double> roundSamplesPerS;
  double roundNs = 0;
  std::size_t round = 0, roundSamples = 0;
  std::size_t decided = 0;
  ReplayTotals replay;
  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;
  if (tr != nullptr) tracer.reserve(1 << 21);
  std::vector<std::string> sliceLines;
  // Per-sample successes of sat requests, for the verdict audit; only the
  // flags are kept, so peak memory does not grow with throughput.
  std::vector<std::pair<Request, std::vector<bool>>> satAudits;
  // The sat oracle runs once per cell, on circuits small enough for it.
  std::vector<bool> oracled(cells.size(), false);
  // hba and exact successes per (round, group, heavy): identical samples,
  // so hba can never map more than the exact mapper. An entry is checked and
  // dropped once both have run.
  std::map<std::tuple<std::size_t, std::size_t, bool>, std::pair<long, long>> pairs;

  const std::uint64_t start = nowNs();
  const std::uint64_t span = static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t deadline = start + span;
  const auto sliceOf = [&](std::uint64_t t) {
    return std::min<std::size_t>(kSlices - 1,
                                 (t - start) * kSlices / std::max<std::uint64_t>(1, span));
  };
  while (nowNs() < deadline) {
    if (nowNs() >= start + setups.size() * span / kSetupRepeats) setUpOnce();
    const Request req = plan.next();
    if (req.round != round) {
      const double slowdown = closeRound();
      roundSamplesPerS.push_back(static_cast<double>(roundSamples) / (roundNs / 1e9) * slowdown);
      round = req.round;
      roundNs = 0;
      roundSamples = 0;
    }
    const Cell& cell = cells[req.cell];
    const EngineCell& e = cell.engine;
    const std::uint64_t t0 = nowNs();
    const DefectExperimentResult res =
        runDefectExperiment(e.circuit->fm, *e.mapper, configFor(cell, req.samples, req.seed));
    const double ns = static_cast<double>(nowNs() - t0);
    ++requests;
    engineNs += ns;
    engineSamples += res.completed;
    roundNs += ns;
    roundSamples += res.completed;
    roundMs.emplace_back(req.heavy, sliceOf(t0), ns / 1e6);
    if (res.completed != req.samples || res.aborted) report.fail(e.id + ": request incomplete");

    if (!e.sat) {
      auto [slot, fresh] = pairs.try_emplace({req.round, cell.decl.group, req.heavy}, -1, -1);
      (void)fresh;
      auto& [hbaSuccesses, exactSuccesses] = slot->second;
      (e.exact ? exactSuccesses : hbaSuccesses) = static_cast<long>(res.successes);
      if (hbaSuccesses >= 0 && exactSuccesses >= 0) {  // both mappers ran these samples
        report.check(hbaSuccesses <= exactSuccesses,
                     "hba mapped more samples than the exact mapper");
        pairs.erase(slot);
      }
    }

    if (tr != nullptr) {
      const bool oracle = !oracled[req.cell] && e.circuit->fm.rows() <= kOracleMaxRows;
      oracled[req.cell] = true;
      const std::size_t replayed =
          replayTraced(e, req.samples, req.seed, tr, replay, oracle, report);
      if (replayed != res.successes)
        report.fail(e.id + ": traced replay disagrees with the engine");
      if (!req.heavy && sliceLines.size() < 64)
        sliceLines.push_back(requestLine(cell, req, "slice-" + std::to_string(sliceLines.size())));
    } else if (e.sat) {
      std::vector<bool> mapped;  // checked after the timed loop
      for (const MappingResult& m : res.mappings) mapped.push_back(m.success);
      satAudits.push_back({req, std::move(mapped)});
    } else {
      decided += e.exact ? res.completed : res.successes;
    }
  }
  const double lastSlowdown = closeRound();  // the last, partial round
  while (setups.size() < kSetupRepeats) setUpOnce();  // a run shorter than its set-ups
  report.metric("setup_s", median(setups), "s");
  for (const auto& [req, mapped] : satAudits)
    decided += satDecided(cells[req.cell].engine, req.samples, req.seed, mapped, report);
  report.attempted(requests);

  // Pinned reference pass (untimed): every cell once at the fixed seed.
  for (const Cell& cell : cells) {
    DefectExperimentConfig cfg = configFor(cell, def.referenceSamples, def.referenceSeed);
    cfg.keepMappings = false;
    const DefectExperimentResult res =
        runDefectExperiment(cell.engine.circuit->fm, *cell.engine.mapper, cfg);
    report.reference(cell.engine.id, res.successes);
  }

  const double engineSeconds = engineNs / 1e9;
  std::cerr << options.workload << ": " << requests << " requests, " << engineSamples
            << " samples in " << engineSeconds << " s of engine time; host slowdown "
            << median(slowdowns) << " (median of " << slowdowns.size() << " probes)\n";
  const double samples = static_cast<double>(std::max<std::size_t>(1, engineSamples));
  const double engineNsPerSample = engineNs / samples;
  if (tr == nullptr) {
    // A run too short for one whole round falls back to its totals.
    if (roundSamplesPerS.empty())
      roundSamplesPerS.push_back(static_cast<double>(engineSamples) / engineSeconds *
                                 lastSlowdown);
    report.metric("mc_samples_per_s", median(roundSamplesPerS), "1/s");
    report.metric("latency_p50_ms.light", slicedQuantile(lightMs, 0.50), "ms");
    report.metric("latency_p99_ms.light", slicedQuantile(lightMs, 0.99), "ms");
    report.metric("latency_p50_ms.heavy", slicedQuantile(heavyMs, 0.50), "ms");
    report.metric("latency_p99_ms.heavy", slicedQuantile(heavyMs, 0.99), "ms");
    // ok_share is 1 - failed / attempted over the run's final totals,
    // which perfbench/run.py completes with the pinned reference cells.
    report.metric("decided_share",
                  static_cast<double>(decided) / samples,
                  "share");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // Traced pass: the engine layers from the replay, the pipeline from a
  // traced compile, the service layers from a short served slice of this
  // workload's own light requests.
  traceCompile(cells, tracer);
  traceServeSlice(sliceLines, options.seed, tracer, report);
  const auto layers = tracer.layers();
  writeEngineMetrics(report, replay, engineNsPerSample, layers);
  report.metric("trace.overhead_share", replay.wallNs / std::max(1.0, engineNs) - 1.0, "share");
  report.metric("circuit.compile_ms", meanTotal(layers, "circuit.compile", 1e6), "ms");
  report.metric("logic.synth_ms", meanSelf(layers, "logic.synth", 1e6), "ms");
  report.metric("circuit.realize_ms", meanSelf(layers, "circuit.realize", 1e6), "ms");
  writeSpans(options, tracer, report);
}

}  // namespace perf
