#include "serve.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/experiment.hpp"
#include "circuit/cache.hpp"
#include "scenario/spec.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace perf {

using namespace mcx;

namespace {

constexpr double kRps = 100;          ///< the slice's arrival rate
constexpr double kLagBoundMs = 25;    ///< generator lateness that fails the run
constexpr double kDrainSeconds = 30;  ///< wait for the last answers

/// Answer lines with their arrival time, collected on the service's
/// threads and matched to their requests after the stream.
class ResponseLog {
public:
  void add(const std::string& line) {
    const std::uint64_t at = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.emplace_back(at, line);
  }
  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }
  std::vector<std::pair<std::uint64_t, std::string>> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(lines_, {});
  }

private:
  std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> lines_;
};

struct Outcome {
  std::uint64_t dueNs = 0;
  std::uint64_t arrivalNs = 0;  ///< 0 = no answer
  std::string status;
  std::string code;  ///< error code of an "error" answer
  std::uint64_t completed = 0;
  std::uint64_t successes = 0;
  double queueMs = -1;
};

std::string idOf(const SpecValue& doc) {
  const SpecValue* v = doc.find("id");
  return v != nullptr && v->kind == SpecValue::Kind::String ? v->string : "";
}

}  // namespace

void traceServeSlice(const std::vector<std::string>& lines, std::uint64_t seed, Tracer& tracer,
                     Report& report) {
  // One arrival in each 1/rate slot, at a seeded offset inside it.
  Rng rng(derive(seed, 0x511ce));
  std::vector<Outcome> outcomes(lines.size());
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    index[idOf(parseSpec(lines[i]))] = i;
    outcomes[i].dueNs =
        static_cast<std::uint64_t>((static_cast<double>(i) + rng.uniform()) / kRps * 1e9);
  }

  ResponseLog log;
  std::vector<double> lagMs;
  const CircuitCache::Stats before = CircuitCache::global().stats();
  {
    serve::ServiceOptions options;
    options.requestThreads = 1;
    options.poolThreads = 2;
    serve::ExperimentService service(options,
                                     [&log](const std::string& line) { log.add(line); });
    const std::uint64_t base = nowNs() + 2'000'000;
    const auto epoch = std::chrono::steady_clock::now() - std::chrono::nanoseconds(nowNs());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Outcome& o = outcomes[i];
      o.dueNs += base;
      // Sleep to within 200 us of the due time, then spin: a sleeping
      // thread's wake-up latency on a virtual CPU would otherwise land in
      // every measured latency.
      if (o.dueNs > nowNs() + 200'000)
        std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(o.dueNs - 200'000));
      while (nowNs() < o.dueNs) {
      }
      lagMs.push_back(static_cast<double>(nowNs() - o.dueNs) / 1e6);
      const Scope span(&tracer, "serve.submit", Tracer::kNoParent, static_cast<std::int64_t>(i));
      service.submit(lines[i]);
    }
    const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    while (log.size() < lines.size() && nowNs() < end)
      std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const CircuitCache::Stats after = CircuitCache::global().stats();

  for (auto& [at, line] : log.take()) {
    const SpecValue doc = parseSpec(line);
    const auto it = index.find(idOf(doc));
    if (it == index.end()) continue;
    Outcome& o = outcomes[it->second];
    o.arrivalNs = at;
    o.status = doc.stringOr("status", "");
    if (const SpecValue* error = doc.find("error")) o.code = error->stringOr("code", "");
    o.completed = static_cast<std::uint64_t>(doc.numberOr("completed", 0));
    o.successes = static_cast<std::uint64_t>(doc.numberOr("successes", 0));
    o.queueMs = doc.numberOr("queue_ms", -1);
  }

  const double lagP99 = quantile(lagMs, 0.99);
  if (lagP99 > kLagBoundMs) {
    std::ostringstream what;
    what << "served slice: generator lag p99 " << lagP99 << " ms exceeds " << kLagBoundMs
         << " ms (the run measured the generator, not the service)";
    report.fail(what.str());
  }

  // Every answer checked against a direct ExperimentBuilder replay of its
  // declaration; the serve layers re-timed from outside on each request.
  std::vector<double> queueMs;
  std::size_t shed = 0;
  const serve::RequestLimits limits;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Outcome& o = outcomes[i];
    const auto rid = static_cast<std::int64_t>(i);
    if (o.arrivalNs != 0)
      tracer.add("serve.request", o.dueNs, o.arrivalNs, Tracer::kNoParent, rid);
    if (o.queueMs >= 0) queueMs.push_back(o.queueMs);
    if (o.code == "overloaded") ++shed;
    if (o.status != "ok") {
      report.fail("served slice: request " + std::to_string(i) + " was not answered ok");
      continue;
    }
    serve::Request request;
    {
      Scope span(&tracer, "serve.parse", Tracer::kNoParent, rid);
      request = serve::parseRequest(lines[i], limits);
    }
    {
      Scope span(&tracer, "circuit.cache_lookup", Tracer::kNoParent, rid);
      CircuitCache::global().compile(request.circuit);
    }
    ExperimentBuilder builder;
    builder.circuit(request.circuit)
        .mapper(request.mapper)
        .samples(request.samples)
        .seed(request.seed)
        .spareRows(request.spareRows)
        .threads(1);
    if (request.scenario != nullptr)
      builder.scenario(request.scenario);
    else
      builder.legacyRates(request.legacyOpen, request.legacyClosed);
    const ExperimentResult replay = builder.run();
    if (replay.outcome.successes != o.successes || replay.outcome.completed != o.completed)
      report.fail("served slice: request " + std::to_string(i) +
                  " differs from its ExperimentBuilder replay");
    const Scope span(&tracer, "serve.emit", Tracer::kNoParent, rid);
    if (replay.toJson().empty()) report.fail("served slice: empty ExperimentResult::toJson");
  }

  const auto layers = tracer.layers();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  const double attempted = static_cast<double>(std::max<std::size_t>(1, lines.size()));
  report.metric("serve.submit_us", meanTotal(layers, "serve.submit", 1e3), "us");
  report.metric("serve.parse_us", meanTotal(layers, "serve.parse", 1e3), "us");
  report.metric("serve.emit_us", meanTotal(layers, "serve.emit", 1e3), "us");
  report.metric("serve.queue_ms_p99", quantile(queueMs, 0.99), "ms");
  report.metric("serve.shed_share", static_cast<double>(shed) / attempted, "share");
  report.metric("loadgen.lag_ms_p99", lagP99, "ms");
  report.metric("circuit.cache_lookup_us", meanTotal(layers, "circuit.cache_lookup", 1e3), "us");
  report.metric("circuit.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "share");
}

}  // namespace perf
