#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <sstream>
#include <utility>

#include "api/experiment.hpp"
#include "obs/trace.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/process.hpp"

namespace mcx::serve {

namespace {

/// Shared response prologue: {"id":..., "status":...}.
void beginResponse(JsonWriter& json, const std::string& id, const char* status) {
  json.beginObject();
  json.field("id", id);
  json.field("status", status);
}

std::string errorResponse(const std::string& id, ErrorCode code, const std::string& message,
                          const ExperimentResult* partial = nullptr, double queueMs = -1,
                          double totalMs = -1) {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/false);
  beginResponse(json, id, "error");
  json.key("error");
  json.beginObject();
  json.field("code", errorCodeLabel(code));
  json.field("message", message);
  json.endObject();
  if (partial != nullptr) {
    // Deadline/cancel aborts report exactly how far the experiment got —
    // the partial counts are real, well-labeled Monte Carlo results.
    json.field("samples", partial->outcome.samples);
    json.field("completed", partial->outcome.completed);
    json.field("successes", partial->outcome.successes);
    json.field("success_rate", partial->successRate());
  }
  if (queueMs >= 0) json.field("queue_ms", queueMs);
  if (totalMs >= 0) json.field("total_ms", totalMs);
  json.endObject();
  return out.str();
}

std::string okResponse(const std::string& id, const ExperimentResult& result, double queueMs,
                       double runMs, double totalMs, std::size_t requestedSamples = 0) {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/false);
  beginResponse(json, id, "ok");
  json.field("circuit", result.circuit);
  json.field("mapper", result.mapper);
  json.field("scenario", result.scenario);
  json.field("rows", result.rows);
  json.field("cols", result.cols);
  json.field("samples", result.outcome.samples);
  json.field("completed", result.outcome.completed);
  json.field("successes", result.outcome.successes);
  json.field("success_rate", result.successRate());
  if (result.graded) {
    // The request carried an "epsilon" budget: graded counts join the
    // response. Absent otherwise, keeping legacy responses byte-identical.
    json.field("epsilon", result.config.epsilon);
    json.field("epsilon_accepted", result.outcome.epsilonAccepted);
    json.field("functional_yield", result.functionalYield());
    json.field("rescued", result.outcome.rescued);
    json.field("mean_realized_error", result.meanRealizedError());
  }
  json.field("total_backtracks", result.outcome.totalBacktracks);
  if (requestedSamples > 0) {
    // The degradation trimmer ran: the answer is real but computed over
    // fewer samples than asked for — labeled so clients can re-ask with a
    // bigger deadline instead of silently trusting a thinner estimate.
    json.field("degraded", true);
    json.field("requested_samples", requestedSamples);
  }
  json.field("queue_ms", queueMs);
  json.field("synth_ms", result.synthesisMillis);
  json.field("run_ms", runMs);
  json.field("total_ms", totalMs);
  json.endObject();
  return out.str();
}

/// The service's metric handles, resolved once per process. The registry
/// entries are process-monotonic ("serve.*"); per-service views subtract
/// the baseline captured at construction (see ServiceCounters).
struct ServeRegistry {
  obs::Counter& received;
  obs::Counter& accepted;
  obs::Counter& completedOk;
  obs::Counter& parseErrors;
  obs::Counter& shedOverloaded;
  obs::Counter& deadlineExceeded;
  obs::Counter& cancelled;
  obs::Counter& internalErrors;
  obs::Counter& samplesCompleted;
  obs::Counter& busyMicros;
  obs::Counter& statsRequests;
  obs::Counter& healthRequests;
  obs::Counter& oversizedLines;
  obs::Counter& agedOut;
  obs::Counter& clientShed;
  obs::Counter& costShed;
  obs::Counter& batchShed;
  obs::Counter& degraded;
  obs::Counter& watchdogFlags;
  obs::Gauge& queueDepth;
  obs::Gauge& inflight;
  obs::Gauge& queuedCost;
  obs::Gauge& stuckRequests;
  obs::Histogram& parseHist;
  obs::Histogram& queueWaitHist;
  obs::Histogram& synthesisHist;
  obs::Histogram& mcRunHist;
  obs::Histogram& emitHist;
  obs::Histogram& totalHist;
};

ServeRegistry& serveRegistry() {
  obs::Registry& r = obs::Registry::global();
  static ServeRegistry reg{
      r.counter("serve.received"),
      r.counter("serve.accepted"),
      r.counter("serve.completed_ok"),
      r.counter("serve.parse_errors"),
      r.counter("serve.shed_overloaded"),
      r.counter("serve.deadline_exceeded"),
      r.counter("serve.cancelled"),
      r.counter("serve.internal_errors"),
      r.counter("serve.samples_completed"),
      r.counter("serve.busy_micros"),
      r.counter("serve.stats_requests"),
      r.counter("serve.health_requests"),
      r.counter("serve.oversized_lines"),
      r.counter("serve.aged_out"),
      r.counter("serve.client_shed"),
      r.counter("serve.cost_shed"),
      r.counter("serve.batch_shed"),
      r.counter("serve.degraded"),
      r.counter("serve.watchdog_flags"),
      r.gauge("serve.queue_depth"),
      r.gauge("serve.inflight"),
      r.gauge("serve.queued_cost"),
      r.gauge("serve.stuck_requests"),
      r.histogram("serve.parse"),
      r.histogram("serve.queue_wait"),
      r.histogram("serve.synthesis"),
      r.histogram("serve.mc_run"),
      r.histogram("serve.emit"),
      r.histogram("serve.total"),
  };
  return reg;
}

}  // namespace

ExperimentService::ExperimentService(ServiceOptions options, Sink sink)
    : options_(options),
      defaultSink_(std::move(sink)),
      cacheBaseline_(CircuitCache::global().stats()),
      pool_(options.poolThreads) {
  const ServeRegistry& reg = serveRegistry();
  counterBase_.received = reg.received.value();
  counterBase_.accepted = reg.accepted.value();
  counterBase_.completedOk = reg.completedOk.value();
  counterBase_.parseErrors = reg.parseErrors.value();
  counterBase_.shedOverloaded = reg.shedOverloaded.value();
  counterBase_.deadlineExceeded = reg.deadlineExceeded.value();
  counterBase_.cancelled = reg.cancelled.value();
  counterBase_.internalErrors = reg.internalErrors.value();
  counterBase_.samplesCompleted = reg.samplesCompleted.value();
  counterBase_.busyMicros = reg.busyMicros.value();
  counterBase_.statsRequests = reg.statsRequests.value();
  counterBase_.healthRequests = reg.healthRequests.value();
  counterBase_.oversizedLines = reg.oversizedLines.value();
  counterBase_.agedOut = reg.agedOut.value();
  counterBase_.clientShed = reg.clientShed.value();
  counterBase_.costShed = reg.costShed.value();
  counterBase_.batchShed = reg.batchShed.value();
  counterBase_.degraded = reg.degraded.value();
  counterBase_.watchdogFlags = reg.watchdogFlags.value();

  const std::size_t workers = std::max<std::size_t>(1, options_.requestThreads);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
  if (options_.watchdogFactor > 0)
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

ExperimentService::~ExperimentService() {
  shutdownNow();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  workReady_.notify_all();
  watchdogCv_.notify_all();
  for (std::thread& t : workers_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void ExperimentService::bumpForCode(ErrorCode code) {
  // Registry counters are atomic: callable with or without the service lock.
  ServeRegistry& reg = serveRegistry();
  switch (code) {
    case ErrorCode::Parse: reg.parseErrors.add(1); break;
    case ErrorCode::DeadlineExceeded: reg.deadlineExceeded.add(1); break;
    case ErrorCode::Cancelled: reg.cancelled.add(1); break;
    case ErrorCode::Overloaded: reg.shedOverloaded.add(1); break;
    case ErrorCode::Internal: reg.internalErrors.add(1); break;
  }
}

void ExperimentService::emit(const Sink& sink, const std::string& line) {
  // Per-request sinks serialize themselves (the daemon's per-connection
  // writer holds its own lock), so they are invoked WITHOUT the global emit
  // lock: a sink blocked on one slow consumer must never stall responses
  // bound for every other connection. Only the shared default sink — one
  // output stream for all requests — needs the global serialization.
  if (sink) {
    sink(line);
    return;
  }
  const std::lock_guard<std::mutex> lock(emitMutex_);
  if (defaultSink_) defaultSink_(line);
}

void ExperimentService::submit(const std::string& line, Sink sink,
                               const std::string& client) {
  ServeRegistry& reg = serveRegistry();
  reg.received.add(1);

  // Control-plane requests short-circuit before request parsing (which
  // rejects unknown members, "type" included). The cheap substring check
  // keeps the experiment fast path free of a second JSON parse. Both
  // snapshots bypass admission ENTIRELY — no queue slot, no cost charge,
  // no overload shed — so a saturated or draining daemon still answers
  // its operators.
  if (line.find("\"type\"") != std::string::npos) {
    std::string type;
    try {
      const SpecValue spec = parseSpec(line);
      if (spec.isObject()) type = spec.stringOr("type", "");
    } catch (const std::exception&) {
      // Malformed JSON / mistyped member: fall through to the normal
      // parse-error response below.
    }
    if (type == "stats" || type == "health") {
      const bool isStats = type == "stats";
      (isStats ? reg.statsRequests : reg.healthRequests).add(1);
      std::ostringstream out;
      JsonWriter json(out, /*pretty=*/false);
      beginResponse(json, extractRequestId(line), "ok");
      json.key(isStats ? "stats" : "health");
      if (isStats)
        writeStatsJson(json);
      else
        writeHealthJson(json);
      json.endObject();
      emit(sink, out.str());
      return;
    }
  }

  // Parse + eager validation happen on the submitter's thread, before any
  // queue interaction: a malformed request never occupies a queue slot.
  Request request;
  try {
    faultinject::onSite("serve.enqueue");
    obs::Span parseSpan("parse", &reg.parseHist);
    request = parseRequest(line, options_.limits);
  } catch (const ServeError& e) {
    bumpForCode(e.code());
    emit(sink, errorResponse(extractRequestId(line), e.code(), e.what()));
    return;
  } catch (const std::bad_alloc&) {
    reg.internalErrors.add(1);
    emit(sink, errorResponse(extractRequestId(line), ErrorCode::Internal,
                             "allocation failure at admission"));
    return;
  }

  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->sink = std::move(sink);
  pending->token = std::make_shared<CancelToken>();
  pending->admitNanos = Stopwatch::processNanos();
  // The deadline clock starts NOW, at admission: a request that waits out
  // its whole budget in the queue is shed by its executor immediately.
  const double deadline = pending->request.deadlineMillis.has_value()
                              ? *pending->request.deadlineMillis
                              : options_.defaultDeadlineMillis;
  if (deadline > 0) pending->token->setDeadlineAfterMillis(deadline);

  bool rejected = false;
  std::string rejectReason;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending->cost = costOfLocked(pending->request);
    if (draining_ || stopping_) {
      rejected = true;
      rejectReason = "service is draining";
    } else if (queue_.size() >= options_.queueDepth) {
      rejected = true;
      rejectReason = "admission queue full";
    } else if (pending->request.lane == Request::Lane::Batch &&
               options_.batchShedFraction < 1.0 &&
               static_cast<double>(queue_.size()) >=
                   options_.batchShedFraction *
                       static_cast<double>(options_.queueDepth)) {
      // Overload mode sheds the batch lane first: cheap insurance that the
      // interactive lane keeps its latency while the queue is still
      // absorbing a burst.
      rejected = true;
      rejectReason = "batch lane shed under load";
      reg.batchShed.add(1);
    } else if (options_.queueCostBudget > 0 &&
               queuedCost_ + pending->cost > options_.queueCostBudget) {
      // Cost-aware admission: one million-sample request can no longer hide
      // behind a single queue slot while fifty cheap ones are shed.
      rejected = true;
      rejectReason = "queue cost budget exceeded (request cost " +
                     std::to_string(pending->cost) + ")";
      reg.costShed.add(1);
    } else if (options_.clientCostRate > 0) {
      // Per-client token bucket, refilled by wall time against the rate.
      ClientBucket& bucket = clientBuckets_[client];
      const std::uint64_t now = Stopwatch::processNanos();
      const double burst = options_.clientCostBurst > 0 ? options_.clientCostBurst
                                                        : options_.clientCostRate;
      if (bucket.lastRefillNanos == 0)
        bucket.tokens = burst;  // a new client starts with a full bucket
      else
        bucket.tokens = std::min(
            burst, bucket.tokens + options_.clientCostRate *
                                       static_cast<double>(now - bucket.lastRefillNanos) /
                                       1e9);
      bucket.lastRefillNanos = now;
      if (bucket.tokens < static_cast<double>(pending->cost)) {
        rejected = true;
        rejectReason = "client cost budget exhausted (request cost " +
                       std::to_string(pending->cost) + ")";
        reg.clientShed.add(1);
      } else {
        bucket.tokens -= static_cast<double>(pending->cost);
      }
    }
    if (!rejected) {
      queue_.push_back(pending);
      queuedCost_ += pending->cost;
      reg.accepted.add(1);
      queueHighWater_ = std::max<std::uint64_t>(queueHighWater_, queue_.size());
      reg.queueDepth.set(static_cast<std::int64_t>(queue_.size()));
      reg.queuedCost.set(static_cast<std::int64_t>(queuedCost_));
    } else {
      bumpForCode(ErrorCode::Overloaded);
    }
  }
  if (rejected) {
    emit(pending->sink,
         errorResponse(pending->request.id, ErrorCode::Overloaded, rejectReason));
    return;
  }
  workReady_.notify_one();
}

void ExperimentService::workerLoop() {
  ServeRegistry& reg = serveRegistry();
  for (;;) {
    std::shared_ptr<Pending> pending;
    std::vector<std::shared_ptr<Pending>> aged;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // CoDel-style queue aging, swept at dequeue: every queued request
      // whose deadline already fired is pulled out in one pass and answered
      // without occupying a worker iteration each. The taxonomy is
      // unchanged (they come back `deadline_exceeded` through execute()'s
      // expired-in-queue path); serve.aged_out just makes the sweep
      // observable.
      for (auto it = queue_.begin(); it != queue_.end();) {
        if ((*it)->token->stopRequested()) {
          aged.push_back(*it);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      if (!aged.empty()) {
        reg.agedOut.add(aged.size());
        for (const auto& entry : aged) {
          queuedCost_ -= std::min(queuedCost_, entry->cost);
          inFlight_.push_back(entry);
        }
      }
      if (!queue_.empty()) {
        pending = queue_.front();
        queue_.pop_front();
        queuedCost_ -= std::min(queuedCost_, pending->cost);
        inFlight_.push_back(pending);
      }
      reg.queueDepth.set(static_cast<std::int64_t>(queue_.size()));
      reg.queuedCost.set(static_cast<std::int64_t>(queuedCost_));
      reg.inflight.set(static_cast<std::int64_t>(inFlight_.size()));
    }

    // Aged entries first: each is a fast structured response, so the real
    // request behind them is not delayed by more than the emit cost.
    for (const auto& entry : aged) execute(*entry);
    if (pending) execute(*pending);

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      aged.push_back(pending);  // retire everything this iteration executed
      for (const auto& done : aged) {
        if (!done) continue;
        const auto it = std::find(inFlight_.begin(), inFlight_.end(), done);
        if (it != inFlight_.end()) inFlight_.erase(it);
      }
      reg.inflight.set(static_cast<std::int64_t>(inFlight_.size()));
      if (queue_.empty() && inFlight_.empty()) idle_.notify_all();
    }
  }
}

void ExperimentService::execute(Pending& pending) {
  ServeRegistry& reg = serveRegistry();
  const Request& req = pending.request;
  const double queueMs = pending.admitted.millis();
  reg.queueWaitHist.recordMillis(queueMs);
  // The queue wait already happened, so no Span can cover it — but its
  // endpoints are known, and Chrome complete events carry explicit ts/dur.
  if (obs::TraceSink* trace = obs::traceSink())
    trace->writeComplete("queue_wait", static_cast<double>(pending.admitNanos) / 1e3,
                         queueMs * 1e3, obs::currentTraceTid());

  // One emission per request, timed as the "emit" stage: serializing the
  // response is cheap, but a blocking default sink shows up here.
  const auto respond = [&](const std::string& lineOut) {
    obs::Span emitSpan("emit", &reg.emitHist);
    emit(pending.sink, lineOut);
    reg.totalHist.recordMillis(pending.admitted.millis());
  };

  // A request that spent its whole budget queued is answered without
  // doing any work — the structured deadline_exceeded with zero samples.
  if (pending.token->stopRequested()) {
    const CancelToken::StopReason reason = pending.token->reason();
    const ErrorCode code = reason == CancelToken::StopReason::Cancelled
                               ? ErrorCode::Cancelled
                               : ErrorCode::DeadlineExceeded;
    bumpForCode(code);
    respond(errorResponse(req.id, code,
                          code == ErrorCode::Cancelled ? "cancelled before start"
                                                       : "deadline exceeded in queue",
                          nullptr, queueMs, pending.admitted.millis()));
    return;
  }

  // Graceful degradation: when enabled and the learned per-sample rate says
  // the full sample count cannot fit the remaining deadline budget, trim to
  // what fits (x0.8 safety margin for synthesis and emit) instead of
  // burning the whole budget on a guaranteed deadline_exceeded.
  std::size_t runSamples = req.samples;
  if (options_.degradeSamples && pending.token->hasDeadline()) {
    double perSampleMs = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      perSampleMs = ewmaSampleMillis_;
    }
    const double remainingMs = pending.token->remainingMillis();
    if (perSampleMs > 0 && std::isfinite(remainingMs)) {
      const double affordable = std::floor(remainingMs * 0.8 / perSampleMs);
      if (affordable < static_cast<double>(runSamples))
        runSamples = static_cast<std::size_t>(std::max(affordable, 1.0));
    }
  }
  const bool degraded = runSamples < req.samples;

  Stopwatch runWatch;
  try {
    ExperimentBuilder builder;
    builder.circuit(req.circuit)
        .mapper(req.mapper)
        .samples(runSamples)
        .seed(req.seed)
        .spareRows(req.spareRows)
        .cache(req.useCache)
        .pool(&pool_)
        .cancelToken(pending.token);
    if (req.scenario != nullptr)
      builder.scenario(req.scenario);
    else
      builder.legacyRates(req.legacyOpen, req.legacyClosed);
    if (req.multiLevel.has_value()) builder.multiLevel(*req.multiLevel);
    if (req.epsilon.has_value()) builder.errorBudget(*req.epsilon);

    const ExperimentResult result = builder.run();
    const double runMs = runWatch.millis();
    const double totalMs = pending.admitted.millis();
    reg.synthesisHist.recordMillis(result.synthesisMillis);
    reg.mcRunHist.recordMillis(result.mcRunMillis);
    reg.samplesCompleted.add(result.outcome.completed);
    reg.busyMicros.add(static_cast<std::uint64_t>(runMs * 1e3));

    // Feed the admission cost model: the realized area replaces the
    // unknown-circuit default, and completed samples update the per-sample
    // EWMA the degradation trimmer consults.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      learnedArea_[req.circuit.canonical()] =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(result.rows) *
                                         static_cast<std::uint64_t>(result.cols));
      if (result.outcome.completed > 0 && result.mcRunMillis > 0) {
        const double perSample =
            result.mcRunMillis / static_cast<double>(result.outcome.completed);
        ewmaSampleMillis_ =
            ewmaSampleMillis_ == 0 ? perSample : 0.7 * ewmaSampleMillis_ + 0.3 * perSample;
      }
    }

    if (result.outcome.aborted) {
      const ErrorCode code = result.outcome.abortReason == "cancelled"
                                 ? ErrorCode::Cancelled
                                 : ErrorCode::DeadlineExceeded;
      bumpForCode(code);
      respond(errorResponse(req.id, code,
                            code == ErrorCode::Cancelled ? "cancelled mid-experiment"
                                                         : "deadline exceeded mid-experiment",
                            &result, queueMs, totalMs));
      return;
    }

    reg.completedOk.add(1);
    if (degraded) reg.degraded.add(1);
    respond(okResponse(req.id, result, queueMs, runMs, totalMs,
                       degraded ? req.samples : 0));
  } catch (const ParseError& e) {
    // A malformed PLA or circuit spec only surfaces when the circuit is
    // compiled: the client's input is at fault, not the daemon.
    bumpForCode(ErrorCode::Parse);
    reg.busyMicros.add(static_cast<std::uint64_t>(runWatch.millis() * 1e3));
    respond(errorResponse(req.id, ErrorCode::Parse, e.what(), nullptr, queueMs,
                          pending.admitted.millis()));
  } catch (const std::bad_alloc&) {
    reg.internalErrors.add(1);
    reg.busyMicros.add(static_cast<std::uint64_t>(runWatch.millis() * 1e3));
    respond(errorResponse(req.id, ErrorCode::Internal, "allocation failure", nullptr,
                          queueMs, pending.admitted.millis()));
  } catch (const std::exception& e) {
    // Synthesis failures, engine invariant violations, injected faults:
    // the request dies with a structured `internal`, the daemon lives on.
    reg.internalErrors.add(1);
    reg.busyMicros.add(static_cast<std::uint64_t>(runWatch.millis() * 1e3));
    respond(errorResponse(req.id, ErrorCode::Internal, e.what(), nullptr, queueMs,
                          pending.admitted.millis()));
  }
}

std::uint64_t ExperimentService::costOfLocked(const Request& request) const {
  // Cost units are samples x realized area (rows x cols). A circuit this
  // service has not executed yet is charged a mid-sized default — admission
  // must price a request BEFORE synthesis, so the first execution teaches
  // the model and repeats are priced exactly.
  constexpr std::uint64_t kUnknownArea = 1024;
  const auto it = learnedArea_.find(request.circuit.canonical());
  const std::uint64_t area = it == learnedArea_.end() ? kUnknownArea : it->second;
  return static_cast<std::uint64_t>(request.samples) * std::max<std::uint64_t>(1, area);
}

void ExperimentService::watchdogLoop() {
  ServeRegistry& reg = serveRegistry();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    watchdogCv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return stopping_; });
    if (stopping_) break;
    // Threshold: factor x p99 of the end-to-end request latency histogram,
    // floored at 100 ms so an empty or cold histogram cannot make every
    // request "stuck" (or a millisecond-fast one unflaggable in tests).
    const double p99Ms = reg.totalHist.snapshot().quantile(0.99) / 1e6;
    const double thresholdMs = std::max(options_.watchdogFactor * p99Ms, 100.0);
    std::int64_t stuck = 0;
    for (const auto& pending : inFlight_) {
      if (pending->admitted.millis() <= thresholdMs) continue;
      ++stuck;
      if (!pending->flagged) {
        pending->flagged = true;
        reg.watchdogFlags.add(1);
      }
    }
    reg.stuckRequests.set(stuck);
  }
  reg.stuckRequests.set(0);
}

void ExperimentService::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  workReady_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && inFlight_.empty(); });
}

void ExperimentService::shutdownNow() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    for (const auto& pending : queue_) pending->token->cancel();
    for (const auto& pending : inFlight_) pending->token->cancel();
  }
  drain();
}

bool ExperimentService::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

ServiceCounters ExperimentService::counters() const {
  ServiceCounters snapshot;
  const ServeRegistry& reg = serveRegistry();
  snapshot.received = reg.received.value() - counterBase_.received;
  snapshot.accepted = reg.accepted.value() - counterBase_.accepted;
  snapshot.completedOk = reg.completedOk.value() - counterBase_.completedOk;
  snapshot.parseErrors = reg.parseErrors.value() - counterBase_.parseErrors;
  snapshot.shedOverloaded = reg.shedOverloaded.value() - counterBase_.shedOverloaded;
  snapshot.deadlineExceeded = reg.deadlineExceeded.value() - counterBase_.deadlineExceeded;
  snapshot.cancelled = reg.cancelled.value() - counterBase_.cancelled;
  snapshot.internalErrors = reg.internalErrors.value() - counterBase_.internalErrors;
  snapshot.samplesCompleted = reg.samplesCompleted.value() - counterBase_.samplesCompleted;
  snapshot.busyMillis =
      static_cast<double>(reg.busyMicros.value() - counterBase_.busyMicros) / 1e3;
  snapshot.statsRequests = reg.statsRequests.value() - counterBase_.statsRequests;
  snapshot.healthRequests = reg.healthRequests.value() - counterBase_.healthRequests;
  snapshot.oversizedLines = reg.oversizedLines.value() - counterBase_.oversizedLines;
  snapshot.agedOut = reg.agedOut.value() - counterBase_.agedOut;
  snapshot.clientShed = reg.clientShed.value() - counterBase_.clientShed;
  snapshot.costShed = reg.costShed.value() - counterBase_.costShed;
  snapshot.batchShed = reg.batchShed.value() - counterBase_.batchShed;
  snapshot.degradedResponses = reg.degraded.value() - counterBase_.degraded;
  snapshot.watchdogFlags = reg.watchdogFlags.value() - counterBase_.watchdogFlags;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.queueHighWater = queueHighWater_;
  }
  const CircuitCache::Stats cache = CircuitCache::global().stats();
  snapshot.circuitCacheHits = cache.hits - cacheBaseline_.hits;
  snapshot.circuitCacheMisses = cache.misses - cacheBaseline_.misses;
  snapshot.circuitCoverHits = cache.coverHits - cacheBaseline_.coverHits;
  snapshot.synthesisRuns = cache.coverMisses - cacheBaseline_.coverMisses;
  return snapshot;
}

void ExperimentService::writeCountersJson(JsonWriter& json) const {
  const ServiceCounters c = counters();
  json.beginObject();
  json.field("received", c.received);
  json.field("accepted", c.accepted);
  json.field("completed_ok", c.completedOk);
  json.field("parse_errors", c.parseErrors);
  json.field("shed_overloaded", c.shedOverloaded);
  json.field("deadline_exceeded", c.deadlineExceeded);
  json.field("cancelled", c.cancelled);
  json.field("internal_errors", c.internalErrors);
  json.field("queue_high_water", c.queueHighWater);
  json.field("samples_completed", c.samplesCompleted);
  json.field("busy_millis", c.busyMillis);
  json.field("stats_requests", c.statsRequests);
  json.field("health_requests", c.healthRequests);
  json.field("oversized_lines", c.oversizedLines);
  json.field("aged_out", c.agedOut);
  json.field("client_shed", c.clientShed);
  json.field("cost_shed", c.costShed);
  json.field("batch_shed", c.batchShed);
  json.field("degraded_responses", c.degradedResponses);
  json.field("watchdog_flags", c.watchdogFlags);
  json.field("circuit_cache_hits", c.circuitCacheHits);
  json.field("circuit_cache_misses", c.circuitCacheMisses);
  json.field("circuit_cover_hits", c.circuitCoverHits);
  json.field("synthesis_runs", c.synthesisRuns);
  json.endObject();
}

std::string ExperimentService::countersJson(bool pretty) const {
  std::ostringstream out;
  JsonWriter json(out, pretty);
  writeCountersJson(json);
  return out.str();
}

void ExperimentService::writeStatsJson(JsonWriter& json) const {
  json.beginObject();
  json.key("service");
  writeCountersJson(json);
  json.key("registry");
  obs::Registry::global().writeJson(json);
  json.endObject();
}

std::string ExperimentService::statsJson(bool pretty) const {
  std::ostringstream out;
  JsonWriter json(out, pretty);
  writeStatsJson(json);
  return out.str();
}

void ExperimentService::writeHealthJson(JsonWriter& json) const {
  std::size_t queued = 0;
  std::uint64_t queuedCost = 0;
  std::size_t inflight = 0;
  std::int64_t stuck = 0;
  bool draining = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queued = queue_.size();
    queuedCost = queuedCost_;
    inflight = inFlight_.size();
    draining = draining_ || stopping_;
    for (const auto& pending : inFlight_)
      if (pending->flagged) ++stuck;
  }
  // "degraded" = overload mode (the batch-shed threshold is crossed) or a
  // watchdog-flagged request is still in flight — the daemon is alive and
  // answering but an operator should look at it.
  const bool overloaded =
      static_cast<double>(queued) >=
      options_.batchShedFraction * static_cast<double>(options_.queueDepth);
  const char* status = draining ? "draining" : (overloaded || stuck > 0) ? "degraded" : "ok";
  const proc::MemoryUsage mem = proc::memoryUsage();

  json.beginObject();
  json.field("status", status);
  json.field("queue_depth", queued);
  json.field("queue_capacity", options_.queueDepth);
  json.field("inflight", inflight);
  json.field("queued_cost", queuedCost);
  json.field("stuck_requests", stuck);
  json.field("cache_bytes", CircuitCache::global().currentBytes());
  json.field("cache_budget_bytes", CircuitCache::global().byteBudget());
  json.field("rss_bytes", mem.rssBytes);
  json.field("peak_rss_bytes", mem.peakRssBytes);
  json.endObject();
}

std::string ExperimentService::healthJson(bool pretty) const {
  std::ostringstream out;
  JsonWriter json(out, pretty);
  writeHealthJson(json);
  return out.str();
}

}  // namespace mcx::serve
