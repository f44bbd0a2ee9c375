// ExperimentService — the deadline-aware, load-shedding experiment engine
// behind the mcx_serve daemon (and the serve-trace bench, which drives it
// in-process).
//
// Robustness-first design:
//   - ADMISSION CONTROL: a bounded FIFO queue. A request arriving when the
//     queue is full is rejected immediately with a structured `overloaded`
//     error — submit() never blocks and in-flight work is never displaced.
//   - DEADLINES: every request's CancelToken is armed at admission, so time
//     spent queued and in synthesis counts against the budget. Workers poll
//     the token between Monte Carlo samples; a fired deadline yields a
//     `deadline_exceeded` response carrying the partial sample counts.
//   - COOPERATIVE CANCELLATION: shutdownNow() (and per-request cancel())
//     fire tokens; workers abort between samples, never mid-sample, so the
//     shared circuit cache and executor pool stay consistent.
//   - GRACEFUL DRAIN: drain() stops admission (new requests shed as
//     `overloaded`), finishes everything already admitted, and returns when
//     the service is idle — the SIGTERM path of the daemon.
//   - SHARED RESOURCES: one persistent ExecutorPool executes every
//     experiment's samples; circuit compilation goes through the global
//     CircuitCache, so concurrent requests that share a
//     CircuitSpec::canonical() key coalesce into one synthesis (the cache
//     compiles under its lock; late arrivals get the artifact for free —
//     hit/miss counters are surfaced per service).
//
// Responses are emitted as compact JSON lines through the sink, exactly one
// call per request. Calls to the shared default sink are serialized under
// the emission lock; a per-request sink is invoked without it (so one slow
// consumer cannot stall other connections' responses) and must be
// internally thread-safe when requestThreads > 1. Ordering follows
// completion, not submission — ids correlate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuit/cache.hpp"
#include "mc/executor.hpp"
#include "serve/error.hpp"
#include "serve/request.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"

namespace mcx::serve {

struct ServiceOptions {
  /// Admitted-but-not-started requests the service will hold before
  /// shedding load. (In-flight requests do not count against the depth.)
  std::size_t queueDepth = 64;
  /// Concurrent request executors. Each takes one request at a time and
  /// runs its samples on the shared pool.
  std::size_t requestThreads = 1;
  /// Parallelism of the shared sample pool (0 = hardware concurrency).
  std::size_t poolThreads = 0;
  /// Applied to requests that carry no deadline_ms (0 = no deadline).
  double defaultDeadlineMillis = 0;
  RequestLimits limits;

  // --- resource governance (all knobs default off: count-only admission,
  // --- no degradation — the PR 6 behaviour and bench invariants) ---------

  /// Cost-aware admission: summed cost units (samples x learned circuit
  /// area, see ServiceCounters) the queue will hold before shedding.
  /// 0 = count-only admission.
  std::uint64_t queueCostBudget = 0;
  /// Per-client token bucket: cost units refilled per second (0 = off) and
  /// the bucket's burst capacity (0 = same as one second of rate).
  double clientCostRate = 0;
  double clientCostBurst = 0;
  /// Overload mode: once the queue is at least this full (fraction of
  /// queueDepth), new batch-lane requests are shed before anything else.
  /// Interactive requests are unaffected until the queue is actually full.
  double batchShedFraction = 0.5;
  /// Trim a deadline-carrying request's sample count to what the learned
  /// per-sample rate says fits the remaining budget; the response is then
  /// labeled "degraded": true with the original requested_samples.
  bool degradeSamples = false;
  /// Flag requests stuck in flight past factor x p99 of serve.total (with
  /// a 100 ms floor while the histogram warms up). 0 = watchdog off.
  double watchdogFactor = 0;
};

/// Per-service counter snapshot. The underlying counters live in the
/// process-wide obs::Registry (under "serve.*" names); each service captures
/// a baseline at construction and reports deltas, so a fresh service always
/// counts from zero while `{"type":"stats"}` exposes the process totals.
struct ServiceCounters {
  std::uint64_t received = 0;           ///< submit() calls
  std::uint64_t accepted = 0;           ///< admitted to the queue
  std::uint64_t completedOk = 0;        ///< "status":"ok" responses
  std::uint64_t parseErrors = 0;        ///< `parse` responses
  std::uint64_t shedOverloaded = 0;     ///< `overloaded` rejections
  std::uint64_t deadlineExceeded = 0;   ///< `deadline_exceeded` responses
  std::uint64_t cancelled = 0;          ///< `cancelled` responses
  std::uint64_t internalErrors = 0;     ///< `internal` responses
  std::uint64_t queueHighWater = 0;     ///< max queued-at-once observed
  std::uint64_t samplesCompleted = 0;   ///< Monte Carlo samples actually run
  double busyMillis = 0;                ///< summed per-request execution time
  std::uint64_t statsRequests = 0;      ///< `{"type":"stats"}` requests served
  std::uint64_t healthRequests = 0;     ///< `{"type":"health"}` requests served
  std::uint64_t oversizedLines = 0;     ///< lines rejected by the byte limit
  std::uint64_t agedOut = 0;            ///< expired in queue, swept before work
  std::uint64_t clientShed = 0;         ///< shed by a client's token bucket
  std::uint64_t costShed = 0;           ///< shed by the queue cost budget
  std::uint64_t batchShed = 0;          ///< batch-lane requests shed in overload
  std::uint64_t degradedResponses = 0;  ///< ok responses with trimmed samples
  std::uint64_t watchdogFlags = 0;      ///< stuck-request flags raised
  /// Global CircuitCache deltas since this service was constructed: how
  /// often requests coalesced onto an already-compiled circuit, at both
  /// memo stages (circuit artifacts and synthesized covers).
  std::uint64_t circuitCacheHits = 0;
  std::uint64_t circuitCacheMisses = 0;
  std::uint64_t circuitCoverHits = 0;
  std::uint64_t synthesisRuns = 0;  ///< cover-stage misses: synthesizer runs
};

class ExperimentService {
public:
  /// Receives one compact JSON line per response (no trailing newline).
  /// Default-sink calls are serialized under the emission lock; per-request
  /// sinks are called without it and serialize themselves.
  using Sink = std::function<void(const std::string& line)>;

  ExperimentService(ServiceOptions options, Sink sink);
  /// shutdownNow() semantics: fires every outstanding token, finishes, joins.
  ~ExperimentService();

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Parse, validate and admit one request line. Never blocks: the response
  /// (or the parse/overloaded error) is either emitted synchronously here
  /// or scheduled on a request thread. @p sink overrides the default sink
  /// for THIS request's response (the daemon's per-connection routing).
  /// @p client keys the per-client cost bucket (the daemon passes one key
  /// per connection; empty = the anonymous shared bucket).
  /// `{"type":"stats"}` and `{"type":"health"}` lines short-circuit: their
  /// snapshots are emitted synchronously, bypassing admission entirely —
  /// a saturated or draining daemon still answers its operators.
  void submit(const std::string& line, Sink sink = nullptr,
              const std::string& client = {});

  /// Stop admitting (subsequent submits shed as `overloaded`), finish every
  /// admitted request, return when idle. Idempotent; safe from any thread.
  void drain();

  /// drain(), but firing every outstanding request's CancelToken first:
  /// queued and running requests come back `cancelled` with partial counts.
  void shutdownNow();

  bool draining() const;

  ServiceCounters counters() const;
  void writeCountersJson(JsonWriter& json) const;
  std::string countersJson(bool pretty = false) const;

  /// Full telemetry snapshot: {"service": <countersJson>, "registry":
  /// {"counters":..,"gauges":..,"histograms":..}} — the payload of the
  /// `{"type":"stats"}` protocol request and the daemon's periodic
  /// --metrics-interval flush. Histograms report per-stage request latency
  /// quantiles (queue wait, synthesis, MC run, emit) in milliseconds.
  void writeStatsJson(JsonWriter& json) const;
  std::string statsJson(bool pretty = false) const;

  /// Liveness/degradation snapshot — the `{"type":"health"}` payload and
  /// the daemon's --health-file heartbeat body. status is "ok", "degraded"
  /// (overloaded queue or watchdog-flagged requests) or "draining"; the
  /// rest is the load picture (queue depth, in-flight, queued cost, cache
  /// bytes, RSS).
  void writeHealthJson(JsonWriter& json) const;
  std::string healthJson(bool pretty = false) const;

  const ServiceOptions& options() const { return options_; }
  ExecutorPool& pool() { return pool_; }

private:
  struct Pending {
    Request request;
    Sink sink;  ///< null = service default
    std::shared_ptr<CancelToken> token;
    Stopwatch admitted;             ///< queue + execution latency clock
    std::uint64_t admitNanos = 0;   ///< process-epoch admission time (tracing)
    std::uint64_t cost = 0;         ///< admission cost units (samples x area)
    bool flagged = false;           ///< watchdog: stuck past the p99 threshold
  };

  /// Per-client admission token bucket (cost units; refilled by wall time).
  struct ClientBucket {
    double tokens = 0;
    std::uint64_t lastRefillNanos = 0;
  };

  /// Registry values captured at construction; counters() reports deltas.
  struct CounterBaseline {
    std::uint64_t received = 0;
    std::uint64_t accepted = 0;
    std::uint64_t completedOk = 0;
    std::uint64_t parseErrors = 0;
    std::uint64_t shedOverloaded = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t internalErrors = 0;
    std::uint64_t samplesCompleted = 0;
    std::uint64_t busyMicros = 0;
    std::uint64_t statsRequests = 0;
    std::uint64_t healthRequests = 0;
    std::uint64_t oversizedLines = 0;
    std::uint64_t agedOut = 0;
    std::uint64_t clientShed = 0;
    std::uint64_t costShed = 0;
    std::uint64_t batchShed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t watchdogFlags = 0;
  };

  void workerLoop();
  void watchdogLoop();
  void execute(Pending& pending);
  void emit(const Sink& sink, const std::string& line);
  void bumpForCode(ErrorCode code);
  /// Admission cost estimate: samples x learned realized area (rows x cols;
  /// kUnknownArea for circuits this service has not executed yet). Called
  /// and learned under mutex_.
  std::uint64_t costOfLocked(const Request& request) const;

  ServiceOptions options_;
  Sink defaultSink_;
  CircuitCache::Stats cacheBaseline_;
  CounterBaseline counterBase_;

  mutable std::mutex mutex_;
  std::condition_variable workReady_;  ///< queue became non-empty / stopping
  std::condition_variable idle_;       ///< queue empty and nothing in flight
  std::deque<std::shared_ptr<Pending>> queue_;
  std::vector<std::shared_ptr<Pending>> inFlight_;  ///< requests being executed
  std::uint64_t queueHighWater_ = 0;   ///< a max, not a sum: stays service-local
  std::uint64_t queuedCost_ = 0;       ///< summed cost of queued requests
  bool draining_ = false;
  bool stopping_ = false;

  /// Cost model state, learned per executed circuit (guarded by mutex_):
  /// canonical spec -> realized area, plus an EWMA of per-sample run time
  /// feeding the degradation trimmer.
  std::unordered_map<std::string, std::uint64_t> learnedArea_;
  double ewmaSampleMillis_ = 0;
  std::unordered_map<std::string, ClientBucket> clientBuckets_;

  std::mutex emitMutex_;  ///< serializes DEFAULT-sink calls (one line at a time)

  ExecutorPool pool_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;               ///< only started when watchdogFactor > 0
  std::condition_variable watchdogCv_; ///< wakes the watchdog for shutdown
};

}  // namespace mcx::serve
