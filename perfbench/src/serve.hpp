// The served slice of a traced run: the service layers timed on the
// workload's own declarations (serve.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perf {

/// Send @p lines (JSON-lines experiment requests, each with an "id") as an
/// open-loop stream at a fixed rate into a fresh in-process
/// ExperimentService (1 request thread, 2 pool threads). The calling thread
/// is the generator: each request is timed from its due time, and a
/// generator that ran more than 25 ms late at p99 fails the run. Every
/// answer must be `ok` with the successes of a direct ExperimentBuilder
/// replay of the same declaration. Spans: serve.request (due time to
/// answer) and serve.submit (ExperimentService::submit) while serving, then
/// serve.parse (serve::parseRequest), circuit.cache_lookup (a warm
/// CircuitCache::compile) and serve.emit (ExperimentResult::toJson) per
/// request, all tagged with the request's number. Emits the serve.*,
/// loadgen.* and circuit.cache_* per_layer metrics.
void traceServeSlice(const std::vector<std::string>& lines, std::uint64_t seed, Tracer& tracer,
                     Report& report);

}  // namespace perf
