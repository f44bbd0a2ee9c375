// Shared plumbing of the mcx_perf benchmark program: options, the result
// report, order statistics, seed derivation and the in-memory span tracer.
//
// mcx_perf only calls the library's public API. Every layer is timed from
// the outside, around the calls into it; nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".bench_out";  ///< span files of traced runs
};

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 9;

/// Monotonic nanoseconds since a process-wide epoch (steady_clock).
std::uint64_t nowNs();

/// SplitMix64 finalizer over a seed and a path of indices: the derived
/// seeds of rounds, cells and requests. Same inputs, same seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0);

/// Linear-interpolation quantile (Python's statistics "inclusive" method);
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Time of one host-speed probe (hostSlowdown) on the reference host at
/// its usual speed.
constexpr double kProbeReferenceNs = 6.0e6;

/// How much slower the host runs now than the reference host: the time of
/// one probe over kProbeReferenceNs. The probe is a fixed piece of the
/// benchmark's own code, of the kind the workloads spend their time in
/// (Bernoulli bit draws into a bit matrix, then bipartite matching over it
/// by augmenting paths, with small allocations), so it slows down with the
/// host but not with changes to the library. Time metrics are divided by
/// it, rates multiplied, so they read as measured on the reference host.
double hostSlowdown();

/// Peak resident set of this process in MiB (VmHWM).
double peakRssMb();

/// The result of one run: the JSON result line plus the pinned
/// reference counts, which perfbench/run.py compares against
/// perfbench/reference.json.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failed check: one failed operation, @p what printed to stderr.
  void fail(const std::string& what);
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  void reference(const std::string& cell, std::uint64_t successes);
  bool correct() const { return failed_ == 0; }
  std::uint64_t failed() const { return failed_; }
  void print(std::ostream& out) const;

private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::uint64_t> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder of the traced pass. Spans carry a name, start,
/// end, parent span and (for service requests) the request id; they stay in
/// memory until write() at the end of the run. Single-threaded: every span
/// is opened and closed on the benchmark's driving thread.
class Tracer {
public:
  static constexpr std::int32_t kNoParent = -1;

  void reserve(std::size_t spans) { spans_.reserve(spans); }
  /// Open a span; returns its handle (also the parent of nested spans).
  std::int32_t open(const char* name, std::int32_t parent = kNoParent,
                    std::int64_t request = -1);
  void close(std::int32_t span);
  /// Record a span whose endpoints are already known.
  std::int32_t add(const char* name, std::uint64_t startNs, std::uint64_t endNs,
                   std::int32_t parent = kNoParent, std::int64_t request = -1);

  struct Layer {
    std::uint64_t count = 0;
    double totalNs = 0;  ///< summed span durations
    double selfNs = 0;   ///< summed durations minus the time children cover
  };
  /// Per-name aggregates over every recorded span.
  std::map<std::string, Layer> layers() const;
  /// Write every span as TSV (id, parent, name, start_ns, end_ns, request).
  bool write(const std::string& path) const;

private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::int64_t request;
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Span> spans_;
};

/// RAII span over a scope; a no-op when @p tracer is null.
class Scope {
public:
  Scope(Tracer* tracer, const char* name, std::int32_t parent = Tracer::kNoParent,
        std::int64_t request = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Mean self time per span of @p name in the unit of @p scale (1 = ns,
/// 1e3 = us, 1e6 = ms); 0 when no span of that name was recorded.
double meanSelf(const std::map<std::string, Tracer::Layer>& layers, const std::string& name,
                double scale = 1.0);
double meanTotal(const std::map<std::string, Tracer::Layer>& layers, const std::string& name,
                 double scale = 1.0);

/// Write @p tracer's spans to <outDir>/spans-<workload>.tsv (the latest
/// traced run of each workload).
void writeSpans(const Options& options, const Tracer& tracer, Report& report);

/// The workloads (mc.cpp): set-up, the measured pass (or the traced pass)
/// and the output checks, filling @p report.
void runMcWorkload(const Options& options, Report& report);

}  // namespace perf
